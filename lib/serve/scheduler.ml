(** Admission and dispatch on top of {!Sim.Multi}, with a full request
    lifecycle.

    The scheduler owns the request queue: arrivals enter a pending queue,
    and whenever a concurrency slot is free the configured policy picks the
    next request and launches its compiled artifact as a stream on the
    multi-stream engine.  Policies:

    - [Fifo]: strict arrival order.
    - [Sel]: shortest expected latency first — the estimate is the
      artifact's simulated *solo* latency, which the compiler already
      produced for free; ties keep arrival order.

    [max_streams] bounds how many requests may share the device at once
    (the serving concurrency knob); everything else queues.

    On top of admission and dispatch, requests have a lifecycle:

    - {b Deadlines.}  A request carrying an SLO (its own
      [Workload.rq_slo_us], or the scheduler-wide [deadline_us] default)
      must finish within that budget of its arrival.  A watchdog cancels
      in-flight streams at their deadline (freeing the slot for the next
      queued request) and expires queued requests whose deadline passed —
      terminal outcome [timed_out].
    - {b Retries.}  A stream struck by a runtime kernel fault (or hung
      forever) terminates [Faulted]; the request re-enters the queue after
      a deterministic linear backoff — the k-th retry (1-based) becomes
      ready [k * backoff_us] after its fault — on a fresh stream, at most
      [retries] times.  Retries exhausted is the terminal
      outcome [failed].
    - {b Admission control.}  A bounded pending queue ([queue_cap]) with a
      drop policy: [Reject] drops the newest arrival on overflow;
      [Shed] first sheds queued requests that can no longer meet their SLO
      given the solo-latency estimate (terminal outcome [rejected]).
    - {b Chaos.}  An armed {!Faultinject.chaos} spec derives a
      deterministic per-attempt fault plan (seeded by request id and
      attempt number) and an optional device-throttle window, so the same
      (seed, chaos, workload) triple reproduces byte-identical outcomes.

    - {b Continuous batching.}  With [max_batch > 1], a dispatch
      opportunistically coalesces queued first-attempt requests for the
      same model into one stream compiled at a {e bucketed} batch shape:
      the largest power of two <= min(available peers, [max_batch]) for
      which a batched artifact was supplied (powers of two keep the set of
      shapes small, so the schedule cache amortizes the recompiles).
      Members join at dispatch and split out at the stream boundary: each
      keeps its own arrival time, deadline, retry budget, and terminal
      outcome.  A kernel fault inside a batched stream retries the members
      {e individually} — retries never re-batch, so one poisoned request
      cannot keep killing its neighbours.  A member whose deadline passes
      mid-flight times out alone; the stream is only cancelled when every
      member has expired.

    - {b Prefill/decode lifecycle.}  A {e generation} request
      ([Workload.rq_gen > 0]) is served as one prefill dispatch followed by
      [rq_gen] single-token decode steps, each re-entering the queue when
      the previous phase finishes (carrying the KV state as its position).
      Decode step [t] runs the decode artifact whose position bucket is the
      smallest registered [art_pos >= gen_prompt + t - 1] (falling back to
      the largest available bucket).  Every step inherits the request's
      deadline and gets the full per-attempt retry budget; a faulted decode
      step retries {e the same step at the same position} — the carried KV
      state is immutable input, so a retry cannot corrupt it.  Decode and
      prefill dispatches never coalesce into batched streams.

    Every lifecycle feature defaults off: no deadline, no retries, an
    unbounded queue, no chaos, and [max_batch = 1], which never coalesces
    anything. *)

type policy = Fifo | Sel

let policy_to_string = function Fifo -> "fifo" | Sel -> "sel"

let policy_of_string = function
  | "fifo" -> Some Fifo
  | "sel" | "shortest" -> Some Sel
  | _ -> None

(** What to do when an arrival finds the pending queue full. *)
type drop_policy = Reject | Shed

let drop_of_string = function
  | "reject" | "reject-newest" -> Some Reject
  | "shed" | "shed-expired" -> Some Shed
  | _ -> None

(** Which lifecycle phase a dispatched stream serves.  [Single] is the
    classic one-shot request; generation requests run one [Prefill] then
    [Decode 1 .. Decode rq_gen] (steps are 1-based). *)
type phase = Single | Prefill | Decode of int

let phase_to_string = function
  | Single -> "single"
  | Prefill -> "prefill"
  | Decode t -> Fmt.str "decode:%d" t

type cfg = {
  policy : policy;
  max_streams : int;  (** concurrency bound, >= 1 *)
  queue_cap : int option;  (** bounded pending queue ([None] = unbounded) *)
  drop : drop_policy;
  retries : int;  (** max re-dispatches after a runtime fault *)
  backoff_us : float;
      (** linear retry backoff: the k-th retry (1-based; i.e. after the
          0-based attempt [k - 1] faults) becomes ready [k *] this after
          the fault *)
  deadline_us : float option;
      (** default SLO for requests that carry none ([Workload.rq_slo_us]
          wins when present) *)
  chaos : Faultinject.chaos option;  (** armed runtime-fault model *)
  max_batch : int;
      (** largest batch bucket a dispatch may coalesce (1 = batching off;
          buckets are powers of two and need a matching batched artifact) *)
  gen_prompt : int;
      (** prompt length assumed for generation requests: decode step [t]
          reads a KV cache of [gen_prompt + t - 1] entries (must be >= 1
          when any request has [rq_gen > 0]) *)
}

(** Build a scheduler configuration; every lifecycle feature defaults off
    (unbounded queue, [Reject] drops, no retries, 50 µs backoff, no
    deadline, no chaos, no batching, prompt length 0). *)
let cfg ?queue_cap ?(drop = Reject) ?(retries = 0) ?(backoff_us = 50.)
    ?deadline_us ?chaos ?(max_batch = 1) ?(gen_prompt = 0) ~policy
    ~max_streams () : cfg =
  { policy; max_streams; queue_cap; drop; retries; backoff_us; deadline_us;
    chaos; max_batch; gen_prompt }

(** One compiled, reusable inference program: the unit the serving layer
    shares across every request for the same model. *)
type artifact = {
  art_model : string;
  art_batch : int;
      (** batch lanes this artifact was compiled at; 1 = the base shape.
          The scheduler requires a base artifact per served model; batched
          buckets are optional extras it coalesces into when present *)
  art_pos : int;
      (** KV-cache position bucket this artifact was compiled at; 0 = the
          static (prefill / one-shot) shape.  Decode steps run the
          smallest-position artifact that fits their cache length *)
  art_profiles : Sim.kernel_profile list;
  art_solo_us : float;     (** simulated solo latency (the SEL estimate) *)
  art_counters : Counters.t;  (** solo traffic of the whole stream *)
  art_degraded : int;      (** degradation steps its compile took *)
  art_mega : bool;
      (** built from a mega-kernel task graph ({!artifact_of_taskgraph}):
          requests run as one persistent launch *)
  art_elided : int;
      (** kernel launches the artifact avoids per request: 0 for a
          multi-kernel artifact, source-kernel-count minus one for a
          mega-kernel artifact *)
}

(** Build an artifact straight from a compiled kernel program (one solo
    simulation yields both the replay profiles and the counters). *)
let artifact_of_prog (dev : Device.t) ~model ?(batch = 1) ?(pos = 0)
    ?(degraded = 0) (prog : Kernel_ir.prog) : artifact =
  if batch < 1 then invalid_arg "Scheduler.artifact_of_prog: batch < 1";
  if pos < 0 then invalid_arg "Scheduler.artifact_of_prog: pos < 0";
  let sim = Sim.run dev prog in
  {
    art_model = model;
    art_batch = batch;
    art_pos = pos;
    art_profiles = sim.Sim.profiles;
    art_solo_us = sim.Sim.total.Counters.time_us;
    art_counters = Counters.copy sim.Sim.total;
    art_degraded = degraded;
    art_mega = false;
    art_elided = 0;
  }

(** Build an artifact from a mega-kernel task graph: the whole program is
    ONE persistent kernel profile ({!Sim.run_mega}), so a serving
    stream pays a single launch and {!Sim.Multi} needs no special casing —
    contention, faults, and batching all apply unchanged. *)
let artifact_of_taskgraph (dev : Device.t) ~model ?(batch = 1) ?(pos = 0)
    ?(degraded = 0) (tg : Kernel_ir.taskgraph) : artifact =
  if batch < 1 then invalid_arg "Scheduler.artifact_of_taskgraph: batch < 1";
  if pos < 0 then invalid_arg "Scheduler.artifact_of_taskgraph: pos < 0";
  let sim = Sim.run_mega dev tg in
  {
    art_model = model;
    art_batch = batch;
    art_pos = pos;
    art_profiles = sim.Sim.profiles;
    art_solo_us = sim.Sim.total.Counters.time_us;
    art_counters = Counters.copy sim.Sim.total;
    art_degraded = degraded;
    art_mega = true;
    art_elided = Kernel_ir.launches_elided tg;
  }

type completed = {
  c_req : Workload.request;
  c_model : string;
  c_stream : int;        (** engine stream id (unique per attempt) *)
  c_slot : int;          (** concurrency lane, [0 .. max_streams-1] *)
  c_dispatch_us : float;
  c_finish_us : float;
  c_service_us : float;  (** on-device time, queueing excluded *)
  c_solo_us : float;
  c_bytes : int;         (** solo global-memory traffic of the request *)
  c_slices : (string * float * float) list;
      (** per-kernel (name, start, end) under contention *)
  c_retries : int;       (** faulted attempts absorbed before this one *)
  c_deadline_us : float option;  (** absolute deadline, when one applied *)
  c_batch : int;
      (** members of the request's batched stream (1 = unbatched); batched
          members share [c_stream] and split the stream's service time and
          bytes evenly, while [c_solo_us] stays the {e unbatched} estimate
          so slowdown < 1 is exactly the batching win *)
  c_mega : bool;  (** served on a mega-kernel (persistent-launch) artifact *)
  c_elided : int;
      (** kernel launches the serving artifact avoided for this request
          (0 unless the request ran on a mega-kernel artifact) *)
  c_phase : phase;
      (** lifecycle phase this completion belongs to; [Single] for
          one-shot requests *)
  c_issue_us : float;
      (** when this phase's work entered the queue: the request arrival
          for [Single]/[Prefill], the previous phase's finish for a decode
          step — per-phase latency is [c_finish_us - c_issue_us] *)
}

(** Latency including queueing: finish minus arrival. *)
let latency_us (c : completed) = c.c_finish_us -. c.c_req.Workload.rq_arrival_us

(** Per-phase latency: finish minus the phase's own issue time. *)
let phase_latency_us (c : completed) = c.c_finish_us -. c.c_issue_us

(** Is this completion the request's terminal one?  [Single] requests
    finish in one phase; a generation request finishes at its last decode
    step. *)
let is_terminal (c : completed) =
  match c.c_phase with
  | Single -> true
  | Prefill -> c.c_req.Workload.rq_gen = 0
  | Decode t -> t = c.c_req.Workload.rq_gen

(** Why a dispatched attempt died on the device. *)
type abort_reason = Fault | Deadline | Hung

let abort_reason_to_string = function
  | Fault -> "fault"
  | Deadline -> "deadline"
  | Hung -> "hung"

(** One dispatched attempt that did not complete: a faulted, hung, or
    deadline-cancelled stream.  The request itself may still have completed
    on a later attempt. *)
type aborted = {
  a_req : Workload.request;
  a_model : string;
  a_phase : phase;       (** lifecycle phase of the aborted attempt *)
  a_try : int;           (** 0 = first dispatch of the request *)
  a_stream : int;
  a_slot : int;
  a_dispatch_us : float;
  a_end_us : float;
  a_service_us : float;  (** device time wasted on the attempt *)
  a_reason : abort_reason;
  a_slices : (string * float * float) list;
}

(** Why a request was dropped without (another) dispatch. *)
type drop_reason =
  | Queue_full  (** rejected on arrival: bounded queue at capacity *)
  | Shed_slo    (** shed: could no longer meet its SLO per the estimate *)
  | Expired     (** timed out while still queued *)

let drop_reason_to_string = function
  | Queue_full -> "queue-full"
  | Shed_slo -> "shed-slo"
  | Expired -> "expired"

type dropped = {
  d_req : Workload.request;
  d_time_us : float;
  d_reason : drop_reason;
}

type outcome = {
  o_policy : policy;
  o_max_streams : int;
  o_completed : completed list;        (** completion order *)
  o_aborted : aborted list;            (** event order; [] without chaos *)
  o_dropped : dropped list;            (** event order; [] without caps/SLOs *)
  o_failed : (Workload.request * float * int) list;
      (** requests whose retry budget a fault exhausted: (request,
          terminal time, attempts made) *)
  o_diags : Diag.t list;               (** lifecycle events as diagnostics *)
  o_samples : Sim.Multi.sample list;   (** SM/bandwidth occupancy timeline *)
  o_makespan_us : float;               (** time of the last completion *)
}

(* one unit of queued work: a request at one lifecycle phase.  One-shot
   requests are a single [Single] job; generation requests materialize a
   [Prefill] job on arrival and each decode step as its own job when the
   previous phase finishes *)
type job = {
  jb_req : Workload.request;
  jb_phase : phase;
  jb_issue_us : float;  (** when this phase entered the queue *)
}

(* one dispatched stream: [f_members] is (job, attempt) in queue order,
   singleton unless a batch bucket coalesced; members leave the list
   individually when their deadline expires mid-flight *)
type flight = {
  mutable f_members : (job * int) list;
  f_art : artifact;
  f_slot : int;
  f_disp : float;
  f_stream : Sim.Multi.stream;
}

let rec insert_sorted x = function
  | [] -> [ x ]
  | y :: _ as l when x <= y -> x :: l
  | y :: rest -> y :: insert_sorted x rest

(* retry queue entries ordered by (ready time, request id); a request has
   at most one live job, so the id tie-break stays total *)
let rec insert_retry ((t, (j : job), _) as x) = function
  | [] -> [ x ]
  | ((t', (j' : job), _) :: _) as l
    when t < t'
         || (t = t' && j.jb_req.Workload.rq_id < j'.jb_req.Workload.rq_id) ->
      x :: l
  | y :: rest -> y :: insert_retry x rest

(** Serve [reqs] against [artifacts] on a fresh engine.  Deterministic:
    identical inputs produce identical outcomes.
    @raise Invalid_argument on an unknown model or [max_streams < 1]. *)
let run (dev : Device.t) (cfg : cfg) ~(artifacts : artifact list)
    (reqs : Workload.request list) : outcome =
  if cfg.max_streams < 1 then invalid_arg "Scheduler.run: max_streams < 1";
  if cfg.retries < 0 then invalid_arg "Scheduler.run: retries < 0";
  if cfg.max_batch < 1 then invalid_arg "Scheduler.run: max_batch < 1";
  (match cfg.queue_cap with
  | Some c when c < 1 -> invalid_arg "Scheduler.run: queue_cap < 1"
  | _ -> ());
  (* artifacts keyed by (model, batch, pos): the base shape (1, 0) is
     mandatory per served model; batched buckets and decode position
     buckets are opportunistic extras *)
  let tbl : (string * int * int, artifact) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun a ->
      Hashtbl.replace tbl
        (String.lowercase_ascii a.art_model, a.art_batch, a.art_pos)
        a)
    artifacts;
  let art_at (model : string) (batch : int) =
    Hashtbl.find_opt tbl (String.lowercase_ascii model, batch, 0)
  in
  let art_of (model : string) =
    match art_at model 1 with
    | Some a -> a
    | None -> invalid_arg (Fmt.str "Scheduler.run: no artifact for model %s" model)
  in
  (* decode position buckets per model, ascending *)
  let decode_buckets (model : string) : artifact list =
    List.filter
      (fun a ->
        a.art_batch = 1 && a.art_pos > 0
        && String.lowercase_ascii a.art_model = String.lowercase_ascii model)
      artifacts
    |> List.sort (fun a b -> compare a.art_pos b.art_pos)
  in
  (* a decode step over [cache] KV entries runs the smallest bucket that
     fits, or the largest registered one when the cache outgrows them *)
  let decode_art (model : string) ~(cache : int) : artifact =
    match decode_buckets model with
    | [] ->
        invalid_arg
          (Fmt.str "Scheduler.run: no decode artifact for model %s" model)
    | bs -> (
        match List.find_opt (fun a -> a.art_pos >= cache) bs with
        | Some a -> a
        | None -> List.nth bs (List.length bs - 1))
  in
  let art_for (j : job) : artifact =
    match j.jb_phase with
    | Single | Prefill -> art_of j.jb_req.Workload.rq_model
    | Decode t ->
        decode_art j.jb_req.Workload.rq_model ~cache:(cfg.gen_prompt + t - 1)
  in
  (* fail on unknown models / missing decode support before any simulated
     time passes *)
  List.iter
    (fun (r : Workload.request) ->
      ignore (art_of r.Workload.rq_model);
      if r.Workload.rq_gen < 0 then
        invalid_arg (Fmt.str "Scheduler.run: rq_gen < 0 on request %d"
                       r.Workload.rq_id);
      if r.Workload.rq_gen > 0 then begin
        if cfg.gen_prompt < 1 then
          invalid_arg "Scheduler.run: generation requests need gen_prompt >= 1";
        ignore (decode_art r.Workload.rq_model ~cache:cfg.gen_prompt)
      end)
    reqs;
  (* kernel-stage shape of each artifact, for chaos plan derivation *)
  let stages_tbl : (string * int * int, int array) Hashtbl.t =
    Hashtbl.create 8
  in
  let stages_of (a : artifact) : int array =
    let key = (String.lowercase_ascii a.art_model, a.art_batch, a.art_pos) in
    match Hashtbl.find_opt stages_tbl key with
    | Some s -> s
    | None ->
        let s =
          Array.of_list
            (List.map
               (fun (kp : Sim.kernel_profile) -> List.length kp.Sim.kp_stages)
               a.art_profiles)
        in
        Hashtbl.replace stages_tbl key s;
        s
  in
  let deadline_of_req (r : Workload.request) : float option =
    match (r.Workload.rq_slo_us, cfg.deadline_us) with
    | Some s, _ | None, Some s -> Some (r.Workload.rq_arrival_us +. s)
    | None, None -> None
  in
  let deadlines_possible =
    cfg.deadline_us <> None
    || List.exists (fun (r : Workload.request) -> r.Workload.rq_slo_us <> None) reqs
  in
  if cfg.chaos <> None then Faultinject.Runtime.reset ();
  let upcoming =
    ref
      (List.stable_sort
         (fun (a : Workload.request) b ->
           compare a.Workload.rq_arrival_us b.Workload.rq_arrival_us)
         reqs)
  in
  let queue = ref [] (* (job, attempt) — arrived, undispatched *) in
  let retry_at = ref [] (* (ready_us, job, attempt), sorted *) in
  (* the job a fresh arrival materializes as: generation requests start at
     their prefill phase *)
  let job_of_req (r : Workload.request) : job =
    {
      jb_req = r;
      jb_phase = (if r.Workload.rq_gen > 0 then Prefill else Single);
      jb_issue_us = r.Workload.rq_arrival_us;
    }
  in
  (* chaos plans are keyed per dispatched unit: decode steps of one request
     must not all inherit the request's fault fate, so step [t] perturbs
     the id by a deterministic prime stride *)
  let chaos_id (j : job) : int =
    match j.jb_phase with
    | Single | Prefill -> j.jb_req.Workload.rq_id
    | Decode t -> j.jb_req.Workload.rq_id + (7919 * t)
  in
  let m = Sim.Multi.create dev in
  (match cfg.chaos with
  | Some { Faultinject.ch_throttle = Some th; _ } ->
      Sim.Multi.throttle m ~start_us:th.Faultinject.th_start_us
        ~dur_us:th.Faultinject.th_dur_us ~capacity:th.Faultinject.th_capacity
  | _ -> ());
  let inflight : (int, flight) Hashtbl.t = Hashtbl.create 16 in
  let free_slots = ref (List.init cfg.max_streams Fun.id) in
  let completed = ref [] in
  let aborted = ref [] in
  let dropped = ref [] in
  let failed = ref [] in
  let diags = ref [] in
  let diag d = diags := d :: !diags in
  let drop (r : Workload.request) reason =
    let now = Sim.Multi.now_us m in
    dropped := { d_req = r; d_time_us = now; d_reason = reason } :: !dropped;
    diag
      (Diag.warning ~subject:r.Workload.rq_model Diag.Serve
         (Fmt.str "request %d dropped (%s) at %.1f us" r.Workload.rq_id
            (drop_reason_to_string reason)
            now))
  in
  let hopeless now (j : job) =
    match deadline_of_req j.jb_req with
    | Some d -> now +. (art_for j).art_solo_us > d
    | None -> false
  in
  (* bounded-queue admission for fresh arrivals (retries and follow-on
     lifecycle phases re-enter without re-admission: they were already
     admitted once) *)
  let admit (r : Workload.request) =
    let enqueue () = queue := !queue @ [ (job_of_req r, 0) ] in
    match cfg.queue_cap with
    | None -> enqueue ()
    | Some cap ->
        if List.length !queue < cap then enqueue ()
        else begin
          let now = Sim.Multi.now_us m in
          (match cfg.drop with
          | Shed ->
              (* deadline-aware: first shed queued requests that can no
                 longer meet their SLO given the solo-latency estimate *)
              let keep, shed =
                List.partition (fun (q, _) -> not (hopeless now q)) !queue
              in
              if shed <> [] then begin
                queue := keep;
                List.iter (fun ((q : job), _) -> drop q.jb_req Shed_slo) shed
              end
          | Reject -> ());
          if List.length !queue < Option.get cfg.queue_cap then enqueue ()
          else
            drop r
              (if
                 cfg.drop = Shed
                 && hopeless (Sim.Multi.now_us m) (job_of_req r)
               then Shed_slo
               else Queue_full)
        end
  in
  let absorb () =
    let rec arrivals () =
      match !upcoming with
      | (r : Workload.request) :: rest
        when r.Workload.rq_arrival_us <= Sim.Multi.now_us m ->
          admit r;
          upcoming := rest;
          arrivals ()
      | _ -> ()
    in
    arrivals ();
    let rec retries () =
      match !retry_at with
      | (ready, j, attempt) :: rest when ready <= Sim.Multi.now_us m ->
          queue := !queue @ [ (j, attempt) ];
          retry_at := rest;
          retries ()
      | _ -> ()
    in
    if !retry_at <> [] then retries ()
  in
  (* queued requests whose deadline passed time out without a dispatch *)
  let expire_queue () =
    if deadlines_possible && !queue <> [] then begin
      let now = Sim.Multi.now_us m in
      let live, dead =
        List.partition
          (fun ((q : job), _) ->
            match deadline_of_req q.jb_req with
            | Some d -> d > now
            | None -> true)
          !queue
      in
      if dead <> [] then begin
        queue := live;
        List.iter (fun ((q : job), _) -> drop q.jb_req Expired) dead
      end
    end
  in
  let record_abort (j : job) (art : artifact) slot disp attempt
      (st : Sim.Multi.stream) reason =
    aborted :=
      {
        a_req = j.jb_req;
        a_model = art.art_model;
        a_phase = j.jb_phase;
        a_try = attempt;
        a_stream = st.Sim.Multi.st_id;
        a_slot = slot;
        a_dispatch_us = disp;
        a_end_us = Option.value ~default:(Sim.Multi.now_us m) st.Sim.Multi.st_finish_us;
        a_service_us = st.Sim.Multi.st_service_us;
        a_reason = reason;
        a_slices = Sim.Multi.kernel_slices st;
      }
      :: !aborted
  in
  let member_deadline ((j, _) : job * int) = deadline_of_req j.jb_req in
  (* a faulted decode step retries the same step at the same position: the
     job (and with it the KV-cache bucket) is re-queued unchanged *)
  let retry_or_fail (j : job) attempt =
    let rq = j.jb_req in
    let now = Sim.Multi.now_us m in
    let who =
      Fmt.str "request %d (%s)" rq.Workload.rq_id (phase_to_string j.jb_phase)
    in
    if attempt < cfg.retries then begin
      let ready = now +. (cfg.backoff_us *. float_of_int (attempt + 1)) in
      retry_at := insert_retry (ready, j, attempt + 1) !retry_at;
      diag
        (Diag.warning ~subject:rq.Workload.rq_model Diag.Serve
           ~hint:"fresh stream after deterministic backoff"
           (Fmt.str "%s attempt %d faulted; retry %d at %.1f us" who attempt
              (attempt + 1) ready))
    end
    else begin
      failed := (rq, now, attempt + 1) :: !failed;
      diag
        (Diag.error ~subject:rq.Workload.rq_model Diag.Serve
           ~hint:"raise --retries or lower the fault rate"
           (Fmt.str "%s failed: fault exhausted %d attempt(s)" who
              (attempt + 1)))
    end
  in
  (* watchdog: expire in-flight members past their deadline.  An expired
     member times out alone; its stream is cancelled (and the slot freed)
     only when every member has expired — surviving batch members keep the
     device work they already paid for *)
  let expire_inflight () =
    if deadlines_possible && Hashtbl.length inflight > 0 then begin
      let now = Sim.Multi.now_us m in
      let hit =
        Hashtbl.fold
          (fun _ (fl : flight) acc ->
            if
              List.exists
                (fun mb ->
                  match member_deadline mb with
                  | Some d -> d <= now
                  | None -> false)
                fl.f_members
            then fl :: acc
            else acc)
          inflight []
        |> List.sort (fun (f1 : flight) f2 ->
               compare f1.f_stream.Sim.Multi.st_id f2.f_stream.Sim.Multi.st_id)
      in
      List.iter
        (fun (fl : flight) ->
          let st = fl.f_stream in
          let live, expired =
            List.partition
              (fun mb ->
                match member_deadline mb with
                | Some d -> d > now
                | None -> true)
              fl.f_members
          in
          fl.f_members <- live;
          if live = [] then begin
            Sim.Multi.cancel m st;
            Hashtbl.remove inflight st.Sim.Multi.st_id;
            free_slots := insert_sorted fl.f_slot !free_slots
          end;
          List.iter
            (fun ((j : job), attempt) ->
              record_abort j fl.f_art fl.f_slot fl.f_disp attempt st Deadline;
              diag
                (Diag.warning ~subject:fl.f_art.art_model Diag.Serve
                   (Fmt.str
                      "request %d timed out at %.1f us (attempt %d cancelled)"
                      j.jb_req.Workload.rq_id now attempt)))
            expired)
        hit
    end
  in
  let pick () =
    match cfg.policy with
    | Fifo -> List.hd !queue
    | Sel ->
        (* shortest expected latency, phase-aware: a decode step's estimate
           is its position bucket's solo latency *)
        List.fold_left
          (fun ((best : job), _ as b) ((j : job), _ as c) ->
            if (art_for j).art_solo_us < (art_for best).art_solo_us then c
            else b)
          (List.hd !queue) (List.tl !queue)
  in
  (* largest power-of-two bucket <= [want] with a batched artifact; 1 (the
     mandatory base artifact) is always reachable by halving *)
  let bucket_for (model : string) (want : int) : int =
    let rec pow2_floor b = if b * 2 <= want then pow2_floor (b * 2) else b in
    let rec fit b =
      if b <= 1 then 1
      else if art_at model b <> None then b
      else fit (b / 2)
    in
    fit (pow2_floor 1)
  in
  let dispatch () =
    while !queue <> [] && !free_slots <> [] do
      let lead, attempt = pick () in
      let rq = lead.jb_req in
      queue :=
        List.filter
          (fun ((j : job), _) ->
            j.jb_req.Workload.rq_id <> rq.Workload.rq_id)
          !queue;
      (* coalesce: first-attempt one-shot peers of the same model join the
         lead's stream, up to the largest artifact-backed power-of-two
         bucket.  Retries never re-batch — a poisoned request fails alone —
         and prefill/decode phases never coalesce: decode steps are tiny
         latency-critical kernels served solo. *)
      let members =
        if cfg.max_batch < 2 || attempt > 0 || lead.jb_phase <> Single then
          [ (lead, attempt) ]
        else begin
          let peers =
            List.filter
              (fun ((j : job), a) ->
                a = 0 && j.jb_phase = Single
                && String.lowercase_ascii j.jb_req.Workload.rq_model
                   = String.lowercase_ascii rq.Workload.rq_model)
              !queue
          in
          let bucket =
            bucket_for rq.Workload.rq_model
              (min (1 + List.length peers) cfg.max_batch)
          in
          let joined = List.filteri (fun i _ -> i < bucket - 1) peers in
          let joined_ids =
            List.map
              (fun ((j : job), _) -> j.jb_req.Workload.rq_id)
              joined
          in
          queue :=
            List.filter
              (fun ((j : job), _) ->
                not (List.mem j.jb_req.Workload.rq_id joined_ids))
              !queue;
          (lead, attempt) :: joined
        end
      in
      let nmembers = List.length members in
      let slot = List.hd !free_slots in
      free_slots := List.tl !free_slots;
      let art =
        if nmembers = 1 then art_for lead
        else Option.get (art_at rq.Workload.rq_model nmembers)
      in
      let faults =
        match cfg.chaos with
        | None -> []
        | Some c ->
            Faultinject.chaos_plan c ~rq_id:(chaos_id lead) ~attempt
              ~stages:(stages_of art)
      in
      let label =
        match lead.jb_phase with
        | Single when nmembers = 1 ->
            Fmt.str "%s#%d" art.art_model rq.Workload.rq_id
        | Single -> Fmt.str "%s x%d#%d" art.art_model nmembers rq.Workload.rq_id
        | Prefill -> Fmt.str "%s@p#%d" art.art_model rq.Workload.rq_id
        | Decode t -> Fmt.str "%s@d%d#%d" art.art_model t rq.Workload.rq_id
      in
      let st =
        Sim.Multi.launch m ~label ~members:nmembers ~faults art.art_profiles
      in
      Hashtbl.replace inflight st.Sim.Multi.st_id
        {
          f_members = members;
          f_art = art;
          f_slot = slot;
          f_disp = Sim.Multi.now_us m;
          f_stream = st;
        }
    done
  in
  let on_stream_end (st : Sim.Multi.stream) =
    let fl = Hashtbl.find inflight st.Sim.Multi.st_id in
    let art = fl.f_art in
    Hashtbl.remove inflight st.Sim.Multi.st_id;
    free_slots := insert_sorted fl.f_slot !free_slots;
    match st.Sim.Multi.st_outcome with
    | Sim.Multi.Finished ->
        (* every surviving member completes at the stream boundary: shared
           finish instant, the stream's service and traffic split evenly,
           each request's own arrival/deadline/retry history intact *)
        let n = st.Sim.Multi.st_members in
        let share = float_of_int n in
        let finish = Option.get st.Sim.Multi.st_finish_us in
        List.iter
          (fun ((j : job), attempt) ->
            let rq = j.jb_req in
            completed :=
              {
                c_req = rq;
                c_model = art.art_model;
                c_stream = st.Sim.Multi.st_id;
                c_slot = fl.f_slot;
                c_dispatch_us = fl.f_disp;
                c_finish_us = finish;
                c_service_us =
                  (if n = 1 then st.Sim.Multi.st_service_us
                   else st.Sim.Multi.st_service_us /. share);
                c_solo_us = (art_for j).art_solo_us;
                c_bytes =
                  Counters.global_transfer_bytes art.art_counters / n;
                c_slices = Sim.Multi.kernel_slices st;
                c_retries = attempt;
                c_deadline_us = deadline_of_req rq;
                c_batch = n;
                c_mega = art.art_mega;
                c_elided = art.art_elided;
                c_phase = j.jb_phase;
                c_issue_us = j.jb_issue_us;
              }
              :: !completed;
            (* a finished phase issues the next one: prefill hands off to
               decode step 1, decode step t to t+1, at the finish instant
               (the carried KV state is the new job's position).  Follow-on
               jobs skip re-admission: the request was admitted once. *)
            let next_phase =
              match j.jb_phase with
              | Prefill when rq.Workload.rq_gen > 0 -> Some (Decode 1)
              | Decode t when t < rq.Workload.rq_gen -> Some (Decode (t + 1))
              | _ -> None
            in
            match next_phase with
            | None -> ()
            | Some p ->
                queue :=
                  !queue
                  @ [ ({ jb_req = rq; jb_phase = p; jb_issue_us = finish }, 0) ])
          fl.f_members
    | Sim.Multi.Faulted ->
        (* members retry individually (never re-batched): one poisoned
           request must not drag its neighbours down again *)
        List.iter
          (fun ((j : job), attempt) ->
            record_abort j art fl.f_slot fl.f_disp attempt st Fault;
            retry_or_fail j attempt)
          fl.f_members
    | Sim.Multi.Cancelled ->
        (* cancellations are recorded where they are issued *)
        ()
  in
  (* a stream hung forever with no deadline to cancel it: cancel here and
     treat it like a fault (the retry re-rolls its fate) *)
  let on_stall (ss : Sim.Multi.stream list) =
    let ss =
      List.sort
        (fun (a : Sim.Multi.stream) b -> compare a.Sim.Multi.st_id b.Sim.Multi.st_id)
        ss
    in
    List.iter
      (fun (st : Sim.Multi.stream) ->
        match Hashtbl.find_opt inflight st.Sim.Multi.st_id with
        | None -> Sim.Multi.cancel m st
        | Some fl ->
            Sim.Multi.cancel m st;
            Hashtbl.remove inflight st.Sim.Multi.st_id;
            free_slots := insert_sorted fl.f_slot !free_slots;
            List.iter
              (fun ((j : job), attempt) ->
                record_abort j fl.f_art fl.f_slot fl.f_disp attempt st Hung;
                diag
                  (Diag.warning ~subject:fl.f_art.art_model Diag.Serve
                     (Fmt.str
                        "request %d attempt %d hung indefinitely; cancelled"
                        j.jb_req.Workload.rq_id attempt));
                retry_or_fail j attempt)
              fl.f_members)
      ss
  in
  let rec loop () =
    absorb ();
    expire_queue ();
    dispatch ();
    if
      Hashtbl.length inflight = 0
      && !queue = [] && !upcoming = [] && !retry_at = []
    then ()
    else begin
      let until =
        let a =
          match !upcoming with
          | [] -> infinity
          | (r : Workload.request) :: _ -> r.Workload.rq_arrival_us
        in
        let d =
          if deadlines_possible then
            Hashtbl.fold
              (fun _ (fl : flight) acc ->
                List.fold_left
                  (fun acc mb ->
                    match member_deadline mb with
                    | Some dd -> Float.min acc dd
                    | None -> acc)
                  acc fl.f_members)
              inflight infinity
          else infinity
        in
        let rt =
          match !retry_at with [] -> infinity | (t, _, _) :: _ -> t
        in
        Float.min a (Float.min d rt)
      in
      match Sim.Multi.advance m ~until with
      | `Reached ->
          expire_inflight ();
          loop ()
      | `Idle -> () (* unreachable: nothing active implies nothing pending *)
      | `Stalled ss ->
          on_stall ss;
          loop ()
      | `Completed ss ->
          List.iter on_stream_end ss;
          expire_inflight ();
          loop ()
    end
  in
  loop ();
  {
    o_policy = cfg.policy;
    o_max_streams = cfg.max_streams;
    o_completed = List.rev !completed;
    o_aborted = List.rev !aborted;
    o_dropped = List.rev !dropped;
    o_failed = List.rev !failed;
    o_diags = List.rev !diags;
    o_samples = Sim.Multi.samples m;
    o_makespan_us = Sim.Multi.now_us m;
  }
