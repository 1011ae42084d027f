(** Analytical GPU simulator.

    Executes a {!Kernel_ir.prog} against a {!Device.t} with a throughput
    model: DRAM / L2 / shared-memory traffic and the FMA / tensor-core / SFU
    pipelines each contribute time, stages overlap memory and compute
    according to whether §6.5 pipelining was applied, kernel launches and
    grid synchronizations cost fixed latencies, and every quantity is
    recorded in Nsight-style {!Counters}.

    Each stage is evaluated exactly once ({!eval_kernel}); that one pass
    yields both the counters and the replay profile the multi-stream
    engine {!Multi} executes.  A mega-kernel task graph ({!run_mega}) is
    dependency-gated tasks sharing one device, so it runs on a private
    {!Multi} engine rather than on an engine of its own. *)

(** One stage of a kernel as the multi-stream scheduler sees it: its solo
    execution time (exactly what {!run_stage} computes for a lone program)
    plus its standing resource claims — how many SMs its resident blocks
    occupy and what fraction of peak DRAM bandwidth it consumes when it has
    the device to itself. *)
type stage_profile = {
  sp_label : string;
  sp_us : float;       (** solo stage time, grid syncs included *)
  sp_demand : int;     (** SMs occupied by the resident grid *)
  sp_bw_frac : float;  (** solo DRAM bandwidth as a fraction of device peak *)
  sp_mem_frac : float; (** fraction of [sp_us] attributable to DRAM traffic *)
}

type kernel_profile = {
  kp_name : string;
  kp_launch_us : float;
  kp_cooperative : bool;  (** grid-synchronizing: whole grid stays resident *)
  kp_stages : stage_profile list;
  kp_solo_us : float;     (** launch + stages: the kernel's [kcounters.time_us] *)
}

type kernel_result = {
  kernel : Kernel_ir.kernel;
  kcounters : Counters.t;
  compute_us : float;  (** time spent in stages that use the MMA/FMA pipes heavily *)
  memory_us : float;   (** time spent in memory-bound stages *)
}

type result = {
  device : Device.t;
  per_kernel : kernel_result list;
  total : Counters.t;
  total_compute_us : float;
  total_memory_us : float;
  profiles : kernel_profile list;
      (** what {!Multi} replays: one profile per kernel, or the single
          persistent kernel of a task graph.  An uncontended stream over
          them finishes at exactly [total.time_us]. *)
}

(* Shared memory streams at roughly 10x the DRAM rate on A100. *)
let smem_bw_gbps (dev : Device.t) = dev.Device.dram_bw_gbps *. 10.

(* Minimal wall time of one stage: instruction issue, barriers, tail
   effects.  Scaled by wave count so oversubscribed grids pay their
   serialization. *)
let stage_floor_us = 0.30

(* Everything one stage evaluation produces beyond its counters: the solo
   time, whether compute or memory dominated, and the DRAM-facing pieces the
   multi-stream contention model needs (bytes on the bus, time attributable
   to the bus). *)
type stage_eval = {
  se_us : float;
  se_kind : [ `Compute | `Memory ];
  se_dram_bytes : int;  (** global read + write + atomic traffic *)
  se_dram_us : float;   (** portion of [se_us]'s body limited by DRAM *)
}

let run_stage (dev : Device.t) ~(waves : int) ~(kernel_grid : int)
    ~(library_call : bool) (s : Kernel_ir.stage) (c : Counters.t) :
    stage_eval =
  (* Under-occupancy: a stage whose grid leaves SMs idle cannot reach peak
     arithmetic throughput (one block per SM minimum) nor full DRAM
     bandwidth (memory parallelism saturates at roughly a quarter of the
     SMs).  This is what makes a 4-block branch-conv kernel slow no matter
     how efficient its inner loop is. *)
  let grid = if s.Kernel_ir.sgrid > 0 then s.Kernel_ir.sgrid else kernel_grid in
  let sms = float_of_int dev.Device.num_sms in
  (* vendor libraries pick their own parallelization (split-K, batched
     kernels) and are not bound by our tile-derived grid *)
  let util_c =
    if library_call then 1.
    else Float.min 1. (float_of_int (max 1 grid) /. sms)
  in
  let util_m =
    if library_call then 1.
    else Float.min 1. (4. *. float_of_int (max 1 grid) /. sms)
  in
  let ldg = ref 0 and ldl2 = ref 0 and lds = ref 0 and stg = ref 0 in
  let mma = ref 0 and fma = ref 0 and sfu = ref 0 and atomic = ref 0 in
  let syncs = ref 0 and bsyncs = ref 0 in
  List.iter
    (function
      | Kernel_ir.Ldg { bytes; _ } -> ldg := !ldg + bytes
      | Kernel_ir.Ldl2 { bytes; _ } -> ldl2 := !ldl2 + bytes
      | Kernel_ir.Lds { bytes; _ } -> lds := !lds + bytes
      | Kernel_ir.Stg { bytes; _ } -> stg := !stg + bytes
      | Kernel_ir.Mma { flops } -> mma := !mma + flops
      | Kernel_ir.Fma { flops } -> fma := !fma + flops
      | Kernel_ir.Sfu { ops } -> sfu := !sfu + ops
      | Kernel_ir.Atomic_add { bytes; _ } -> atomic := !atomic + bytes
      | Kernel_ir.Grid_sync -> incr syncs
      | Kernel_ir.Block_sync -> incr bsyncs)
    s.Kernel_ir.instrs;
  (* traffic times in microseconds: X GB/s = X * 1e3 bytes/us *)
  let dram_rate = dev.Device.dram_bw_gbps *. s.Kernel_ir.mem_eff *. util_m *. 1e3 in
  let dram_us = float_of_int (!ldg + !stg) /. dram_rate in
  let atomic_us =
    float_of_int !atomic /. (dram_rate *. dev.Device.atomic_bw_factor)
  in
  let l2_us = float_of_int !ldl2 /. (dev.Device.l2_bw_gbps *. util_m *. 1e3) in
  let smem_us = float_of_int !lds /. (smem_bw_gbps dev *. 1e3) in
  let mem_us = dram_us +. atomic_us +. l2_us +. smem_us in
  (* pipeline times: X TFLOPS = X * 1e6 flops/us *)
  let eff = s.Kernel_ir.compute_eff *. util_c in
  let mma_us = float_of_int !mma /. (dev.Device.fp16_tc_tflops *. eff *. 1e6) in
  let fma_us = float_of_int !fma /. (dev.Device.fp32_tflops *. eff *. 1e6) in
  let sfu_us = float_of_int !sfu /. (dev.Device.sfu_gops *. eff *. 1e3) in
  let comp_us = mma_us +. fma_us +. sfu_us in
  let overlap =
    if s.Kernel_ir.pipelined then dev.Device.overlap_pipelined
    else dev.Device.overlap_default
  in
  let body_us =
    Float.max mem_us comp_us +. ((1. -. overlap) *. Float.min mem_us comp_us)
  in
  let sync_us =
    (float_of_int !syncs *. dev.Device.grid_sync_us)
    +. (float_of_int !bsyncs *. 0.05)
  in
  let floor = stage_floor_us *. float_of_int (max 1 waves) in
  let stage_us = Float.max body_us floor +. sync_us in
  (* record counters *)
  c.Counters.dram_read_bytes <- c.Counters.dram_read_bytes + !ldg;
  c.Counters.dram_write_bytes <- c.Counters.dram_write_bytes + !stg;
  c.Counters.l2_read_bytes <- c.Counters.l2_read_bytes + !ldl2;
  c.Counters.smem_read_bytes <- c.Counters.smem_read_bytes + !lds;
  c.Counters.atomic_bytes <- c.Counters.atomic_bytes + !atomic;
  c.Counters.mma_flops <- c.Counters.mma_flops + !mma;
  c.Counters.fma_flops <- c.Counters.fma_flops + !fma;
  c.Counters.sfu_ops <- c.Counters.sfu_ops + !sfu;
  c.Counters.grid_syncs <- c.Counters.grid_syncs + !syncs;
  c.Counters.time_us <- c.Counters.time_us +. stage_us;
  (* LSU issue-slot busy time: every load/store instruction occupies the
     pipeline regardless of where it hits; 8 TB/s of issue capacity *)
  let lsu_bytes = !ldg + !stg + !ldl2 + !lds + !atomic in
  c.Counters.lsu_busy_us <-
    c.Counters.lsu_busy_us +. (float_of_int lsu_bytes /. 8.0e6);
  c.Counters.fma_busy_us <- c.Counters.fma_busy_us +. fma_us +. sfu_us;
  c.Counters.mma_busy_us <- c.Counters.mma_busy_us +. mma_us;
  let kind = if mma_us +. fma_us > mem_us then `Compute else `Memory in
  {
    se_us = stage_us;
    se_kind = kind;
    se_dram_bytes = !ldg + !stg + !atomic;
    se_dram_us = dram_us +. atomic_us;
  }

(** Evaluate every stage of [k] once, accumulating its counters and its
    replay profile together.  [~launch:false] drops the launch charge: a
    mega-kernel task runs inside an already-launched persistent kernel. *)
let eval_kernel (dev : Device.t) ~launch (k : Kernel_ir.kernel) :
    kernel_result * kernel_profile =
  let launch_us = if launch then dev.Device.kernel_launch_us else 0. in
  let c = Counters.create () in
  if launch then begin
    c.Counters.kernel_launches <- 1;
    c.Counters.launch_us <- launch_us
  end;
  c.Counters.time_us <- launch_us;
  let u = Kernel_ir.usage k in
  let grid = k.Kernel_ir.grid_blocks in
  let waves = Occupancy.waves dev u ~grid_blocks:grid in
  let bps = Occupancy.blocks_per_sm dev u in
  (* SMs hosting the kernel's resident blocks: a grid larger than one wave
     keeps the whole device busy cycling waves; a small grid (or a
     cooperative launch, whose entire grid must stay resident between
     grid.syncs) pins down only the SMs it actually needs.  Vendor library
     calls pick their own device-wide parallelization. *)
  let demand =
    if k.Kernel_ir.library_call || bps <= 0 then dev.Device.num_sms
    else min dev.Device.num_sms ((max 1 grid + bps - 1) / bps)
  in
  let compute_us = ref 0. and memory_us = ref 0. in
  let stages =
    List.map
      (fun (s : Kernel_ir.stage) ->
        let ev =
          run_stage dev ~waves ~kernel_grid:grid
            ~library_call:k.Kernel_ir.library_call s c
        in
        (match ev.se_kind with
        | `Compute -> compute_us := !compute_us +. ev.se_us
        | `Memory -> memory_us := !memory_us +. ev.se_us);
        {
          sp_label = s.Kernel_ir.label;
          sp_us = ev.se_us;
          sp_demand = demand;
          sp_bw_frac =
            (if ev.se_us <= 0. then 0.
             else
               float_of_int ev.se_dram_bytes
               /. (dev.Device.dram_bw_gbps *. 1e3 *. ev.se_us));
          sp_mem_frac =
            (if ev.se_us <= 0. then 0.
             else Float.min 1. (ev.se_dram_us /. ev.se_us));
        })
      k.Kernel_ir.stages
  in
  ( { kernel = k; kcounters = c; compute_us = !compute_us; memory_us = !memory_us },
    {
      kp_name = k.Kernel_ir.kname;
      kp_launch_us = launch_us;
      kp_cooperative = Kernel_ir.num_grid_syncs k > 0;
      kp_stages = stages;
      kp_solo_us = c.Counters.time_us;
    } )

(** A kernel that grid-synchronizes must fit in one wave (cooperative
    launch); returns the offending kernels. *)
let validate_prog (dev : Device.t) (p : Kernel_ir.prog) :
    (unit, string) Stdlib.result =
  let bad =
    List.filter
      (fun k ->
        Kernel_ir.num_grid_syncs k > 0
        && k.Kernel_ir.grid_blocks
           > Occupancy.max_blocks_per_wave dev (Kernel_ir.usage k))
      p.Kernel_ir.kernels
  in
  if bad = [] then Ok ()
  else
    Error
      (Fmt.str "cooperative kernels exceed one wave: %s"
         (String.concat ", "
            (List.map (fun k -> k.Kernel_ir.kname) bad)))

let summarize (dev : Device.t) per_kernel profiles : result =
  let total = Counters.create () in
  List.iter (fun r -> Counters.add ~into:total r.kcounters) per_kernel;
  {
    device = dev;
    per_kernel;
    total;
    total_compute_us = List.fold_left (fun a r -> a +. r.compute_us) 0. per_kernel;
    total_memory_us = List.fold_left (fun a r -> a +. r.memory_us) 0. per_kernel;
    profiles;
  }

let run (dev : Device.t) (p : Kernel_ir.prog) : result =
  Obs.span ~meta:[ ("prog", p.Kernel_ir.pname) ] "simulate" @@ fun () ->
  let evals =
    List.map
      (fun (k : Kernel_ir.kernel) ->
        Obs.span ~meta:[ ("kernel", k.Kernel_ir.kname) ] "sim-kernel"
          (fun () -> eval_kernel dev ~launch:true k))
      p.Kernel_ir.kernels
  in
  summarize dev (List.map fst evals) (List.map snd evals)

let time_ms (r : result) = r.total.Counters.time_us /. 1000.

(** {!run} as a total function: fault-injection aware, exceptions converted
    to a typed diagnostic. *)
let run_result (dev : Device.t) (p : Kernel_ir.prog) :
    (result, Diag.t) Stdlib.result =
  Diag.guard ~subject:p.Kernel_ir.pname Diag.Simulate (fun () ->
      Faultinject.trip ~subject:p.Kernel_ir.pname Diag.Simulate;
      run dev p)

(* ------------------------------------------------------------------ *)
(* Multi-stream execution: time-sharing the device between programs    *)
(* ------------------------------------------------------------------ *)

(** Event-driven multi-stream scheduler.  A stream is one compiled
    program's kernel launch queue; the engine advances every active stream
    from event to event (kernel launched, stage finished, kernel retired),
    stretching each resident stage by the contention of the moment:

    - SM pressure: with [D = Σ demand] SMs asked for by resident kernels,
      every stage runs [max 1 (D / num_sms)] times slower — time-sliced
      proportional sharing, which also models two cooperative kernels
      gang-scheduled past each other.
    - DRAM pressure: with [B = Σ bw_frac] of peak bandwidth demanded solo,
      the residual demand after SM time-slicing is [B / sm_slow]; the
      memory-bound fraction of each stage stretches by [max 1 (B / sm_slow)].

    A stage's remaining work is tracked in solo-microseconds and only
    re-segmented when its stretch actually changes, so an uncontended
    stream accumulates exactly its solo per-stage floats: one stream over
    a {!result}'s [profiles] reproduces its [total.time_us] bit for bit.
    The same engine drives {!run_mega}, one stream per task.  Cooperative
    kernels never yield SMs mid-kernel (their grid stays resident), which
    makes them barriers on their own stream only — other streams keep
    executing against them. *)
module Multi = struct
  (* one constant-stretch segment of the current launch/stage phase *)
  type seg = {
    mutable g_left : float;     (* solo-us remaining at segment start *)
    mutable g_stretch : float;
    mutable g_start : float;    (* absolute time the segment started *)
    mutable g_deadline : float; (* g_start + g_left * g_stretch *)
    mutable g_acc : float;      (* actual us spent in earlier segments *)
  }

  let mkseg ~now ~left =
    {
      g_left = left;
      g_stretch = 1.0;
      g_start = now;
      g_deadline = now +. left;
      g_acc = 0.;
    }

  (* actual wall time of the whole phase, evaluated at its deadline *)
  let seg_total g = g.g_acc +. (g.g_left *. g.g_stretch)

  type phase =
    | Launching of { prof : kernel_profile; seg : seg }
    | Executing of {
        prof : kernel_profile;
        mutable todo : stage_profile list;  (* head = current stage *)
        seg : seg;
      }
    | Drained

  (** How a stream reached its terminal state: ran its whole queue
      ([Finished]), was struck by an armed {!Faultinject.Kernel_fault}
      ([Faulted]), or was cancelled from outside — a serving watchdog
      killing a stream past its deadline ([Cancelled]). *)
  type stream_outcome = Finished | Faulted | Cancelled

  let outcome_to_string = function
    | Finished -> "finished"
    | Faulted -> "faulted"
    | Cancelled -> "cancelled"

  type stream = {
    st_id : int;
    st_label : string;
    st_members : int;
        (* serving requests batched into this stream; 1 unless the serving
           layer coalesced a bucket — pure attribution, no effect on timing *)
    st_start_us : float;
    st_faults : Faultinject.runtime_fault list;  (* armed runtime faults *)
    mutable st_queue : kernel_profile list;
    mutable st_phase : phase;
    mutable st_kidx : int;        (* 0-based index of the current kernel *)
    mutable st_sidx : int;        (* 0-based index of the current stage *)
    mutable st_kelapsed : float;  (* wall us inside the current kernel *)
    mutable st_kstart : float;
    mutable st_service_us : float;
    mutable st_slices : (string * float * float) list;  (* reverse order *)
    mutable st_finish_us : float option;
    mutable st_outcome : stream_outcome;  (* meaningful once finished *)
  }

  (* armed hang for the stream's (kernel, stage) site, if any *)
  let hang_at (s : stream) ~kernel ~stage : float option =
    let rec go = function
      | [] -> None
      | Faultinject.Kernel_hang { kernel = k; stage = st; factor } :: _
        when k = kernel && st = stage ->
          Some factor
      | _ :: rest -> go rest
    in
    if s.st_faults = [] then None else go s.st_faults

  let fault_at (s : stream) ~kernel ~stage : bool =
    s.st_faults <> []
    && List.exists
         (function
           | Faultinject.Kernel_fault { kernel = k; stage = st } ->
               k = kernel && st = stage
           | _ -> false)
         s.st_faults

  (* solo-us a stage will take on this stream once armed hangs are applied *)
  let stage_left (s : stream) ~stage (sp : stage_profile) : float =
    match hang_at s ~kernel:s.st_kidx ~stage with
    | Some f -> sp.sp_us *. f
    | None -> sp.sp_us

  (** One slice of the occupancy timeline: between two scheduler events,
      [sa_resident] streams had a kernel on the device asking for
      [sa_sm_demand] SMs and [sa_bw_demand] of peak DRAM bandwidth. *)
  type sample = {
    sa_start_us : float;
    sa_dur_us : float;
    sa_resident : int;
    sa_requests : int;
        (** serving requests inside the resident streams ([st_members]
            summed); equals [sa_resident] when nothing is batched *)
    sa_sm_demand : int;
    sa_bw_demand : float;
  }

  (** One device-throttle window: between [w_start] and [w_end] the device
      retains only [w_cap] of its SM and DRAM capacity (a partial outage —
      thermal throttling, a sibling tenant, a failing HBM stack). *)
  type window = { w_start : float; w_end : float; w_cap : float }

  type t = {
    mdev : Device.t;
    mutable mnow : float;
    mutable mnext : int;
    mutable mstreams : stream list;  (* reverse launch order *)
    mutable msamples : sample list;  (* reverse time order *)
    mutable mwindows : window list;  (* device-throttle windows *)
  }

  let create (dev : Device.t) : t =
    {
      mdev = dev;
      mnow = 0.;
      mnext = 0;
      mstreams = [];
      msamples = [];
      mwindows = [];
    }

  (** Arm a capacity cut: from [start_us] for [dur_us], the device keeps
      only [capacity] (0 < c <= 1) of its SMs and DRAM bandwidth. *)
  let throttle t ~start_us ~dur_us ~capacity =
    if capacity <= 0. || capacity > 1. then
      invalid_arg "Sim.Multi.throttle: capacity must be in (0, 1]";
    if dur_us <= 0. then invalid_arg "Sim.Multi.throttle: dur_us must be > 0";
    t.mwindows <-
      t.mwindows @ [ { w_start = start_us; w_end = start_us +. dur_us; w_cap = capacity } ]

  (* effective capacity fraction at [now]; overlapping windows compound to
     the most restrictive *)
  let capacity_at t now =
    List.fold_left
      (fun c w -> if now >= w.w_start && now < w.w_end then Float.min c w.w_cap else c)
      1. t.mwindows

  (* earliest window boundary strictly after [now]: capacity changes are
     scheduler events of their own *)
  let next_window_boundary t now =
    List.fold_left
      (fun a w ->
        let a = if w.w_start > now then Float.min a w.w_start else a in
        if w.w_end > now then Float.min a w.w_end else a)
      infinity t.mwindows

  let now_us t = t.mnow
  let streams t = List.rev t.mstreams
  let samples t = List.rev t.msamples
  let kernel_slices (s : stream) = List.rev s.st_slices

  let active t = List.filter (fun s -> s.st_finish_us = None) (streams t)

  let current_stage (s : stream) : stage_profile option =
    match s.st_phase with
    | Executing { todo = sp :: _; _ } -> Some sp
    | _ -> None

  (* standing claims of every resident (executing) kernel *)
  let demands (ss : stream list) : int * float =
    List.fold_left
      (fun (d, b) s ->
        match current_stage s with
        | Some sp -> (d + sp.sp_demand, b +. sp.sp_bw_frac)
        | None -> (d, b))
      (0, 0.) ss

  let deadline_of (s : stream) : float =
    match s.st_phase with
    | Launching { seg; _ } | Executing { seg; _ } -> seg.g_deadline
    | Drained -> infinity

  (* fold the segment's progress up to [now], then continue at [stretch];
     a no-op when the stretch is unchanged, so uncontended phases keep
     their exact solo floats *)
  let reseg ~now (g : seg) ~stretch =
    if stretch <> g.g_stretch then begin
      let ran = now -. g.g_start in
      g.g_acc <- g.g_acc +. ran;
      g.g_left <- Float.max 0. (g.g_left -. (ran /. g.g_stretch));
      g.g_stretch <- stretch;
      g.g_start <- now;
      g.g_deadline <- now +. (g.g_left *. stretch)
    end

  (* recompute every executing stream's stretch from the resident set *)
  let restretch t =
    let ss = active t in
    let d, b = demands ss in
    let sms = float_of_int t.mdev.Device.num_sms in
    (* a stream already time-sliced [sm_slow]x issues its memory traffic
       that much slower, so DRAM pressure is the *residual* demand after
       SM sharing — compounding the solo demands would double-count and
       make the device non-work-conserving (N identical streams slower
       than serial).  An active throttle window scales both capacities
       (outside every window the capacity is exactly [1.]). *)
    let cap = capacity_at t t.mnow in
    let sm_slow = Float.max 1. (float_of_int d /. (sms *. cap)) in
    let bw_over = Float.max 1. (b /. (sm_slow *. cap)) in
    List.iter
      (fun s ->
        match s.st_phase with
        | Executing ({ todo = sp :: _; _ } as e) ->
            reseg ~now:t.mnow e.seg
              ~stretch:(sm_slow *. (1. +. (sp.sp_mem_frac *. (bw_over -. 1.))))
        | _ -> ())
      ss

  let next_kernel t (s : stream) =
    match s.st_queue with
    | [] ->
        s.st_phase <- Drained;
        (* dispatch + on-device time, not the engine clock: the global
           clock is a flat running sum whose float association differs
           from {!run}'s per-kernel grouping, while
           [st_service_us] accumulates in exactly that grouping — this
           keeps an uncontended stream's finish bit-identical to solo *)
        s.st_finish_us <- Some (s.st_start_us +. s.st_service_us)
    | kp :: rest ->
        s.st_queue <- rest;
        s.st_kidx <- s.st_kidx + 1;
        s.st_kelapsed <- 0.;
        s.st_kstart <- t.mnow;
        s.st_phase <-
          Launching { prof = kp; seg = mkseg ~now:t.mnow ~left:kp.kp_launch_us }

  let retire_kernel t (s : stream) (prof : kernel_profile) =
    s.st_slices <- (prof.kp_name, s.st_kstart, t.mnow) :: s.st_slices;
    s.st_service_us <- s.st_service_us +. s.st_kelapsed;
    next_kernel t s

  (* an armed Kernel_fault struck: the kernel's work so far is spent, the
     stream terminates Faulted at the engine clock *)
  let abort_faulted t (s : stream) (prof : kernel_profile) =
    s.st_slices <- (prof.kp_name, s.st_kstart, t.mnow) :: s.st_slices;
    s.st_service_us <- s.st_service_us +. s.st_kelapsed;
    s.st_queue <- [];
    s.st_phase <- Drained;
    s.st_outcome <- Faulted;
    s.st_finish_us <- Some t.mnow;
    Faultinject.Runtime.record_trip ~stream:s.st_id

  (* the stream's deadline was reached: cross into the next phase *)
  let cross t (s : stream) =
    match s.st_phase with
    | Launching { prof; seg } -> (
        s.st_kelapsed <- s.st_kelapsed +. seg_total seg;
        match prof.kp_stages with
        | [] -> retire_kernel t s prof
        | sp :: _ as stages ->
            s.st_sidx <- 0;
            s.st_phase <-
              Executing
                {
                  prof;
                  todo = stages;
                  seg = mkseg ~now:t.mnow ~left:(stage_left s ~stage:0 sp);
                })
    | Executing ({ prof; seg; _ } as e) -> (
        s.st_kelapsed <- s.st_kelapsed +. seg_total seg;
        if fault_at s ~kernel:s.st_kidx ~stage:s.st_sidx then
          abort_faulted t s prof
        else
          match e.todo with
          | _ :: (sp :: _ as rest) ->
              e.todo <- rest;
              s.st_sidx <- s.st_sidx + 1;
              seg.g_left <- stage_left s ~stage:s.st_sidx sp;
              seg.g_stretch <- 1.0;
              seg.g_start <- t.mnow;
              seg.g_deadline <- t.mnow +. seg.g_left;
              seg.g_acc <- 0.
          | _ -> retire_kernel t s prof)
    | Drained -> ()

  let launch t ?(label = "") ?(members = 1) ?(faults = [])
      (profs : kernel_profile list) : stream =
    if members < 1 then invalid_arg "Sim.Multi.launch: members must be >= 1";
    let s =
      {
        st_id = t.mnext;
        st_label = label;
        st_members = members;
        st_start_us = t.mnow;
        st_faults = faults;
        st_queue = profs;
        st_phase = Drained;
        st_kidx = -1;
        st_sidx = 0;
        st_kelapsed = 0.;
        st_kstart = t.mnow;
        st_service_us = 0.;
        st_slices = [];
        st_finish_us = None;
        st_outcome = Finished;
      }
    in
    t.mnext <- t.mnext + 1;
    t.mstreams <- s :: t.mstreams;
    if faults <> [] then Faultinject.Runtime.arm ~stream:s.st_id faults;
    next_kernel t s;
    s

  (** Cancel a running stream at the current engine clock (the serving
      watchdog's lever): partial work is folded into the service time and a
      partial kernel slice is recorded, the stream terminates [Cancelled],
      and the remaining streams re-stretch to the freed capacity.  A no-op
      on streams that already finished. *)
  let cancel t (s : stream) : unit =
    match s.st_phase with
    | Drained -> ()
    | Launching { prof; seg } | Executing { prof; seg; _ } ->
        let ran = Float.max 0. (t.mnow -. seg.g_start) in
        s.st_service_us <-
          s.st_service_us +. s.st_kelapsed +. seg.g_acc +. ran;
        if t.mnow > s.st_kstart then
          s.st_slices <- (prof.kp_name, s.st_kstart, t.mnow) :: s.st_slices;
        s.st_queue <- [];
        s.st_phase <- Drained;
        s.st_outcome <- Cancelled;
        s.st_finish_us <- Some t.mnow;
        restretch t

  let record_sample t (ss : stream list) ~til =
    let dt = til -. t.mnow in
    if dt > 0. then begin
      let d, b = demands ss in
      let on_device =
        List.filter (fun s -> Option.is_some (current_stage s)) ss
      in
      let requests =
        List.fold_left (fun n s -> n + s.st_members) 0 on_device
      in
      t.msamples <-
        {
          sa_start_us = t.mnow;
          sa_dur_us = dt;
          sa_resident = List.length on_device;
          sa_requests = requests;
          sa_sm_demand = d;
          sa_bw_demand = b;
        }
        :: t.msamples
    end

  (* one scheduler event: advance to the earliest phase deadline, throttle
     window boundary, or [until], whichever is first, and process every
     boundary reached *)
  let step t ~until =
    match active t with
    | [] ->
        if until = infinity then `Idle
        else begin
          if until > t.mnow then t.mnow <- until;
          `Reached
        end
    | ss ->
        let next =
          List.fold_left (fun a s -> Float.min a (deadline_of s)) infinity ss
        in
        (* a capacity change mid-stage is an event too: streams must
           re-segment at the window edge *)
        let next = Float.min next (next_window_boundary t t.mnow) in
        if next = infinity && until = infinity then
          (* every active stream is hung indefinitely (an armed
             [Kernel_hang] with factor infinity) and nothing external is
             coming: no event will ever fire.  Surface it instead of
             spinning — the caller's watchdog must cancel. *)
          `Stalled ss
        else if until < next then begin
          record_sample t ss ~til:until;
          if until > t.mnow then t.mnow <- until;
          `Reached
        end
        else begin
          record_sample t ss ~til:next;
          if next > t.mnow then t.mnow <- next;
          let crossing = List.filter (fun s -> deadline_of s <= t.mnow) ss in
          List.iter (cross t) crossing;
          restretch t;
          `Crossed (List.filter (fun s -> s.st_finish_us <> None) crossing)
        end

  (** Advance simulated time.  Returns when the first stream completes
      ([`Completed], possibly several at the same instant), when [until]
      is reached with streams still running ([`Reached]), when every
      active stream is hung indefinitely with nothing else pending
      ([`Stalled], carrying the hung streams — cancel or give up), or —
      only with [until = infinity] — when no stream is active ([`Idle]). *)
  let advance t ~until =
    let rec go () =
      if t.mnow >= until then `Reached
      else
        match step t ~until with
        | `Idle -> `Idle
        | `Reached -> `Reached
        | `Stalled ss -> `Stalled ss
        | `Crossed [] -> go ()
        | `Crossed done_ -> `Completed done_
    in
    go ()

  (** Run every launched stream to completion.  Indefinitely hung streams
      ([`Stalled]) are cancelled — drain must terminate. *)
  let rec drain t =
    match advance t ~until:infinity with
    | `Idle | `Reached -> ()
    | `Stalled ss ->
        List.iter (cancel t) ss;
        drain t
    | `Completed _ -> drain t
end

(* ------------------------------------------------------------------ *)
(* Mega-kernel execution: persistent workers draining a task graph     *)
(* ------------------------------------------------------------------ *)

(** Execute a task graph as one persistent kernel: ONE launch charge, then
    each task runs as a launch-free stream on a private {!Multi} engine,
    admitted once its last dependency retires (lowest index first within an
    instant; a task without stages retires on admission).  Every engine
    step that advances time closes one constant-concurrency segment — the
    active tasks' SM demand (capped at the device), DRAM bandwidth (capped
    at peak) and demand-weighted memory fraction — and the segments are the
    stages of the one persistent profile in [profiles].  The wall clock is
    [launch +. fold-left of segment durations], {!Multi}'s association for
    a one-kernel stream, so an uncontended serving stream over that profile
    finishes bit-identically. *)
let run_mega (dev : Device.t) (tg : Kernel_ir.taskgraph) : result =
  Obs.span ~meta:[ ("taskgraph", tg.Kernel_ir.tg_name) ] "simulate-mega"
  @@ fun () ->
  let tasks = tg.Kernel_ir.tg_tasks in
  let evals =
    Array.map (fun t -> eval_kernel dev ~launch:false t.Kernel_ir.t_kernel) tasks
  in
  let n = Array.length tasks in
  let indeg = Array.map (fun t -> List.length t.Kernel_ir.t_deps) tasks in
  let succs = Array.make n [] in
  for i = n - 1 downto 0 do
    List.iter (fun d -> succs.(d) <- i :: succs.(d)) tasks.(i).Kernel_ir.t_deps
  done;
  let eng = Multi.create dev in
  let task_of_stream = Array.make n 0 in
  let retired = ref 0 in
  (* retire task [i]; returns the successors it makes ready, ascending *)
  let retire i =
    incr retired;
    List.filter (fun j -> indeg.(j) <- indeg.(j) - 1; indeg.(j) = 0) succs.(i)
  in
  let rec admit = function
    | [] -> ()
    | i :: rest ->
        let kp = snd evals.(i) in
        if kp.kp_stages = [] then admit (List.merge compare rest (retire i))
        else begin
          let s = Multi.launch eng [ kp ] in
          task_of_stream.(s.Multi.st_id) <- i;
          admit rest
        end
  in
  admit (List.filter (fun i -> indeg.(i) = 0) (List.init n Fun.id));
  let sms = dev.Device.num_sms in
  let segs = ref [] and nseg = ref 0 in
  let rec drain () =
    match Multi.active eng with
    | [] -> ()
    | ss -> (
        let d, b = Multi.demands ss in
        let dm =
          List.fold_left
            (fun a s ->
              match Multi.current_stage s with
              | Some sp -> a +. (float_of_int sp.sp_demand *. sp.sp_mem_frac)
              | None -> a)
            0. ss
        in
        let t0 = Multi.now_us eng in
        match Multi.step eng ~until:infinity with
        | `Crossed done_ ->
            let dt = Multi.now_us eng -. t0 in
            if dt > 0. then begin
              incr nseg;
              segs :=
                {
                  sp_label = Fmt.str "seg%d" !nseg;
                  sp_us = dt;
                  sp_demand = min sms d;
                  sp_bw_frac = Float.min 1. b;
                  sp_mem_frac =
                    (if d = 0 then 0. else Float.min 1. (dm /. float_of_int d));
                }
                :: !segs
            end;
            List.concat_map
              (fun s -> retire task_of_stream.(s.Multi.st_id))
              done_
            |> List.sort compare |> admit;
            drain ()
        | `Idle | `Reached | `Stalled _ ->
            invalid_arg "Sim.run_mega: task stream stalled")
  in
  drain ();
  if !retired < n then
    invalid_arg "Sim.mega: task graph deadlocked (unsatisfiable dependencies)";
  let segs = List.rev !segs in
  let launch_us = dev.Device.kernel_launch_us in
  let r = summarize dev (Array.to_list (Array.map fst evals)) [] in
  r.total.Counters.kernel_launches <- 1;
  r.total.Counters.launch_us <- launch_us;
  r.total.Counters.time_us <-
    List.fold_left (fun a sp -> a +. sp.sp_us) launch_us segs;
  let persistent =
    { kp_name = tg.Kernel_ir.tg_name; kp_launch_us = launch_us;
      kp_cooperative = true; kp_stages = segs;
      kp_solo_us = r.total.Counters.time_us }
  in
  { r with profiles = [ persistent ] }
