(* The repository benchmark: four workloads over the compiler, the simulator
   and the serving engine, each reporting end-to-end metrics (untraced run)
   or per-layer metrics (traced run).  See README.md for the workloads, the
   metrics and the layer-to-metric map.

     dune exec perfsuite/suite.exe                        all four workloads
     dune exec perfsuite/suite.exe -- --workload serve-peak --seed 2
     dune exec perfsuite/suite.exe -- --workload gen-decode --trace 1
     dune exec perfsuite/suite.exe -- --smoke             tiny sizes, 1 rep *)

let dev = Device.a100
let now = Unix.gettimeofday

(* ---- workloads ---- *)

type traffic =
  | Compile_only
  | Oneshot of { rate_rps : float }
      (** open-loop Poisson arrivals of one-shot requests over the zoo mix *)
  | Generate of { rate_rps : float }
      (** open-loop Poisson arrivals of GPT generation requests *)

type workload = { name : string; traffic : traffic }

let workloads =
  [
    { name = "compile-zoo"; traffic = Compile_only };
    { name = "serve-nominal"; traffic = Oneshot { rate_rps = 2500. } };
    { name = "serve-peak"; traffic = Oneshot { rate_rps = 4000. } };
    { name = "gen-decode"; traffic = Generate { rate_rps = 1500. } };
  ]

(* Sizes.  Host cost of one [Scheduler.run] grows superlinearly with the
   requests it serves, so a host rate is only defined at a stated request
   count: the counts per set are fixed.  A run serves [panel_sets] sets that
   are the same in every run, whatever the seed, and [seed_sets] sets drawn
   from the seed.  The simulated metrics come from the panel alone, so they
   compare exactly between runs and commits; the drawn sets add host-time
   samples and run every check on inputs the panel does not fix. *)
type scale = {
  tiny : bool;  (** tiny model configurations *)
  requests : int;  (** one-shot requests per set *)
  gen_requests : int;  (** generation requests per set *)
  tokens : int;  (** decode steps per generation request *)
  panel_sets : int;  (** fixed request sets per run *)
  seed_sets : int;  (** request sets drawn from the seed per run *)
  min_setups : int;
  setup_budget_s : float;  (** keep setting up until this much time passed *)
  min_rounds : int;  (** compile-zoo timed rounds at least *)
}

let full =
  {
    tiny = false;
    requests = 1000;
    gen_requests = 50;
    tokens = 24;
    panel_sets = 8;
    seed_sets = 8;
    min_setups = 5;
    setup_budget_s = 1.0;
    min_rounds = 3;
  }

let smoke =
  {
    tiny = true;
    requests = 200;
    gen_requests = 20;
    tokens = 8;
    panel_sets = 1;
    seed_sets = 1;
    min_setups = 1;
    setup_budget_s = 0.;
    min_rounds = 1;
  }

(* A full major collection before every timed rep and set-up.  Not
   [Gc.compact]: OCaml 5.1 has no compaction, and with [Gc.compact] the
   major heap grew with every compile round, so peak heap depended on how
   many rounds a run fitted in. *)
let settle () = Gc.full_major ()

let max_streams = 8
let oneshot_slo_ms = 10.
let ttft_slo_ms = 1.
let gap_slo_ms = 0.25

(* the serving benchmark's traffic-weighted mix: cheap models field most
   requests, so the mix measures more than ResNeXt *)
let zoo_mix =
  List.map (fun (e : Zoo.entry) -> (e.Zoo.name, Serve_perf.mix_weight e)) Zoo.all

(* ---- compile targets ---- *)

type target = {
  t_name : string;
  t_model : string;  (** serving model name *)
  t_pos : int;  (** KV-cache bucket; 0 = static shape *)
  t_graph : unit -> Dgraph.t;
}

let gpt_cfg scale = if scale.tiny then Gpt.tiny else Gpt.base
let pos_buckets scale = if scale.tiny then Gpt.tiny_buckets else Gpt.buckets
let gen_prompt scale = List.hd (pos_buckets scale)

(* the buckets a generation walks through: step t reads gen_prompt + t - 1
   cache entries and runs on the smallest bucket holding them *)
let decode_buckets scale =
  let bs = pos_buckets scale in
  let largest = List.fold_left max 0 bs in
  List.init scale.tokens (fun t -> gen_prompt scale + t)
  |> List.map (fun c ->
         Option.value ~default:largest (List.find_opt (fun b -> b >= c) bs))
  |> List.sort_uniq compare

let targets scale w =
  match w.traffic with
  | Compile_only | Oneshot _ ->
      List.map
        (fun (e : Zoo.entry) ->
          {
            t_name = e.Zoo.name;
            t_model = e.Zoo.name;
            t_pos = 0;
            t_graph = (if scale.tiny then e.Zoo.tiny else e.Zoo.full);
          })
        Zoo.all
  | Generate _ ->
      let cfg = gpt_cfg scale in
      {
        t_name = "GPT-prefill";
        t_model = "GPT";
        t_pos = 0;
        t_graph =
          (fun () -> Gpt.create ~cfg:{ cfg with Gpt.seq = gen_prompt scale } ());
      }
      :: List.map
           (fun pos ->
             {
               t_name = Fmt.str "GPT-decode@%d" pos;
               t_model = "GPT";
               t_pos = pos;
               t_graph = (fun () -> Gpt.decode ~cfg ~pos ());
             })
           (decode_buckets scale)

(* ---- accounting and checks ---- *)

type acct = {
  mutable attempted : int;
  mutable failed : int;
  mutable failures : string list;
}

let failure a fmt =
  Fmt.kstr
    (fun m ->
      a.failures <- m :: a.failures;
      Fmt.epr "  !! %s@." m)
    fmt

let expect a ok fmt = if ok then Fmt.kstr ignore fmt else failure a fmt

(* Every compile goes through the bench harness's recorded compile, which
   fails the run on a compile error.  It must be clean of degradations and
   error or dataflow diagnostics; anything else is a failed operation. *)
let compile a ?sched_cache ?(level = Souffle.V4) (t : target) (p : Program.t) :
    Souffle.report =
  a.attempted <- a.attempted + 1;
  let r =
    Tables.compile_recorded ~name:t.t_name
      ~cfg:(Souffle.config ~level ?sched_cache ~pos:t.t_pos ())
      p
  in
  if
    r.Souffle.degraded <> []
    || List.exists
         (fun (d : Diag.t) -> Diag.is_error d || d.Diag.pass = Diag.Dataflow)
         r.Souffle.diags
  then begin
    a.failed <- a.failed + 1;
    failure a "%s compiled degraded or dataflow-dirty at %s" t.t_name
      (Souffle.level_to_string level)
  end;
  r

let artifact (t : target) (r : Souffle.report) : Scheduler.artifact =
  Scheduler.artifact_of_prog dev ~model:t.t_model ~pos:t.t_pos
    ~degraded:(List.length r.Souffle.degraded)
    r.Souffle.prog

let solo_us (r : Souffle.report) = r.Souffle.sim.Sim.total.Counters.time_us

(* the tiny zoo computes what its source program computes, per the
   reference interpreter on seeded random inputs *)
let verify_tiny a ~seed =
  List.iter
    (fun (e : Zoo.entry) ->
      let t =
        {
          t_name = e.Zoo.name ^ "-tiny";
          t_model = e.Zoo.name;
          t_pos = 0;
          t_graph = e.Zoo.tiny;
        }
      in
      let r = compile a t (Lower.run (t.t_graph ())) in
      match
        Interp.equivalent ~rtol:1e-4 ~seed r.Souffle.original
          r.Souffle.transformed
      with
      | Ok () -> ()
      | Error m -> failure a "%s fails interpreter verification: %s" t.t_name m)
    Zoo.all

(* ---- set-up ---- *)

type state = {
  programs : (target * Program.t) list;
  reports : Souffle.report list;  (** V4, from a fresh schedule cache *)
  artifacts : Scheduler.artifact list;  (** empty for compile-zoo *)
}

(* A compile round: a cold compile of every program on a fresh schedule
   cache, then a warm compile on the cache it filled.  Returns the cold
   reports and the cold and warm walls. *)
let compile_round a programs : Souffle.report list * float * float =
  let sched_cache = Scache.create () in
  let t0 = now () in
  let cold = List.map (fun (t, p) -> compile a ~sched_cache t p) programs in
  let t1 = now () in
  let warm = List.map (fun (t, p) -> compile a ~sched_cache t p) programs in
  let t2 = now () in
  List.iter2
    (fun (cr : Souffle.report) (wr : Souffle.report) ->
      expect a
        (cr.Souffle.prog = wr.Souffle.prog && cr.Souffle.sim = wr.Souffle.sim)
        "warm artifact equals cold artifact")
    cold warm;
  (cold, t1 -. t0, t2 -. t1)

(* Everything before the first timed rep: lowering, then the compiles and
   artifact builds requests depend on, or compile-zoo's warm-up round. *)
let set_up a scale w : state =
  let programs =
    List.map (fun t -> (t, Lower.run (t.t_graph ()))) (targets scale w)
  in
  match w.traffic with
  | Compile_only ->
      let reports, _, _ = compile_round a programs in
      { programs; reports; artifacts = [] }
  | Oneshot _ | Generate _ ->
      let sched_cache = Scache.create () in
      let reports =
        List.map (fun (t, p) -> compile a ~sched_cache t p) programs
      in
      let artifacts = List.map2 (fun (t, _) r -> artifact t r) programs reports in
      { programs; reports; artifacts }

let sims st = List.map (fun (r : Souffle.report) -> r.Souffle.sim) st.reports

(* set up several times; report the median *)
let set_ups a scale w : state * float list =
  let t_start = now () in
  let rec go n first walls =
    settle ();
    let t0 = now () in
    let st = set_up a scale w in
    let walls = (now () -. t0) :: walls in
    (match first with
    | Some f ->
        expect a (sims f = sims st) "set-up %d reproduces the first set-up" n
    | None -> ());
    let first = Some (Option.value first ~default:st) in
    if
      n + 1 >= scale.min_setups
      && (now () -. t_start >= scale.setup_budget_s || n + 1 >= 25)
    then (st, walls)
    else go (n + 1) first walls
  in
  go 0 None []

(* ---- requests ---- *)

let set_seed ~seed j = (seed lsl 16) lor j

(* the seed the panel's sets are drawn from *)
let panel_seed = 0

(* request set [j] of [seed]; [~closed:true] gives the same count as a
   closed batch, every request arriving at time zero *)
let request_set ?(closed = false) scale w ~seed j : Workload.request list =
  let rate r = if closed then 0. else r in
  match w.traffic with
  | Compile_only -> []
  | Oneshot { rate_rps } ->
      Workload.generate ~seed:(set_seed ~seed j) ~rate_rps:(rate rate_rps)
        ~requests:scale.requests zoo_mix
  | Generate { rate_rps } ->
      Workload.generate ~seed:(set_seed ~seed j) ~rate_rps:(rate rate_rps)
        ~requests:scale.gen_requests ~gen:scale.tokens
        [ ("GPT", 1.) ]

let panel scale w = List.init scale.panel_sets (request_set scale w ~seed:panel_seed)

let gen_prompt_of scale w =
  match w.traffic with Generate _ -> gen_prompt scale | _ -> 0

let sched_cfg ?(streams = max_streams) scale w =
  Scheduler.cfg ~policy:Scheduler.Fifo ~max_streams:streams
    ~gen_prompt:(gen_prompt_of scale w) ()

let by_request (o : Scheduler.outcome) :
    (int, Scheduler.completed list) Hashtbl.t =
  let h = Hashtbl.create 256 in
  List.iter
    (fun (c : Scheduler.completed) ->
      let id = c.Scheduler.c_req.Workload.rq_id in
      Hashtbl.replace h id
        (c :: Option.value ~default:[] (Hashtbl.find_opt h id)))
    o.Scheduler.o_completed;
  h

(* What clients see: the latency of every output (a one-shot response; a
   generation's first token, then each gap to the next token) and how many
   requests met their SLO.  A request that did not complete misses. *)
type seen = { outputs_ms : float list; met : int; requests : int }

let seen_of (reqs : Workload.request list) (o : Scheduler.outcome) : seen =
  let h = by_request o in
  let outputs = ref [] and met = ref 0 in
  List.iter
    (fun (rq : Workload.request) ->
      let cs = Option.value ~default:[] (Hashtbl.find_opt h rq.Workload.rq_id) in
      if rq.Workload.rq_gen = 0 then
        List.iter
          (fun c ->
            let ms = Scheduler.latency_us c /. 1e3 in
            outputs := ms :: !outputs;
            if ms <= oneshot_slo_ms then incr met)
          cs
      else begin
        let ttft =
          List.filter_map
            (fun (c : Scheduler.completed) ->
              if c.Scheduler.c_phase = Scheduler.Prefill then
                Some (Scheduler.latency_us c /. 1e3)
              else None)
            cs
        and gaps =
          List.filter_map
            (fun (c : Scheduler.completed) ->
              match c.Scheduler.c_phase with
              | Scheduler.Decode _ -> Some (Scheduler.phase_latency_us c /. 1e3)
              | _ -> None)
            cs
        in
        outputs := ttft @ gaps @ !outputs;
        if
          List.length ttft = 1
          && List.length gaps = rq.Workload.rq_gen
          && List.for_all (fun x -> x <= ttft_slo_ms) ttft
          && List.for_all (fun x -> x <= gap_slo_ms) gaps
        then incr met
      end)
    reqs;
  { outputs_ms = !outputs; met = !met; requests = List.length reqs }

(* every request completes; a generation request runs one prefill and
   exactly one completion per decode step.  Returns the requests that did
   not. *)
let incomplete (reqs : Workload.request list) (o : Scheduler.outcome) : int =
  let h = by_request o in
  List.length
    (List.filter
       (fun (rq : Workload.request) ->
         let cs =
           Option.value ~default:[] (Hashtbl.find_opt h rq.Workload.rq_id)
         in
         let phases =
           List.sort compare
             (List.map (fun (c : Scheduler.completed) -> c.Scheduler.c_phase) cs)
         in
         let want =
           if rq.Workload.rq_gen = 0 then [ Scheduler.Single ]
           else
             Scheduler.Prefill
             :: List.init rq.Workload.rq_gen (fun t -> Scheduler.Decode (t + 1))
         in
         phases <> List.sort compare want)
       reqs)

(* bit-exact fingerprint of an outcome's simulated timeline *)
let digest (o : Scheduler.outcome) : string =
  let b = Buffer.create 4096 in
  List.iter
    (fun (c : Scheduler.completed) ->
      Printf.bprintf b "%d:%s:%d:%Lx:%Lx:%Lx;" c.Scheduler.c_req.Workload.rq_id
        (Scheduler.phase_to_string c.Scheduler.c_phase)
        c.Scheduler.c_stream
        (Int64.bits_of_float c.Scheduler.c_dispatch_us)
        (Int64.bits_of_float c.Scheduler.c_finish_us)
        (Int64.bits_of_float c.Scheduler.c_service_us))
    o.Scheduler.o_completed;
  Digest.string (Buffer.contents b)

(* A request alone on one stream: every phase it runs takes exactly its
   artifact's solo latency.  One request per served model (generation
   requests walk every decode bucket). *)
let lone_requests a scale w (artifacts : Scheduler.artifact list) :
    (Workload.request list * Scheduler.outcome) list =
  let models =
    List.sort_uniq compare
      (List.map (fun (ar : Scheduler.artifact) -> ar.Scheduler.art_model) artifacts)
  in
  let gen = match w.traffic with Generate _ -> scale.tokens | _ -> 0 in
  List.map
    (fun model ->
      let reqs =
        Workload.generate ~seed:0 ~rate_rps:0. ~requests:1 ~gen [ (model, 1.) ]
      in
      let o = Scheduler.run dev (sched_cfg ~streams:1 scale w) ~artifacts reqs in
      a.attempted <- a.attempted + 1;
      if incomplete reqs o > 0 then a.failed <- a.failed + 1;
      List.iter
        (fun (c : Scheduler.completed) ->
          let solo =
            (Layers.artifact_for ~artifacts ~gen_prompt:(gen_prompt_of scale w) c)
              .Scheduler.art_solo_us
          in
          expect a
            (c.Scheduler.c_service_us = solo
            && c.Scheduler.c_finish_us = c.Scheduler.c_dispatch_us +. solo)
            "lone %s request (%s) takes its solo latency" model
            (Scheduler.phase_to_string c.Scheduler.c_phase))
        o.Scheduler.o_completed;
      (reqs, o))
    models

(* ---- metrics ---- *)

type metric = {
  m_name : string;
  m_unit : string;
  m_value : float;
  m_reps : float list;  (** per-rep samples behind a host median; [] otherwise *)
}

let m m_name m_unit m_value = { m_name; m_unit; m_value; m_reps = [] }

let host m_name m_unit reps =
  { m_name; m_unit; m_value = Stats.median reps; m_reps = reps }

let metric_json (x : metric) : Jsonlite.t =
  Jsonlite.Obj
    ([ ("value", Jsonlite.Num x.m_value); ("unit", Jsonlite.Str x.m_unit) ]
    @
    match x.m_reps with
    | [] -> []
    | rs ->
        let q1, _, q3 = Stats.quartiles rs in
        [
          ("q1", Jsonlite.Num q1);
          ("q3", Jsonlite.Num q3);
          ("reps", Jsonlite.Num (float_of_int (List.length rs)));
        ])

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1e6

(* the client-visible simulated metrics *)
let sim_metrics (artifact_us : float list) (seen : seen list) : metric list =
  let outputs = List.concat_map (fun s -> s.outputs_ms) seen in
  let met = List.fold_left (fun n s -> n + s.met) 0 seen in
  let requests = List.fold_left (fun n s -> n + s.requests) 0 seen in
  [
    m "sim_latency_us" "sim_us" (Stats.geomean artifact_us);
    m "sim_p50_ms" "sim_ms" (Stats.percentile outputs 50.);
    m "sim_p90_ms" "sim_ms" (Stats.percentile outputs 90.);
    m "sim_p99_ms" "sim_ms" (Stats.percentile outputs 99.);
    m "slo_met_share" "share" (float_of_int met /. float_of_int (max 1 requests));
  ]

(* Run [rep i] for i = 0, 1, ... on a settled heap until at least
   [min_reps] ran and [seconds] passed; returns each rep's wall and value. *)
let repeat ~seconds ~min_reps (rep : int -> 'a) : (float * 'a) list =
  let t_start = now () in
  let rec go i acc =
    if i >= min_reps && now () -. t_start >= seconds then List.rev acc
    else begin
      settle ();
      let t0 = now () in
      let v = rep i in
      go (i + 1) ((now () -. t0, v) :: acc)
    end
  in
  go 0 []

(* ---- untraced run: end-to-end metrics ---- *)

let measure a scale w ~seed ~seconds : metric list * (string * Jsonlite.t) list =
  Fmt.epr "%s: set-up@." w.name;
  let st, setup_walls = set_ups a scale w in
  verify_tiny a ~seed;
  let setup = host "setup_s" "s" setup_walls in
  match w.traffic with
  | Compile_only ->
      (* closed loop: one compile round after another; the set-ups were
         the warm-up *)
      let first_sims = sims st in
      Fmt.epr "%s: timed rounds@." w.name;
      let rounds =
        repeat ~seconds ~min_reps:scale.min_rounds (fun _ ->
            let cold, cold_s, warm_s = compile_round a st.programs in
            expect a
              (List.map (fun (r : Souffle.report) -> r.Souffle.sim) cold = first_sims)
              "every round reproduces the set-up's simulations";
            (cold_s, warm_s))
      in
      let ops = float_of_int (2 * List.length st.programs) in
      let artifacts =
        List.map2 (fun (t, _) r -> artifact t r) st.programs st.reports
      in
      let lone = lone_requests a scale w artifacts in
      let cold = List.map (fun (_, (c, _)) -> c) rounds
      and warm = List.map (fun (_, (_, ws)) -> ws) rounds in
      ( [
          setup;
          host "host_ops_per_s" "1/s" (List.map (fun (dt, _) -> ops /. dt) rounds);
        ]
        @ sim_metrics (List.map solo_us st.reports)
            (List.map (fun (reqs, o) -> seen_of reqs o) lone),
        [
          ("compile_cold_s", metric_json (host "compile_cold_s" "s" cold));
          ("compile_warm_s", metric_json (host "compile_warm_s" "s" warm));
        ] )
  | Oneshot _ | Generate _ ->
      ignore (lone_requests a scale w st.artifacts);
      let cfg = sched_cfg scale w in
      let sets =
        Array.of_list
          (panel scale w @ List.init scale.seed_sets (request_set scale w ~seed))
      in
      let n_sets = Array.length sets in
      let serve reqs = Scheduler.run dev cfg ~artifacts:st.artifacts reqs in
      (* ops: one-shot responses, or generated tokens *)
      let ops (o : Scheduler.outcome) =
        List.length
          (List.filter
             (fun (c : Scheduler.completed) ->
               match (w.traffic, c.Scheduler.c_phase) with
               | Generate _, Scheduler.Decode _ -> true
               | Generate _, _ -> false
               | _ -> true)
             o.Scheduler.o_completed)
      in
      Fmt.epr "%s: warm-up rep@." w.name;
      ignore (serve sets.(0));
      Fmt.epr "%s: timed reps over %d request sets@." w.name n_sets;
      let first = Array.make n_sets None in
      let reps =
        repeat ~seconds ~min_reps:n_sets (fun i ->
            let j = i mod n_sets in
            let o = serve sets.(j) in
            let reqs = sets.(j) in
            let d = digest o in
            a.attempted <- a.attempted + List.length reqs;
            a.failed <- a.failed + incomplete reqs o;
            (match first.(j) with
            | None -> first.(j) <- Some (d, seen_of reqs o)
            | Some (d0, _) ->
                expect a (d = d0) "every rep of request set %d reproduces its first" j);
            ops o)
      in
      let seen =
        Array.to_list (Array.sub first 0 scale.panel_sets)
        |> List.filter_map (Option.map snd)
      in
      ( [
          setup;
          host "host_ops_per_s" "1/s"
            (List.map (fun (dt, n) -> float_of_int n /. dt) reps);
        ]
        @ sim_metrics
            (List.map
               (fun (ar : Scheduler.artifact) -> ar.Scheduler.art_solo_us)
               st.artifacts)
            seen,
        [] )

(* ---- traced run: per-layer metrics ---- *)

let sim_span ~tid name ~start_us ~stop_us (c : Scheduler.completed) =
  Obs.make_span
    ~meta:
      [
        ("tid", string_of_int tid);
        ("rq_id", string_of_int c.Scheduler.c_req.Workload.rq_id);
        ("phase", Scheduler.phase_to_string c.Scheduler.c_phase);
        ("model", c.Scheduler.c_model);
        ("clock", "simulated");
      ]
    ~start_us ~dur_us:(stop_us -. start_us) name

(* simulated per-request spans, one row per concurrency slot *)
let request_spans (outcomes : Scheduler.outcome list) : Obs.span list =
  List.concat_map
    (fun (o : Scheduler.outcome) ->
      List.concat_map
        (fun (c : Scheduler.completed) ->
          let tid = 1000 + c.Scheduler.c_slot in
          [
            sim_span ~tid "sim.queue_wait" ~start_us:c.Scheduler.c_issue_us
              ~stop_us:c.Scheduler.c_dispatch_us c;
            sim_span ~tid "sim.service" ~start_us:c.Scheduler.c_dispatch_us
              ~stop_us:c.Scheduler.c_finish_us c;
          ])
        o.Scheduler.o_completed)
    outcomes

(* per-layer simulated serving metrics over every served set *)
let serve_layers scale w ~(artifacts : Scheduler.artifact list)
    (outcomes : Scheduler.outcome list) : metric list * (string * Jsonlite.t) list
    =
  let cs =
    List.concat_map (fun (o : Scheduler.outcome) -> o.Scheduler.o_completed) outcomes
  and samples =
    List.concat_map (fun (o : Scheduler.outcome) -> o.Scheduler.o_samples) outcomes
  in
  (* [p]th percentile, in ms, of a per-completion quantity in us *)
  let pct p f (xs : Scheduler.completed list) =
    Stats.percentile (List.map (fun c -> f c /. 1e3) xs) p
  in
  (* a phase issued at its predecessor's finish and dispatched at once
     reads a rounding-sized wait, since the finish instant and the engine
     clock sum the same floats in different orders; never below zero *)
  let wait (c : Scheduler.completed) =
    Float.max 0. (c.Scheduler.c_dispatch_us -. c.Scheduler.c_issue_us)
  and service (c : Scheduler.completed) = c.Scheduler.c_service_us in
  let phase p =
    List.filter (fun (c : Scheduler.completed) -> p c.Scheduler.c_phase) cs
  in
  let prefills = phase (( = ) Scheduler.Prefill)
  and decodes = phase (function Scheduler.Decode _ -> true | _ -> false)
  and terminal = List.filter Scheduler.is_terminal cs in
  let time_weighted f =
    Stats.sum
      (List.map (fun (s : Sim.Multi.sample) -> s.Sim.Multi.sa_dur_us *. f s) samples)
  in
  let busy = time_weighted (fun _ -> 1.) in
  let resident (s : Sim.Multi.sample) = float_of_int s.Sim.Multi.sa_resident in
  let solo_at pos =
    match
      List.find_opt
        (fun (ar : Scheduler.artifact) ->
          gen_prompt_of scale w > 0 && ar.Scheduler.art_pos = pos)
        artifacts
    with
    | Some ar -> ar.Scheduler.art_solo_us
    | None -> 0.
  in
  let model (c : Scheduler.completed) = c.Scheduler.c_model in
  let per_model =
    List.sort_uniq compare (List.map model terminal)
    |> List.map (fun name ->
           ( name,
             Jsonlite.Num
               (pct 99. Scheduler.latency_us
                  (List.filter (fun c -> model c = name) terminal)) ))
  in
  ( [
      m "serve.queue_wait_p50_ms" "sim_ms" (pct 50. wait cs);
      m "serve.queue_wait_p99_ms" "sim_ms" (pct 99. wait cs);
      m "serve.service_p50_ms" "sim_ms" (pct 50. service cs);
      m "serve.service_p99_ms" "sim_ms" (pct 99. service cs);
      m "serve.slowdown_mean" "ratio"
        (Stats.mean
           (List.map
              (fun (c : Scheduler.completed) -> service c /. c.Scheduler.c_solo_us)
              cs));
      m "serve.resident_avg" "streams"
        (if busy > 0. then time_weighted resident /. busy else 0.);
      m "serve.resident_peak" "streams"
        (List.fold_left (fun a s -> Float.max a (resident s)) 0. samples);
      m "serve.p99_ms" "sim_ms" (pct 99. Scheduler.latency_us terminal);
      m "gen.ttft_p50_ms" "sim_ms" (pct 50. Scheduler.latency_us prefills);
      m "gen.ttft_p90_ms" "sim_ms" (pct 90. Scheduler.latency_us prefills);
      m "gen.tpot_p50_ms" "sim_ms" (pct 50. Scheduler.phase_latency_us decodes);
      m "gen.tpot_p99_ms" "sim_ms" (pct 99. Scheduler.phase_latency_us decodes);
      m "gen.prefill_queue_wait_p90_ms" "sim_ms" (pct 90. wait prefills);
      m "gen.decode_queue_wait_p99_ms" "sim_ms" (pct 99. wait decodes);
      m "gen.prefill_solo_us" "sim_us" (solo_at 0);
    ]
    @ List.map
        (fun pos ->
          m (Fmt.str "gen.decode_solo_us.pos%d" pos) "sim_us" (solo_at pos))
        (decode_buckets scale),
    [ ("serve.p99_ms", Jsonlite.Obj per_model) ] )

(* One compile pass over the workload's programs: [Souffle.compile] cold,
   then warm on the schedule cache it filled, and the same compiles staged
   layer by layer (cold, then warm on a second cache).  Every staged result
   must equal [Souffle.compile]'s bit for bit. *)
type pass = {
  refs : (target * Souffle.report * float) list;  (** cold compile, wall *)
  warm_s : float;  (** warm [Souffle.compile] of every program *)
  cold : Layers.clock;  (** staged cold compile, per layer *)
  warm : Layers.clock;  (** staged warm compile, per layer *)
  cold_n : Layers.store_counts;
  warm_n : Layers.store_counts;
  ir : int * int * int * int;  (** TEs in, TEs out, subprograms, kernels *)
}

let compile_pass a (programs : (target * Program.t) list) : pass =
  let ref_cache = Scache.create () in
  let refs =
    List.map
      (fun (t, p) ->
        let s, r =
          Layers.timed_call "core.compile" (fun () ->
              compile a ~sched_cache:ref_cache t p)
        in
        (t, r, s))
      programs
  in
  let t0 = now () in
  List.iter2
    (fun (t, p) (_, (r : Souffle.report), _) ->
      let wr =
        Obs.span "bench.core.compile_warm" (fun () ->
            compile a ~sched_cache:ref_cache t p)
      in
      expect a
        (wr.Souffle.prog = r.Souffle.prog && wr.Souffle.sim = r.Souffle.sim)
        "warm %s artifact equals the cold one" t.t_name)
    programs refs;
  let warm_s = now () -. t0 in
  let staged_cache = Scache.create () in
  let staged () =
    let clock = Layers.clock () and n = Layers.counts () in
    let ir =
      List.fold_left2
        (fun (ti, to_, sp, k) (_, p) (t, (r : Souffle.report), _) ->
          let store = Layers.counting_store staged_cache n in
          match Layers.staged_compile clock dev store p with
          | Ok s ->
              expect a
                (s.Layers.st_prog = r.Souffle.prog && s.Layers.st_sim = r.Souffle.sim)
                "staged compile of %s reproduces Souffle.compile bit for bit" t.t_name;
              ( ti + s.Layers.st_tes_in,
                to_ + s.Layers.st_tes_out,
                sp + s.Layers.st_subprograms,
                k + List.length s.Layers.st_prog.Kernel_ir.kernels )
          | Error ds ->
              failure a "staged compile of %s failed: %s" t.t_name
                (String.concat "; " (List.map Diag.to_string ds));
              (ti, to_, sp, k))
        (0, 0, 0, 0) programs refs
    in
    (clock, n, ir)
  in
  let cold, cold_n, ir = staged () in
  let warm, warm_n, _ = staged () in
  { refs; warm_s; cold; warm; cold_n; warm_n; ir }

(* compile passes and serving runs per traced run; per-layer host times
   are medians over them *)
let compile_passes = 3
let serve_runs = 3

let traced a scale w ~seed : metric list * (string * Jsonlite.t) list * Obs.trace =
  let host_c = Layers.clock () in
  let gen_prompt = gen_prompt_of scale w in
  Fmt.epr "%s: traced pass@." w.name;
  let (passes, level_us, mega, artifacts, served, sched_s, replays), trace =
    Obs.record @@ fun () ->
    let programs =
      Layers.timed host_c "graph.lower" (fun () ->
          List.map (fun t -> (t, Lower.run (t.t_graph ()))) (targets scale w))
    in
    let passes = List.init compile_passes (fun _ -> compile_pass a programs) in
    let refs = (List.hd passes).refs in
    (* the optimization ladder of Table 4 *)
    let level_us =
      List.map
        (fun level ->
          Obs.span ("bench.level." ^ Souffle.level_to_string level) @@ fun () ->
          Stats.geomean
            (List.map (fun (t, p) -> solo_us (compile a ~level t p)) programs))
        Souffle.[ V0; V1; V2; V3 ]
    in
    let mega =
      List.filter_map
        (fun (_, (r : Souffle.report), _) ->
          let tg =
            Layers.timed host_c "gpu.mega.lower" (fun () ->
                Megakernel.lower r.Souffle.prog)
          in
          match
            Layers.timed host_c "gpu.mega.verify" (fun () ->
                Megakernel.verify dev (Souffle.dataflow_env r.Souffle.transformed) tg)
          with
          | Ok () ->
              let s =
                Layers.timed host_c "gpu.mega.sim" (fun () -> Sim.run_mega dev tg)
              in
              Some s.Sim.total.Counters.time_us
          | Error _ -> None)
        refs
    in
    let artifacts =
      Layers.timed host_c "setup.artifact" (fun () ->
          List.map (fun (t, r, _) -> artifact t r) refs)
    in
    (* traced serving: the first set drawn from the seed, or the lone
       requests *)
    let jobs =
      match w.traffic with
      | Compile_only ->
          List.map
            (fun (ar : Scheduler.artifact) ->
              ( sched_cfg ~streams:1 scale w,
                fun () ->
                  Workload.generate ~seed:0 ~rate_rps:0. ~requests:1
                    [ (ar.Scheduler.art_model, 1.) ] ))
            artifacts
      | Oneshot _ | Generate _ ->
          [ (sched_cfg scale w, fun () -> request_set scale w ~seed 0) ]
    in
    let served =
      List.map
        (fun (cfg, gen) ->
          let reqs = Layers.timed host_c "serve.workload" gen in
          let runs =
            List.init serve_runs (fun _ ->
                Layers.timed_call "serve.scheduler" (fun () ->
                    Scheduler.run dev cfg ~artifacts reqs))
          in
          let o = snd (List.hd runs) in
          expect a
            (List.for_all (fun (_, o') -> digest o' = digest o) runs)
            "repeated Scheduler.run calls agree";
          ignore
            (Layers.timed host_c "serve.report" (fun () ->
                 Serve_report.summarize o));
          (reqs, o, Stats.median (List.map fst runs)))
        jobs
    in
    let replays =
      List.map
        (fun (_, o, _) ->
          let rps =
            List.init serve_runs (fun _ ->
                Obs.span "bench.gpu.multi" (fun () ->
                    Layers.replay dev ~artifacts ~gen_prompt o))
          in
          expect a
            (List.for_all (fun rp -> rp.Layers.rp_exact) rps)
            "Sim.Multi replay reproduces every Scheduler.run finish time";
          {
            (List.hd rps) with
            Layers.rp_wall_s =
              Stats.median (List.map (fun rp -> rp.Layers.rp_wall_s) rps);
          })
        served
    in
    ( passes,
      level_us,
      mega,
      artifacts,
      List.map (fun (reqs, o, _) -> (reqs, o)) served,
      Stats.sum (List.map (fun (_, _, s) -> s) served),
      replays )
  in
  let first = List.hd passes in
  let refs = first.refs in
  (* tracing overhead: the workload's operation untraced, then traced *)
  let op () =
    match w.traffic with
    | Compile_only ->
        let sched_cache = Scache.create () in
        List.iter
          (fun (t, (r : Souffle.report), _) ->
            ignore (compile a ~sched_cache t r.Souffle.original))
          refs
    | Oneshot _ | Generate _ ->
        ignore
          (Scheduler.run dev (sched_cfg scale w) ~artifacts (fst (List.hd served)))
  in
  let wall f =
    settle ();
    let t0 = now () in
    f ();
    now () -. t0
  in
  let untraced_s = wall op in
  let traced_s = wall (fun () -> ignore (Obs.record op)) in
  let serve_checked reqs =
    let o = Scheduler.run dev (sched_cfg scale w) ~artifacts reqs in
    a.attempted <- a.attempted + List.length reqs;
    a.failed <- a.failed + incomplete reqs o;
    o
  in
  (* simulated serving layers over the panel the untraced run takes its
     simulated metrics from (compile-zoo: its lone requests) *)
  let pooled =
    match w.traffic with
    | Compile_only -> List.map snd served
    | Oneshot _ | Generate _ -> List.map serve_checked (panel scale w)
  in
  (* how close the offered rate is to the rate the mix saturates at: the
     first panel set as a closed batch, served on the same streams *)
  let capacity_rps, load_share =
    match w.traffic with
    | Compile_only -> (0., 0.)
    | Oneshot { rate_rps } | Generate { rate_rps } ->
        let o =
          serve_checked (request_set ~closed:true scale w ~seed:panel_seed 0)
        in
        let cap = (Serve_report.summarize o).Serve_report.s_throughput_rps in
        (cap, rate_rps /. cap)
  in
  let serve_ms, serve_extra = serve_layers scale w ~artifacts pooled in
  let reports = List.map (fun (_, r, _) -> r) refs in
  let total f =
    Stats.sum (List.map (fun (r : Souffle.report) -> f r.Souffle.sim) reports)
  in
  let cold_wall (p : pass) = Stats.sum (List.map (fun (_, _, s) -> s) p.refs) in
  let med f = Stats.median (List.map f passes) in
  let cold name = med (fun p -> Layers.total p.cold name) in
  let multi_s = Stats.sum (List.map (fun rp -> rp.Layers.rp_wall_s) replays) in
  let events = List.fold_left (fun n rp -> n + rp.Layers.rp_events) 0 replays in
  let tes_in, tes_out, subprograms, kernels = first.ir in
  let layer c name = Layers.total c name in
  let metrics =
    [
      m "graph.lower_s" "s" (layer host_c "graph.lower");
      m "transform.horizontal_s" "s" (cold "transform.horizontal");
      m "transform.vertical_s" "s" (cold "transform.vertical");
      m "analysis.run_s" "s" (cold "analysis.run");
      m "schedule.cold_s" "s" (cold "schedule");
      m "schedule.warm_s" "s" (med (fun p -> Layers.total p.warm "schedule"));
      m "schedule.searches" "count" (float_of_int first.cold_n.Layers.adds);
      m "cache.hit_ratio" "share"
        (float_of_int first.warm_n.Layers.hits
        /. float_of_int (max 1 first.warm_n.Layers.finds));
      m "partition.run_s" "s" (cold "partition.run");
      m "kernelgen.emit_s" "s" (cold "kernelgen.emit");
      m "gpu.verify_ir_s" "s" (cold "gpu.verify_ir");
      m "gpu.dataflow_s" "s" (cold "gpu.dataflow");
      m "gpu.sim_s" "s" (cold "gpu.sim");
      m "core.driver_s" "s"
        (med (fun p ->
             cold_wall p -. Hashtbl.fold (fun _ v acc -> acc +. v) p.cold 0.));
      m "compile_cold_s" "s" (med cold_wall);
      m "compile_warm_s" "s" (med (fun p -> p.warm_s));
      m "setup.artifact_s" "s" (layer host_c "setup.artifact");
      m "transform.tes_in" "count" (float_of_int tes_in);
      m "transform.tes_out" "count" (float_of_int tes_out);
      m "partition.subprograms" "count" (float_of_int subprograms);
      m "kernelgen.kernels" "count" (float_of_int kernels);
    ]
    @ List.mapi (fun i us -> m (Fmt.str "sim.v%d_us" i) "sim_us" us) level_us
    @ [
        m "sim.v4_us" "sim_us" (Stats.geomean (List.map solo_us reports));
        m "sim.launches" "count"
          (total (fun s -> float_of_int s.Sim.total.Counters.kernel_launches));
        m "sim.grid_syncs" "count"
          (total (fun s -> float_of_int s.Sim.total.Counters.grid_syncs));
        m "sim.launch_us" "sim_us" (total (fun s -> s.Sim.total.Counters.launch_us));
        m "sim.compute_us" "sim_us" (total (fun s -> s.Sim.total_compute_us));
        m "sim.memory_us" "sim_us" (total (fun s -> s.Sim.total_memory_us));
        m "sim.dram_mb" "MB"
          (total (fun s ->
               float_of_int
                 (s.Sim.total.Counters.dram_read_bytes
                 + s.Sim.total.Counters.dram_write_bytes)
               /. 1e6));
        m "sim.mega_geomean_us" "sim_us" (Stats.geomean mega);
        m "gpu.mega.lower_s" "s" (layer host_c "gpu.mega.lower");
        m "gpu.mega.verify_s" "s" (layer host_c "gpu.mega.verify");
        m "gpu.mega.sim_s" "s" (layer host_c "gpu.mega.sim");
        m "serve.workload_s" "s" (layer host_c "serve.workload");
        m "serve.scheduler_self_s" "s" (sched_s -. multi_s);
        m "gpu.multi_s" "s" multi_s;
        m "gpu.multi.streams" "count"
          (float_of_int
             (List.fold_left (fun n rp -> n + rp.Layers.rp_streams) 0 replays));
        m "gpu.multi.events" "count" (float_of_int events);
        m "gpu.multi.us_per_event" "us" (multi_s *. 1e6 /. float_of_int (max 1 events));
        m "serve.report_s" "s" (layer host_c "serve.report");
        m "serve.capacity_rps" "1/s" capacity_rps;
        m "serve.load_share" "share" load_share;
      ]
    @ serve_ms
    @ [ m "trace_overhead_share" "share" ((traced_s /. untraced_s) -. 1.) ]
  in
  let breakdown =
    let per_model f =
      Jsonlite.Obj
        (List.mapi (fun i (t, r, _) -> (t.t_name, Jsonlite.Num (f i r))) refs)
    in
    [
      ( "compile_cold_s",
        per_model (fun i _ ->
            med (fun p ->
                let _, _, s = List.nth p.refs i in
                s)) );
      ("sim_us", per_model (fun _ r -> solo_us r));
    ]
    @ serve_extra
  in
  ( metrics,
    breakdown,
    { trace with Obs.spans = trace.Obs.spans @ request_spans (List.map snd served) } )

(* ---- reporting ---- *)

let write_json path (v : Jsonlite.t) =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (Jsonlite.to_string v))

let run_one w ~scale ~seed ~seconds ~trace : int =
  let a = { attempted = 0; failed = 0; failures = [] } in
  let smoke_suffix = if scale.tiny then "_smoke" else "" in
  let t0 = now () in
  let metrics, extra, suffix =
    if trace then begin
      let metrics, breakdown, tr = traced a scale w ~seed in
      let chrome = Fmt.str "BENCH_suite_%s_trace%s.json" w.name smoke_suffix in
      Obs.to_chrome_file tr chrome;
      Fmt.epr "%s: wrote %s@." w.name chrome;
      (metrics, [ ("breakdown", Jsonlite.Obj breakdown) ], "_layers")
    end
    else begin
      let metrics, extra = measure a scale w ~seed ~seconds in
      (metrics @ [ m "peak_heap_mb" "MB" (peak_heap_mb ()) ], extra, "")
    end
  in
  let correct = a.failures = [] in
  let out = Fmt.str "BENCH_suite_%s%s%s.json" w.name suffix smoke_suffix in
  write_json out
    (Jsonlite.Obj
       ([
          ("bench", Jsonlite.Str "suite");
          ("workload", Jsonlite.Str w.name);
          ("seed", Jsonlite.Num (float_of_int seed));
          ("seconds", Jsonlite.Num seconds);
          ("smoke", Jsonlite.Bool scale.tiny);
          ("wall_s", Jsonlite.Num (now () -. t0));
          ("correct", Jsonlite.Bool correct);
          ("attempted", Jsonlite.Num (float_of_int a.attempted));
          ("failed", Jsonlite.Num (float_of_int a.failed));
          ( "failures",
            Jsonlite.Arr (List.rev_map (fun s -> Jsonlite.Str s) a.failures) );
          ( "metrics",
            Jsonlite.Obj (List.map (fun x -> (x.m_name, metric_json x)) metrics) );
        ]
       @ extra));
  Fmt.epr "%s: wrote %s@." w.name out;
  List.iter
    (fun x ->
      Fmt.pr "%-14s %-32s %s %s@." w.name x.m_name
        (Jsonlite.number_to_string x.m_value)
        x.m_unit)
    metrics;
  print_endline
    (Jsonlite.to_string
       (Jsonlite.Obj
          [
            ("correct", Jsonlite.Bool correct);
            ("attempted", Jsonlite.Num (float_of_int a.attempted));
            ("failed", Jsonlite.Num (float_of_int a.failed));
            ( "metrics",
              Jsonlite.Obj
                (List.map
                   (fun x ->
                     ( x.m_name,
                       Jsonlite.Obj
                         [
                           ("value", Jsonlite.Num x.m_value);
                           ("unit", Jsonlite.Str x.m_unit);
                         ] ))
                   metrics) );
          ]));
  if correct then 0 else 1

(* every workload in its own child process, one after another *)
let run_all ~args : int =
  let failed =
    List.filter
      (fun w ->
        let argv =
          Array.of_list (Sys.executable_name :: "--workload" :: w.name :: args)
        in
        let pid =
          Unix.create_process Sys.executable_name argv Unix.stdin Unix.stdout
            Unix.stderr
        in
        match snd (Unix.waitpid [] pid) with
        | Unix.WEXITED 0 -> false
        | _ -> true)
      workloads
  in
  List.iter (fun w -> Fmt.epr "suite: workload %s failed@." w.name) failed;
  if failed = [] then 0 else 1

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 20. in
  let trace = ref 0 and smoke_mode = ref false in
  let usage =
    "suite.exe [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--smoke]\n\
     Workloads: "
    ^ String.concat ", " (List.map (fun w -> w.name) workloads)
  in
  Arg.parse
    [
      ( "--workload",
        Arg.Set_string workload,
        "NAME run one workload (default: all, each in its own process)" );
      ("--seed", Arg.Set_int seed, "N request-set seed (default 1)");
      ( "--seconds",
        Arg.Set_float seconds,
        "S how long the timed loop runs (default 20)" );
      ("--trace", Arg.Set_int trace, "0|1 1 runs the traced per-layer pass instead");
      ("--smoke", Arg.Set smoke_mode, " tiny models, two request sets, one rep");
    ]
    (fun x -> raise (Arg.Bad ("unexpected argument " ^ x)))
    usage;
  if !trace <> 0 && !trace <> 1 then begin
    prerr_endline "suite: --trace takes 0 or 1";
    exit 2
  end;
  let scale = if !smoke_mode then smoke else full in
  let seconds = if !smoke_mode then 0. else !seconds in
  if !workload = "" then
    exit
      (run_all
         ~args:
           ([ "--seed"; string_of_int !seed; "--seconds"; Fmt.str "%g" seconds;
              "--trace"; string_of_int !trace ]
           @ if !smoke_mode then [ "--smoke" ] else []))
  else
    match List.find_opt (fun w -> w.name = !workload) workloads with
    | None ->
        prerr_endline ("suite: unknown workload " ^ !workload ^ "\n" ^ usage);
        exit 2
    | Some w -> (
        try exit (run_one w ~scale ~seed:!seed ~seconds ~trace:(!trace = 1))
        with e ->
          Fmt.epr "suite: %s: %s@." w.name (Printexc.to_string e);
          exit 2)
