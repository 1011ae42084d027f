(* Compile-throughput benchmark: measures what the fast-compilation layer
   buys — constructive scheduling, the domain-parallel Ansor search and the
   persistent schedule cache (Scache) — and checks, on every model, that
   none of it costs kernel quality or determinism.

   Four measured compiles per model, after one untimed warm-up compile of
   the same program:
     cold/construct   fresh cache, search_domains = 1, constructive
                      scheduling (the default pipeline)
     cold/exhaustive  fresh cache, search_domains = 1, full enumerative
                      candidate search (the quality oracle)
     cold/parallel    fresh cache, default domain count, constructive
     warm             the cache the cold/construct run populated

   Each compile runs under [Obs.record], so besides end-to-end wall time we
   report the schedule-phase time ("ansor" spans), the number of candidate
   searches actually performed ("ansor-search" spans), and a per-phase
   breakdown ("emit-kernel" is the span the emitter actually opens per
   kernel — both the Souffle ladder and the whole-grouping [Emit.emit]
   entry point emit it).  The warm run must perform zero searches.

   Gates recorded in the runlog, so --strict-bench fails the run:
     - every compiled artifact must be dataflow-clean;
     - parallel search and warm-cache compiles must reproduce the
       cold/construct artifact bit for bit;
     - constructed schedules must hold kernel quality: per model, the
       simulated end-to-end runtime must stay within [quality_tol] of the
       exhaustive search's;
     - the whole zoo must cold-compile (constructive, serial) within
       [budget_s] end to end;
     - on the full-size zoo, the cold-compile geomean speedup over the
       pre-overhaul baseline (the [prepr_cold_s] constants, measured at
       the commit before constructive scheduling and the non-search phase
       work landed) must be at least [min_geomean].

   Results land in BENCH_compile.json / BENCH_compile_smoke.json. *)

let spans_named (t : Obs.trace) (name : string) : int =
  let n = ref 0 in
  Obs.iter (fun s ~depth:_ -> if s.Obs.sname = name then incr n) t;
  !n

(* the pipeline phases broken out per run, in pipeline order; each is an
   Obs span the compiler actually emits (emission opens one "emit-kernel"
   span per kernel — there is no aggregate "emit" span on the ladder path) *)
let phase_names =
  [
    "horizontal"; "vertical"; "analysis"; "ansor"; "partition"; "emit-kernel";
    "verify-ir"; "verify-dataflow"; "simulate";
  ]

(* constructed schedules may not cost more than this fraction of simulated
   runtime vs the exhaustive search *)
let quality_tol = 0.05

(* cold/construct full-zoo geomean speedup the overhaul must hold over the
   pre-overhaul compiler *)
let min_geomean = 2.0

(* full-size cold/serial compile seconds at the commit before this overhaul
   (exhaustive search, quadratic toposort, per-kernel consumer rebuilds) —
   the denominator of the geomean gate *)
let prepr_cold_s =
  [
    ("BERT", 0.054); ("ResNeXt", 2.191); ("LSTM", 2.453);
    ("EfficientNet", 0.017); ("SwinTrans.", 0.275); ("MMoE", 0.002);
    ("GPT", 0.013);
  ]

type run = {
  label : string;
  search_mode : Ansor.mode;
  compile_s : float;     (* end-to-end wall seconds *)
  ansor_us : float;      (* schedule-phase ("ansor" spans) microseconds *)
  searches : int;        (* "ansor-search" spans: candidate searches done *)
  phases : (string * float) list;  (* per-phase microseconds, {!phase_names} *)
  sim : Sim.result;
}

let measure ~model ~label ?sched_cache ~domains ~search_mode (p : Program.t) :
    run =
  let ansor = { Ansor.default_config with Ansor.search_domains = domains } in
  let cfg = Souffle.config ~ansor ~search_mode ?sched_cache () in
  let t0 = Unix.gettimeofday () in
  let r, trace =
    Obs.record (fun () ->
        Tables.compile_recorded ~cfg ~name:(model ^ "/" ^ label) p)
  in
  (* artifact-quality check: the compiled program must be dataflow-clean
     (every re-read of an on-device tensor classified as L2/shared, bytes
     reconciling with tensor footprints) — recorded in the runlog so
     --strict-bench fails over a violation *)
  (match
     Dataflow.check_prog Tables.dev
       (Souffle.dataflow_env r.Souffle.transformed)
       r.Souffle.prog
   with
  | Ok () -> ()
  | Error ds ->
      Fmt.epr "  !! %s/%s: compiled artifact is not dataflow-clean:@." model
        label;
      List.iter (fun d -> Fmt.epr "     %a@." Diag.pp d) ds;
      Runlog.record Tables.runlog
        ~model:(model ^ "/" ^ label ^ "@dataflow")
        ~degraded_steps:0 ~errors:(List.length ds));
  {
    label;
    search_mode;
    compile_s = Unix.gettimeofday () -. t0;
    ansor_us = Obs.total_us trace "ansor";
    searches = spans_named trace "ansor-search";
    phases = List.map (fun n -> (n, Obs.total_us trace n)) phase_names;
    sim = r.Souffle.sim;
  }

(* a failed determinism or quality gate is a bench error, not just noise on
   stderr: record it so --strict-bench fails the run *)
let gate_failure ~model ~gate fmt =
  Fmt.kstr
    (fun msg ->
      Fmt.epr "  !! %s: %s@." model msg;
      Runlog.record Tables.runlog
        ~model:(model ^ "@" ^ gate)
        ~degraded_steps:0 ~errors:1)
    fmt

let bench_model ~graph_of (e : Zoo.entry) : string * run list =
  let p = Lower.run (graph_of e) in
  (* one untimed compile first: the one-time costs of a freshly lowered
     program (its lazily built indexes, the first heap growth) would
     otherwise all land on whichever measured run comes first *)
  ignore (Souffle.compile_result p);
  let cache = Scache.create () in
  let construct =
    measure ~model:e.Zoo.name ~label:"cold/construct" ~sched_cache:cache
      ~domains:1 ~search_mode:Ansor.Construct p
  in
  let exhaustive =
    measure ~model:e.Zoo.name ~label:"cold/exhaustive"
      ~sched_cache:(Scache.create ()) ~domains:1
      ~search_mode:Ansor.Exhaustive p
  in
  let parallel =
    measure ~model:e.Zoo.name ~label:"cold/parallel"
      ~sched_cache:(Scache.create ())
      ~domains:(Domain.recommended_domain_count ())
      ~search_mode:Ansor.Construct p
  in
  let warm =
    measure ~model:e.Zoo.name ~label:"warm" ~sched_cache:cache ~domains:1
      ~search_mode:Ansor.Construct p
  in
  if parallel.sim <> construct.sim then
    gate_failure ~model:e.Zoo.name ~gate:"parallel-determinism"
      "parallel search changed the compiled artifact";
  if warm.sim <> construct.sim then
    gate_failure ~model:e.Zoo.name ~gate:"warm-determinism"
      "warm-cache compile changed the compiled artifact";
  if warm.searches <> 0 then
    gate_failure ~model:e.Zoo.name ~gate:"warm-searches"
      "warm compile still ran %d candidate search(es)" warm.searches;
  (* kernel-quality gate: construction must stay within quality_tol of the
     exhaustive search on simulated end-to-end runtime *)
  let tc = Sim.time_ms construct.sim and te = Sim.time_ms exhaustive.sim in
  let rel = if te > 0. then (tc -. te) /. te else 0. in
  if rel > quality_tol then
    gate_failure ~model:e.Zoo.name ~gate:"quality"
      "constructed schedules cost %.1f%% simulated runtime vs exhaustive \
       (tolerance %.0f%%): %.3f ms vs %.3f ms"
      (100. *. rel) (100. *. quality_tol) tc te;
  (e.Zoo.name, [ construct; exhaustive; parallel; warm ])

let json_of_run (r : run) : Jsonlite.t =
  Jsonlite.Obj
    [
      ("label", Jsonlite.Str r.label);
      ("search_mode", Jsonlite.Str (Ansor.mode_tag r.search_mode));
      ("compile_s", Jsonlite.Num r.compile_s);
      ("sim_time_ms", Jsonlite.Num (Sim.time_ms r.sim));
      ("ansor_us", Jsonlite.Num r.ansor_us);
      ("searches", Jsonlite.Num (float_of_int r.searches));
      ( "phases_us",
        Jsonlite.Obj
          (List.map (fun (n, us) -> (n, Jsonlite.Num us)) r.phases) );
    ]

let ratio num den = if den > 0. then num /. den else 0.

let run_with ~graph_of ~out ~budget_s ~geomean_gate () =
  Tables.section
    "Compile throughput — constructive scheduling + parallel search + cache";
  let results = List.map (bench_model ~graph_of) Zoo.all in
  Fmt.pr "  %-14s %-16s %12s %12s %12s %10s@." "model" "run" "compile(s)"
    "sim(ms)" "ansor(ms)" "searches";
  List.iter
    (fun (model, runs) ->
      List.iter
        (fun r ->
          Fmt.pr "  %-14s %-16s %12.3f %12.3f %12.2f %10d@." model r.label
            r.compile_s (Sim.time_ms r.sim) (r.ansor_us /. 1e3) r.searches)
        runs)
    results;
  let pick label runs = List.find (fun r -> r.label = label) runs in
  let sum f = List.fold_left (fun a (_, runs) -> a +. f runs) 0. results in
  let cold_s = sum (fun rs -> (pick "cold/construct" rs).compile_s) in
  let exhaustive_s = sum (fun rs -> (pick "cold/exhaustive" rs).compile_s) in
  let warm_s = sum (fun rs -> (pick "warm" rs).compile_s) in
  let parallel_s = sum (fun rs -> (pick "cold/parallel" rs).compile_s) in
  let cold_ansor = sum (fun rs -> (pick "cold/construct" rs).ansor_us) in
  let warm_ansor = sum (fun rs -> (pick "warm" rs).ansor_us) in
  let worst_quality =
    List.fold_left
      (fun acc (_, runs) ->
        let tc = Sim.time_ms (pick "cold/construct" runs).sim
        and te = Sim.time_ms (pick "cold/exhaustive" runs).sim in
        max acc (if te > 0. then (tc -. te) /. te else 0.))
      0. results
  in
  (* full-zoo cold-compile budget: the constructive pipeline must compile
     the whole zoo cold within budget_s *)
  if cold_s > budget_s then
    gate_failure ~model:"zoo" ~gate:"cold-budget"
      "full-zoo cold compile took %.3f s (budget %.3f s)" cold_s budget_s;
  (* geomean speedup vs the pre-overhaul compiler (full-size zoo only: the
     prepr_cold_s constants were measured on full-size models) *)
  let speedups =
    if not geomean_gate then []
    else
      List.filter_map
        (fun (model, runs) ->
          match List.assoc_opt model prepr_cold_s with
          | None -> None
          | Some base ->
              let s = ratio base (pick "cold/construct" runs).compile_s in
              Some (model, s))
        results
  in
  let geomean =
    match speedups with
    | [] -> 0.
    | l ->
        exp
          (List.fold_left (fun a (_, s) -> a +. log s) 0. l
          /. float_of_int (List.length l))
  in
  if geomean_gate then begin
    if List.length speedups <> List.length results then
      gate_failure ~model:"zoo" ~gate:"speedup-baseline"
        "pre-overhaul baseline constants missing for %d model(s)"
        (List.length results - List.length speedups);
    if geomean < min_geomean then
      gate_failure ~model:"zoo" ~gate:"speedup-geomean"
        "cold-compile geomean speedup %.2fx vs pre-overhaul baseline is \
         below the %.1fx gate"
        geomean min_geomean
  end;
  Fmt.pr "  ---@.";
  Fmt.pr
    "  end-to-end:     construct %.2fx vs exhaustive, warm %.2fx, parallel \
     %.2fx@."
    (ratio exhaustive_s cold_s) (ratio cold_s warm_s)
    (ratio cold_s parallel_s);
  Fmt.pr "  schedule phase: warm %.2fx vs cold/construct@."
    (ratio cold_ansor warm_ansor);
  Fmt.pr "  kernel quality: worst construct-vs-exhaustive gap %.2f%% (tol \
          %.0f%%)@."
    (100. *. worst_quality) (100. *. quality_tol);
  Fmt.pr "  cold budget:    %.3f s of %.3f s@." cold_s budget_s;
  if geomean_gate then
    Fmt.pr "  vs pre-overhaul: %.2fx geomean cold speedup (gate %.1fx)@."
      geomean min_geomean;
  let json =
    Jsonlite.Obj
      [
        ("bench", Jsonlite.Str "compile-perf");
        ("device", Jsonlite.Str Tables.dev.Device.name);
        ( "models",
          Jsonlite.Obj
            (List.map
               (fun (model, runs) ->
                 (model, Jsonlite.Arr (List.map json_of_run runs)))
               results) );
        ( "summary",
          Jsonlite.Obj
            ([
               ( "e2e_construct_speedup",
                 Jsonlite.Num (ratio exhaustive_s cold_s) );
               ("e2e_warm_speedup", Jsonlite.Num (ratio cold_s warm_s));
               ( "e2e_parallel_speedup",
                 Jsonlite.Num (ratio cold_s parallel_s) );
               ( "schedule_warm_speedup",
                 Jsonlite.Num (ratio cold_ansor warm_ansor) );
               ("quality_worst_rel", Jsonlite.Num worst_quality);
               ("quality_tol", Jsonlite.Num quality_tol);
               ("cold_total_s", Jsonlite.Num cold_s);
               ("cold_budget_s", Jsonlite.Num budget_s);
             ]
            @
            if geomean_gate then
              [
                ("geomean_vs_pre_overhaul", Jsonlite.Num geomean);
                ("geomean_gate", Jsonlite.Num min_geomean);
                ( "speedup_vs_pre_overhaul",
                  Jsonlite.Obj
                    (List.map
                       (fun (m, s) -> (m, Jsonlite.Num s))
                       speedups) );
              ]
            else []) );
      ]
  in
  let oc = open_out out in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (Jsonlite.to_string json));
  Fmt.pr "  wrote %s@." out

(* full-size models: the measurement run.  Budget: the whole zoo, cold and
   serial, in 2.5 s — half of what the pre-overhaul compiler needed. *)
let run () =
  run_with
    ~graph_of:(fun e -> e.Zoo.full ())
    ~out:"BENCH_compile.json" ~budget_s:2.5 ~geomean_gate:true ()

(* tiny models: the @bench-smoke alias — the same gates (budget scaled to
   the tiny configurations, no pre-overhaul baseline) in well under a
   second of compile time *)
let smoke () =
  run_with
    ~graph_of:(fun e -> e.Zoo.tiny ())
    ~out:"BENCH_compile_smoke.json" ~budget_s:1.0 ~geomean_gate:false ()
