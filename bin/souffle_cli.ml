(* souffle — command-line front-end.

   Usage:
     souffle list
     souffle compile  --model bert [--level v4] [--tiny] [--cuda] [--verify]
                      [--verify-dataflow] [--strict] [--inject FAULT]
     souffle compare  --model bert [--tiny]
     souffle analyze  --model mmoe [--tiny]
     souffle serve    --mix bert=2,mmoe --rate 50000 --requests 64
                      --streams 4 [--policy fifo|sel] [--seed N] [--tiny]
                      [--json FILE] [--trace FILE] [--strict]
                      [--chaos SPEC] [--deadline-ms N] [--retries K]
                      [--backoff-us US] [--queue-cap M] [--drop reject|shed]
                      [--batch-max N] [--gen LEN] [--schedule-cache FILE]
*)

open Cmdliner

(* Last-resort exception barrier: anything a command lets escape is printed
   as a structured diagnostic, never an OCaml backtrace, and exits 2. *)
let protect pass (f : unit -> int) : int =
  try f ()
  with e ->
    Fmt.epr "%a@." Diag.pp (Diag.of_exn pass e);
    2

let lookup_model name =
  match Zoo.find name with
  | Some e -> Ok e
  | None ->
      Error
        (Fmt.str "unknown model %S (available: %s)" name
           (String.concat ", " (List.map String.lowercase_ascii Zoo.names)))

let graph_of entry tiny = if tiny then entry.Zoo.tiny () else entry.Zoo.full ()

let program_of entry tiny = Lower.run (graph_of entry tiny)

(* resolve --model NAME or --file PATH into a lowered program *)
let resolve ~model ~file ~tiny : (Program.t, string) result =
  match (model, file) with
  | Some m, None ->
      Result.map (fun e -> program_of e tiny) (lookup_model m)
  | None, Some path ->
      Result.map Lower.run (Serialize.of_file path)
  | _ -> Error "pass exactly one of --model or --file"

let level_of_string = function
  | "v0" -> Ok Souffle.V0
  | "v1" -> Ok Souffle.V1
  | "v2" -> Ok Souffle.V2
  | "v3" -> Ok Souffle.V3
  | "v4" -> Ok Souffle.V4
  | s -> Error (Fmt.str "unknown level %S (v0..v4)" s)

(* ---- arguments ---- *)

let model_arg =
  let doc = "Model to compile (bert, resnext, lstm, efficientnet, swintrans., mmoe)." in
  Arg.(required & opt (some string) None & info [ "m"; "model" ] ~docv:"MODEL" ~doc)

let model_opt_arg =
  let doc = "Built-in model name." in
  Arg.(value & opt (some string) None & info [ "m"; "model" ] ~docv:"MODEL" ~doc)

let file_arg =
  let doc = "Graph file in the textual format (see `souffle dump`)." in
  Arg.(value & opt (some string) None & info [ "f"; "file" ] ~docv:"FILE" ~doc)

let tiny_arg =
  let doc = "Use the scaled-down test configuration (fast, interpretable)." in
  Arg.(value & flag & info [ "tiny" ] ~doc)

let level_arg =
  let doc = "Optimization level: v0 (Ansor baseline) to v4 (full Souffle)." in
  Arg.(value & opt string "v4" & info [ "O"; "level" ] ~docv:"LEVEL" ~doc)

let cuda_arg =
  let doc = "Print the generated kernels as CUDA-flavoured source." in
  Arg.(value & flag & info [ "cuda" ] ~doc)

let verify_arg =
  let doc =
    "Check semantic preservation with the reference interpreter (slow on \
     full-size models; use with --tiny)."
  in
  Arg.(value & flag & info [ "verify" ] ~doc)

let verify_dataflow_arg =
  let doc =
    "Print the cross-kernel dataflow report: per-tensor byte accounting \
     (DRAM first touches vs. L2/shared re-reads vs. stores) over the \
     emitted kernels.  The dataflow $(i,check) itself always runs as part \
     of compilation; this flag shows its view of the program."
  in
  Arg.(value & flag & info [ "verify-dataflow" ] ~doc)

let strict_arg =
  let doc =
    "Treat graceful degradation as a hard error: any pass failure that \
     would be recovered by retrying at a lower optimization level fails \
     the compilation instead."
  in
  Arg.(value & flag & info [ "strict" ] ~doc)

let trace_arg =
  let doc =
    "Record a hierarchical timing trace of every compiler pass and write \
     it to $(docv) in the Chrome-trace JSON format (load it in \
     chrome://tracing or https://ui.perfetto.dev)."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let profile_arg =
  let doc =
    "Print the pass-timing span tree and the per-kernel counter report \
     (kernel identity joined with its Nsight-style counters) after \
     compiling."
  in
  Arg.(value & flag & info [ "profile" ] ~doc)

let mega_arg =
  let doc =
    "Mega-kernelization: additionally lower the compiled multi-kernel \
     program into ONE persistent task-graph kernel — a single launch whose \
     per-SM workers drain the dependency graph of today's kernels/stages, \
     with grid synchronization replaced by task edges and independent \
     tasks overlapping.  The compile summary reports the mega latency \
     next to the multi-kernel baseline; $(b,serve) runs requests on the \
     mega artifacts.  A lowering that fails feasibility or provenance \
     re-verification degrades back to multi-kernel with a warning."
  in
  Arg.(value & flag & info [ "mega" ] ~doc)

let sched_cache_arg =
  let doc =
    "Persistent schedule cache: load previously searched Ansor schedules \
     from $(docv) before compiling (structurally matching TEs skip the \
     candidate search) and write any newly searched schedules back \
     afterwards.  A missing or stale file is treated as an empty cache."
  in
  Arg.(
    value
    & opt (some string) None
    & info [ "schedule-cache" ] ~docv:"FILE" ~doc)

let inject_arg =
  let doc =
    "Arm the fault-injection harness before compiling: a pass name \
     (horizontal, vertical, schedule, partition, emit, dataflow, sim) to \
     make that pass fail once, smem[:N] / grid[:N] to corrupt the next \
     emitted kernel's resource estimate by factor N, or mistag to make the \
     emitter misclassify one on-device re-read as a DRAM first touch.  \
     Used to exercise the degradation ladder."
  in
  Arg.(value & opt (some string) None & info [ "inject" ] ~docv:"FAULT" ~doc)

(* ---- commands ---- *)

let list_cmd =
  let run () =
    Fmt.pr "models:@.";
    List.iter
      (fun (e : Zoo.entry) ->
        Fmt.pr "  %-14s %s@." (String.lowercase_ascii e.Zoo.name)
          e.Zoo.description)
      Zoo.all;
    Fmt.pr "@.baseline systems: %s@."
      (String.concat ", " (List.map Baseline.name Baseline.all))
  in
  Cmd.v (Cmd.info "list" ~doc:"List available models and baseline systems")
    Term.(const (fun () -> run (); 0) $ const ())

let arm_fault = function
  | None -> Ok ()
  | Some s -> (
      match Faultinject.parse s with
      | Ok spec ->
          Faultinject.arm spec;
          Ok ()
      | Error m -> Error m)

let compile_run model file tiny level cuda verify verify_dataflow strict
    inject trace profile sched_cache_path mega =
  protect Diag.Validate @@ fun () ->
  match
    ( resolve ~model ~file ~tiny,
      level_of_string (String.lowercase_ascii level),
      arm_fault inject )
  with
  | Error m, _, _ | _, Error m, _ | _, _, Error m ->
      Fmt.epr "error: %s@." m;
      1
  | Ok p, Ok level, Ok () -> (
      let sched_cache = Option.map Scache.load sched_cache_path in
      let cfg = Souffle.config ~level ?sched_cache ~mega () in
      let compile () =
        Fun.protect ~finally:Faultinject.disarm (fun () ->
            Souffle.compile_result ~cfg ~strict p)
      in
      let save_cache () =
        match (sched_cache, sched_cache_path) with
        | Some c, Some path ->
            if Scache.dirty c then Scache.save c path;
            Fmt.pr "%a (%s)@." Scache.pp c path
        | _ -> ()
      in
      (* --trace / --profile record the compile under the Obs collector *)
      let result, recorded =
        if trace <> None || profile then
          let r, t = Obs.record compile in
          (r, Some t)
        else (compile (), None)
      in
      (match (trace, recorded) with
      | Some path, Some t ->
          Obs.to_chrome_file t path;
          Fmt.pr "trace: wrote %s (%d spans, %.1f us recorded)@." path
            (Obs.span_count t) t.Obs.wall_us
      | _ -> ());
      (match recorded with
      | Some t when profile -> Fmt.pr "%a@.@." Obs.pp_tree t
      | _ -> ());
      save_cache ();
      match result with
      | Error ds ->
          List.iter (fun d -> Fmt.epr "%a@." Diag.pp d) ds;
          1
      | Ok r ->
          Fmt.pr "%a@." Souffle.summary r;
          List.iter (fun d -> Fmt.pr "%a@." Diag.pp d) r.Souffle.diags;
          (match r.Souffle.partition with
          | Some part ->
              Fmt.pr "@.subprograms: %d@." (Partition.num_subprograms part)
          | None -> ());
          if profile then Fmt.pr "@.%a@." Souffle.pp_kernel_report r;
          (match r.Souffle.mega with
          | Some m when profile ->
              Fmt.pr "@.%a@." Kernel_ir.pp_taskgraph m.Souffle.m_graph
          | _ -> ());
          if verify_dataflow then begin
            let env = Souffle.dataflow_env r.Souffle.transformed in
            Fmt.pr "@.dataflow (per-tensor byte accounting):@.%a@."
              Dataflow.pp_flows
              (Dataflow.summarize env r.Souffle.prog)
          end;
          if cuda then begin
            Fmt.pr "@.%s@." (Souffle.cuda_source r);
            Fmt.pr "@.// --- per-TE loop nests (first 4 TEs) ---@.%s@."
              (Souffle.te_loop_nests r)
          end;
          if verify then begin
            match Souffle.verify r with
            | Ok () -> Fmt.pr "@.semantic check: PASS@."
            | Error m -> Fmt.pr "@.semantic check FAILED: %s@." m
          end;
          0)

let compile_cmd =
  Cmd.v
    (Cmd.info "compile" ~doc:"Compile a model with Souffle and simulate it")
    Term.(
      const compile_run $ model_opt_arg $ file_arg $ tiny_arg $ level_arg
      $ cuda_arg $ verify_arg $ verify_dataflow_arg $ strict_arg $ inject_arg
      $ trace_arg $ profile_arg $ sched_cache_arg $ mega_arg)

let compare_run model tiny =
  protect Diag.Simulate @@ fun () ->
  match lookup_model model with
  | Error m ->
      Fmt.epr "error: %s@." m;
      1
  | Ok entry ->
      let p = program_of entry tiny in
      Fmt.pr "%-10s %10s %10s %12s@." "system" "time(ms)" "#kernels"
        "DRAM(MB)";
      List.iter
        (fun s ->
          match Baseline.run s p with
          | Ok r ->
              Fmt.pr "%-10s %10.3f %10d %12.2f@." (Baseline.name s)
                (Baseline.time_ms r) (Baseline.num_kernels r)
                (Counters.mb
                   (Counters.global_load_bytes r.Baseline.sim.Sim.total))
          | Error m ->
              Fmt.pr "%-10s %10s   (%s)@." (Baseline.name s) "Failed" m)
        Baseline.all;
      let r = Souffle.compile p in
      Fmt.pr "%-10s %10.3f %10d %12.2f@." "Souffle" (Souffle.time_ms r)
        (Souffle.num_kernels r)
        (Counters.mb (Counters.global_load_bytes r.Souffle.sim.Sim.total));
      0

let compare_cmd =
  Cmd.v
    (Cmd.info "compare"
       ~doc:"Run a model through every baseline system and Souffle")
    Term.(const compare_run $ model_arg $ tiny_arg)

let analyze_run model tiny =
  protect Diag.Analysis @@ fun () ->
  match lookup_model model with
  | Error m ->
      Fmt.epr "error: %s@." m;
      1
  | Ok entry ->
      let p = program_of entry tiny in
      let an = Analysis.run p in
      Fmt.pr "%a@." Analysis.pp an;
      0

let analyze_cmd =
  Cmd.v
    (Cmd.info "analyze"
       ~doc:"Print the Sec. 5 global analysis of a model's TE program")
    Term.(const analyze_run $ model_arg $ tiny_arg)

(* ---- serve: multi-stream serving on the simulated device ---- *)

let mix_arg =
  let doc =
    "Weighted model mix, e.g. $(b,bert=2,mmoe): comma-separated model \
     names, each optionally weighted with =W (default 1)."
  in
  Arg.(required & opt (some string) None & info [ "mix" ] ~docv:"MIX" ~doc)

let rate_arg =
  let doc =
    "Offered load in requests per second of simulated time (open-loop \
     Poisson arrivals).  0 means a closed batch: every request arrives at \
     time zero."
  in
  Arg.(value & opt float 0. & info [ "rate" ] ~docv:"RPS" ~doc)

let requests_arg =
  let doc = "Number of requests to serve." in
  Arg.(value & opt int 32 & info [ "n"; "requests" ] ~docv:"N" ~doc)

let streams_arg =
  let doc = "Concurrency bound: how many requests may share the device." in
  Arg.(value & opt int 4 & info [ "streams" ] ~docv:"N" ~doc)

let policy_arg =
  let doc = "Dispatch policy: fifo (arrival order) or sel (shortest expected latency)." in
  Arg.(value & opt string "fifo" & info [ "policy" ] ~docv:"POLICY" ~doc)

let seed_arg =
  let doc = "Workload seed; the same seed reproduces the run exactly." in
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc)

let serve_json_arg =
  let doc = "Write the full outcome (summary + per-request records) as JSON to $(docv)." in
  Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE" ~doc)

let serve_trace_arg =
  let doc =
    "Write a Chrome-trace timeline of the serving run to $(docv): one \
     swimlane per concurrency slot, one span per request with its \
     contended kernel slices as children."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let chaos_arg =
  let doc =
    "Arm the runtime fault model: comma-separated clauses \
     $(b,kfault=P) (per-attempt kernel-fault probability), \
     $(b,khang=P), $(b,khang=PxF) or $(b,khang=Pxinf) (kernel-hang \
     probability with stretch factor F), \
     $(b,throttle=C@S+D) (capacity C in (0,1] from S ms for D ms), and \
     $(b,seed=N).  $(b,none) arms a zero-fault spec (byte-identical to \
     not arming chaos at all)."
  in
  Arg.(value & opt (some string) None & info [ "chaos" ] ~docv:"SPEC" ~doc)

let deadline_ms_arg =
  let doc =
    "Per-request latency SLO in milliseconds: requests not finished this \
     long after arrival are cancelled (in flight) or expired (queued)."
  in
  Arg.(value & opt (some float) None & info [ "deadline-ms" ] ~docv:"MS" ~doc)

let retries_arg =
  let doc =
    "How many times a request struck by a runtime fault is re-dispatched \
     on a fresh stream (deterministic linear backoff) before it is failed."
  in
  Arg.(value & opt int 0 & info [ "retries" ] ~docv:"K" ~doc)

let backoff_us_arg =
  let doc = "Retry backoff step in microseconds (the k-th retry waits k times this)." in
  Arg.(value & opt float 50. & info [ "backoff-us" ] ~docv:"US" ~doc)

let queue_cap_arg =
  let doc =
    "Bound the pending queue at $(docv) requests; arrivals beyond it are \
     dropped per --drop (admission control / load shedding)."
  in
  Arg.(value & opt (some int) None & info [ "queue-cap" ] ~docv:"M" ~doc)

let drop_arg =
  let doc =
    "Overflow drop policy: $(b,reject) (drop the newest arrival) or \
     $(b,shed) (first shed queued requests that can no longer meet their \
     SLO given the solo-latency estimate)."
  in
  Arg.(value & opt string "reject" & info [ "drop" ] ~docv:"POLICY" ~doc)

let batch_max_arg =
  let doc =
    "Continuous batching: coalesce queued first-attempt requests for the \
     same model into power-of-two buckets of up to $(docv) lanes (1 \
     disables batching).  Each bucket shape is compiled once up front as \
     its own shape-polymorphic artifact; pair with --schedule-cache so the \
     extra compiles hit warm schedules."
  in
  Arg.(value & opt int 1 & info [ "batch-max" ] ~docv:"N" ~doc)

let gen_arg =
  let doc =
    "Tokens to generate per request (0 = classic one-shot serving).  Each \
     request becomes one prefill dispatch plus $(docv) single-token decode \
     steps that re-enter the queue carrying their KV cache.  The prompt \
     length is the model's smallest KV position bucket, and every \
     power-of-two position bucket the generation walks through is compiled \
     up front as its own artifact.  Requires every model in --mix to \
     support decode (currently: gpt)."
  in
  Arg.(value & opt int 0 & info [ "gen" ] ~docv:"LEN" ~doc)

(* Validate every model name in the mix against the zoo before compiling
   anything: a typo in the third model must not cost two compiles first. *)
let validate_mix (mix : Workload.mix) : (unit, Diag.t) result =
  let rec go = function
    | [] -> Ok ()
    | (name, _) :: rest -> (
        match Zoo.find name with
        | Some _ -> go rest
        | None ->
            Error
              (Diag.error ~subject:name Diag.Validate
                 ~hint:
                   (Fmt.str "available models: %s"
                      (String.concat ", "
                         (List.map String.lowercase_ascii Zoo.names)))
                 (Fmt.str "unknown model %S in --mix" name)))
  in
  go mix

let serve_run mix rate requests streams policy seed tiny level strict
    json_out trace_out chaos_spec deadline_ms retries backoff_us queue_cap
    drop batch_max gen sched_cache_path mega =
  protect Diag.Simulate @@ fun () ->
  let mix_spec = mix in
  let fail m =
    Fmt.epr "error: %s@." m;
    1
  in
  match
    ( Workload.parse_mix mix,
      Scheduler.policy_of_string (String.lowercase_ascii policy),
      level_of_string (String.lowercase_ascii level) )
  with
  | Error m, _, _ -> fail m
  | _, None, _ -> fail (Fmt.str "unknown policy %S (fifo or sel)" policy)
  | _, _, Error m -> fail m
  | Ok mix, Some policy, Ok level ->
      if streams < 1 then fail "--streams must be >= 1"
      else if requests < 1 then fail "--requests must be >= 1"
      else if batch_max < 1 then fail "--batch-max must be >= 1"
      else if gen < 0 then fail "--gen must be >= 0"
      else begin
        let dev = Souffle.default_config.Souffle.device in
        let sched_cache = Option.map Scache.load sched_cache_path in
        let cfg_at ?pos batch =
          Souffle.config ~level ?sched_cache ~batch ?pos ~mega ()
        in
        (* decode support and KV position buckets for generation serving *)
        let decode_thunk (e : Zoo.entry) =
          if tiny then e.Zoo.decode_tiny else e.Zoo.decode_full
        in
        let pos_buckets = if tiny then Gpt.tiny_buckets else Gpt.buckets in
        let gen_prompt = List.hd pos_buckets in
        (* decode step t reads a cache of [gen_prompt + t - 1] entries; each
           distinct covering bucket is compiled once (the largest bucket
           absorbs caches that outgrow the ladder) *)
        let needed_pos =
          if gen = 0 then []
          else begin
            let max_b = List.fold_left max 0 pos_buckets in
            List.init gen (fun t -> gen_prompt + t)
            |> List.map (fun c ->
                   match List.find_opt (fun b -> b >= c) pos_buckets with
                   | Some b -> b
                   | None -> max_b)
            |> List.sort_uniq compare
          end
        in
        (* compile one model at one batch shape, report, build the artifact *)
        let compile_one (e : Zoo.entry) batch =
          match
            Souffle.compile_result ~cfg:(cfg_at batch) ~strict
              (program_of e tiny)
          with
          | Error ds ->
              Error
                (Fmt.str "%s: %s" e.Zoo.name
                   (String.concat "; " (List.map Diag.to_string ds)))
          | Ok r ->
              (* with --mega, requests run on the persistent-kernel
                 artifact; a rejected lowering falls back to multi-kernel *)
              let a =
                match r.Souffle.mega with
                | Some m ->
                    Scheduler.artifact_of_taskgraph dev ~model:e.Zoo.name
                      ~batch
                      ~degraded:(List.length r.Souffle.degraded)
                      m.Souffle.m_graph
                | None ->
                    Scheduler.artifact_of_prog dev ~model:e.Zoo.name ~batch
                      ~degraded:(List.length r.Souffle.degraded)
                      r.Souffle.prog
              in
              Fmt.pr "compiled %-14s %2d kernel(s), solo %10.2f us%s%s@."
                (if batch = 1 then e.Zoo.name
                 else Fmt.str "%s x%d" e.Zoo.name batch)
                (List.length r.Souffle.prog.Kernel_ir.kernels)
                a.Scheduler.art_solo_us
                (match r.Souffle.mega with
                | Some m ->
                    Fmt.str " [mega: %d task(s), 1 launch]"
                      (Kernel_ir.num_tasks m.Souffle.m_graph)
                | None when mega -> " [mega skipped]"
                | None -> "")
                (if r.Souffle.degraded = [] then ""
                 else
                   Fmt.str " (%d degradation step(s))"
                     (List.length r.Souffle.degraded));
              Ok a
        in
        (* the base shape plus every power-of-two bucket up to --batch-max *)
        let rec compile_buckets e b acc =
          if b > batch_max then Ok (List.rev acc)
          else
            match compile_one e b with
            | Error m -> Error m
            | Ok a -> compile_buckets e (b * 2) (a :: acc)
        in
        (* one decode-step artifact at one KV position bucket *)
        let compile_decode (e : Zoo.entry) (dec : pos:int -> Dgraph.t) pos =
          match
            Souffle.compile_result ~cfg:(cfg_at ~pos 1) ~strict
              (Lower.run (dec ~pos))
          with
          | Error ds ->
              Error
                (Fmt.str "%s@%d: %s" e.Zoo.name pos
                   (String.concat "; " (List.map Diag.to_string ds)))
          | Ok r ->
              let a =
                match r.Souffle.mega with
                | Some m ->
                    Scheduler.artifact_of_taskgraph dev ~model:e.Zoo.name
                      ~pos
                      ~degraded:(List.length r.Souffle.degraded)
                      m.Souffle.m_graph
                | None ->
                    Scheduler.artifact_of_prog dev ~model:e.Zoo.name ~pos
                      ~degraded:(List.length r.Souffle.degraded)
                      r.Souffle.prog
              in
              Fmt.pr "compiled %-14s %2d kernel(s), solo %10.2f us%s%s@."
                (Fmt.str "%s @%d" e.Zoo.name pos)
                (List.length r.Souffle.prog.Kernel_ir.kernels)
                a.Scheduler.art_solo_us
                (match r.Souffle.mega with
                | Some m ->
                    Fmt.str " [mega: %d task(s), 1 launch]"
                      (Kernel_ir.num_tasks m.Souffle.m_graph)
                | None when mega -> " [mega skipped]"
                | None -> "")
                (if r.Souffle.degraded = [] then ""
                 else
                   Fmt.str " (%d degradation step(s))"
                     (List.length r.Souffle.degraded));
              Ok a
        in
        (* every KV position bucket the generation walks through *)
        let compile_decodes (e : Zoo.entry) =
          match (needed_pos, decode_thunk e) with
          | [], _ -> Ok []
          | _, None ->
              Error
                (Fmt.str
                   "--gen: model %s has no decode mode (generation needs a \
                    KV-cache decode graph; currently: gpt)"
                   e.Zoo.name)
          | ps, Some dec ->
              let rec go acc = function
                | [] -> Ok (List.rev acc)
                | p :: rest -> (
                    match compile_decode e dec p with
                    | Error m -> Error m
                    | Ok a -> go (a :: acc) rest)
              in
              go [] ps
        in
        (* canonicalize mix names and compile each distinct model once *)
        let rec build canon arts = function
          | [] -> Ok (List.rev canon, List.rev arts)
          | (name, w) :: rest -> (
              match lookup_model name with
              | Error m -> Error m
              | Ok e ->
                  let canon = (e.Zoo.name, w) :: canon in
                  if
                    List.exists
                      (fun (a : Scheduler.artifact) ->
                        a.Scheduler.art_model = e.Zoo.name)
                      arts
                  then build canon arts rest
                  else (
                    match compile_buckets e 1 [] with
                    | Error m -> Error m
                    | Ok bs -> (
                        match compile_decodes e with
                        | Error m -> Error m
                        | Ok ds ->
                            build canon
                              (List.rev_append ds (List.rev_append bs arts))
                              rest)))
        in
        let save_cache () =
          match (sched_cache, sched_cache_path) with
          | Some c, Some path ->
              if Scache.dirty c then Scache.save c path;
              Fmt.pr "%a (%s)@." Scache.pp c path
          | _ -> ()
        in
        let lifecycle_opts =
          Result.bind
            (match Scheduler.drop_of_string (String.lowercase_ascii drop) with
            | Some d -> Ok d
            | None -> Error (Fmt.str "unknown drop policy %S (reject or shed)" drop))
          @@ fun drop ->
          Result.bind
            (match chaos_spec with
            | None -> Ok None
            | Some s ->
                Result.map Option.some (Faultinject.parse_chaos s)
                |> Result.map_error (fun m -> Fmt.str "--chaos: %s" m))
          @@ fun chaos ->
          if retries < 0 then Error "--retries must be >= 0"
          else if backoff_us < 0. then Error "--backoff-us must be >= 0"
          else
            match (deadline_ms, queue_cap) with
            | Some d, _ when d <= 0. -> Error "--deadline-ms must be > 0"
            | _, Some c when c < 1 -> Error "--queue-cap must be >= 1"
            | _ -> Ok (drop, chaos)
        in
        match lifecycle_opts with
        | Error m -> fail m
        | Ok (drop, chaos) -> (
            match validate_mix mix with
            | Error d ->
                Fmt.epr "%a@." Diag.pp d;
                1
            | Ok () -> (
                match build [] [] mix with
                | Error m -> fail m
                | Ok (mix, artifacts) ->
                    save_cache ();
                    let slo_us = Option.map (fun ms -> ms *. 1e3) deadline_ms in
                    let reqs =
                      Workload.generate ~seed ~rate_rps:rate ~requests ?slo_us
                        ~gen mix
                    in
                    let cfg =
                      Scheduler.cfg ?queue_cap ~drop ~retries ~backoff_us
                        ?deadline_us:slo_us ?chaos ~max_batch:batch_max
                        ~gen_prompt:(if gen > 0 then gen_prompt else 0)
                        ~policy ~max_streams:streams ()
                    in
                    (if chaos <> None then
                       Fmt.pr "chaos: %s@."
                         (Faultinject.chaos_to_string (Option.get chaos)));
                    let outcome = Scheduler.run dev cfg ~artifacts reqs in
                    List.iter
                      (fun (d : Diag.t) ->
                        if d.Diag.severity = Diag.Error then
                          Fmt.epr "%a@." Diag.pp d)
                      outcome.Scheduler.o_diags;
                    Fmt.pr "@.%a@."
                      Serve_report.pp_summary
                      (Serve_report.summarize outcome);
                    (match trace_out with
                    | None -> ()
                    | Some path ->
                        let t = Serve_report.chrome_trace outcome in
                        Obs.to_chrome_file t path;
                        Fmt.pr "trace: wrote %s (%d spans)@." path
                          (Obs.span_count t));
                    (match json_out with
                    | None -> ()
                    | Some path ->
                        let oc = open_out path in
                        Fun.protect
                          ~finally:(fun () -> close_out oc)
                          (fun () ->
                            output_string oc
                              (Jsonlite.to_string
                                 (Serve_report.outcome_json
                                    ~label:
                                      (Fmt.str "souffle serve --mix %s"
                                         mix_spec)
                                    outcome)));
                        Fmt.pr "json: wrote %s@." path);
                    if strict && outcome.Scheduler.o_failed <> [] then 1 else 0))
      end

let serve_cmd =
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Serve a stream of inference requests concurrently on the \
          simulated device")
    Term.(
      const serve_run $ mix_arg $ rate_arg $ requests_arg $ streams_arg
      $ policy_arg $ seed_arg $ tiny_arg $ level_arg $ strict_arg
      $ serve_json_arg $ serve_trace_arg $ chaos_arg $ deadline_ms_arg
      $ retries_arg $ backoff_us_arg $ queue_cap_arg $ drop_arg
      $ batch_max_arg $ gen_arg $ sched_cache_arg $ mega_arg)

let dump_run model tiny output =
  protect Diag.Validate @@ fun () ->
  match lookup_model model with
  | Error m ->
      Fmt.epr "error: %s@." m;
      1
  | Ok entry -> (
      let g = graph_of entry tiny in
      match output with
      | None ->
          print_string (Serialize.to_string g);
          0
      | Some path ->
          Serialize.to_file g path;
          Fmt.pr "wrote %s (%d nodes)@." path (Dgraph.num_nodes g);
          0)

let dump_cmd =
  let output_arg =
    let doc = "Write the graph to this file instead of stdout." in
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc)
  in
  Cmd.v
    (Cmd.info "dump"
       ~doc:"Serialize a built-in model to the textual graph format")
    Term.(const dump_run $ model_arg $ tiny_arg $ output_arg)

let main_cmd =
  let doc = "Souffle: DNN inference optimization via global analysis and tensor expressions" in
  Cmd.group
    (Cmd.info "souffle" ~version:"1.0" ~doc)
    [ list_cmd; compile_cmd; compare_cmd; analyze_cmd; serve_cmd; dump_cmd ]

let () = exit (Cmd.eval' main_cmd)
