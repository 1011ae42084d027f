(* Tests for the compile-throughput layer: constructive scheduling and the
   persistent schedule cache (Scache).  The contract under test everywhere
   is determinism — caching must never change what gets compiled. *)

let tiny_programs () =
  List.map (fun (e : Zoo.entry) -> (e.Zoo.name, Lower.run (e.Zoo.tiny ()))) Zoo.all

(* ---- constructive scheduling ---- *)

let test_construct_quality_parity () =
  (* kernel-quality oracle: per zoo model, the constructed schedules'
     simulated end-to-end runtime must stay within 5% of the enumerative
     search's, with no degradation on either side.  The enumerative side
     compiles against a cache seeded with the transformed program's
     enumerated schedules *)
  List.iter
    (fun (name, p) ->
      let compile cfg =
        match Souffle.compile_result ~cfg p with
        | Ok r -> r
        | Error _ -> Alcotest.failf "%s: compile failed" name
      in
      let c = compile Souffle.default_config in
      let oracle = Scache.create () in
      ignore
        (Ansor.schedule_program ~store:(Scache.store oracle) Device.a100
           c.Souffle.transformed);
      let seeded = Scache.length oracle in
      let e = compile (Souffle.config ~sched_cache:oracle ()) in
      Alcotest.(check int)
        (name ^ ": seeded compile adds no cache entries")
        seeded (Scache.length oracle);
      Alcotest.(check (list Alcotest.string))
        (name ^ ": no degradation on either side")
        []
        (List.map
           (fun d -> d.Souffle.d_subject)
           (c.Souffle.degraded @ e.Souffle.degraded));
      let tc = Sim.time_ms c.Souffle.sim and te = Sim.time_ms e.Souffle.sim in
      let rel = if te > 0. then (tc -. te) /. te else 0. in
      if rel > 0.05 then
        Alcotest.failf
          "%s: constructed schedules cost %.1f%% simulated runtime vs \
           exhaustive (%.4f ms vs %.4f ms)"
          name (100. *. rel) tc te)
    (tiny_programs ())

(* ---- persistent cache ---- *)

let tmp name = Filename.concat (Filename.get_temp_dir_name ()) name

let test_cache_roundtrip () =
  let p = Lower.run (Mmoe.create ~cfg:Mmoe.tiny ()) in
  let c = Scache.create () in
  ignore
    (Ansor.schedule_program ~store:(Scache.store c) Device.a100 p);
  Alcotest.(check bool) "search populated the cache" true (Scache.length c > 0);
  Alcotest.(check bool) "cache is dirty after adds" true (Scache.dirty c);
  let path = tmp "scache_roundtrip.json" in
  Scache.save c path;
  Alcotest.(check bool) "save clears dirty" false (Scache.dirty c);
  let c' = Scache.load path in
  Alcotest.(check int) "all entries survive the round trip" (Scache.length c)
    (Scache.length c');
  (* a fresh search against the loaded cache is all hits, no additions *)
  ignore (Ansor.schedule_program ~store:(Scache.store c') Device.a100 p);
  Alcotest.(check bool) "no new entries on reload" false (Scache.dirty c');
  Alcotest.(check bool) "reloaded cache answered finds" true
    (Scache.hits c' > 0);
  Sys.remove path

let test_cache_corrupt_and_stale () =
  let write path s =
    let oc = open_out path in
    output_string oc s;
    close_out oc
  in
  let corrupt = tmp "scache_corrupt.json" in
  write corrupt "{ not json at all";
  Alcotest.(check int) "corrupted file loads as empty cache" 0
    (Scache.length (Scache.load corrupt));
  let stale = tmp "scache_stale.json" in
  write stale
    "{\"format\": \"souffle-scache\", \"version\": 999, \"entries\": {}}";
  Alcotest.(check int) "stale version loads as empty cache" 0
    (Scache.length (Scache.load stale));
  let missing = tmp "scache_does_not_exist.json" in
  Alcotest.(check int) "missing file loads as empty cache" 0
    (Scache.length (Scache.load missing));
  Sys.remove corrupt;
  Sys.remove stale

let test_cache_roundtrip_construct () =
  (* constructed entries persist like searched ones, and a warm
     construction pass is served entirely from the reloaded cache *)
  let p = Lower.run (Mmoe.create ~cfg:Mmoe.tiny ()) in
  let c = Scache.create () in
  ignore (Construct.schedule_program ~store:(Scache.store c) Device.a100 p);
  let n_construct = Scache.length c in
  Alcotest.(check bool) "construction populated the cache" true
    (n_construct > 0);
  let path = tmp "scache_construct_roundtrip.json" in
  Scache.save c path;
  let c' = Scache.load path in
  Alcotest.(check int) "constructed entries survive the round trip"
    n_construct (Scache.length c');
  ignore (Construct.schedule_program ~store:(Scache.store c') Device.a100 p);
  Alcotest.(check bool) "warm construct pass adds nothing" false
    (Scache.dirty c');
  Alcotest.(check bool) "warm construct pass hit the cache" true
    (Scache.hits c' > 0);
  Sys.remove path

let test_warm_cache_skips_search () =
  let p = Lower.run (Bert.create ~cfg:Bert.tiny ()) in
  let cache = Scache.create () in
  let searches trace =
    let n = ref 0 in
    Obs.iter
      (fun s ~depth:_ -> if s.Obs.sname = "ansor-search" then incr n)
      trace;
    !n
  in
  let compile () =
    match
      Souffle.compile_result ~cfg:(Souffle.config ~sched_cache:cache ()) p
    with
    | Ok r -> r
    | Error _ -> Alcotest.fail "compile failed"
  in
  let r1, t1 = Obs.record compile in
  let r2, t2 = Obs.record compile in
  Alcotest.(check bool) "cold compile performed candidate searches" true
    (searches t1 > 0);
  Alcotest.(check int) "warm compile performed zero candidate searches" 0
    (searches t2);
  Alcotest.(check bool) "warm result identical to cold" true
    (r1.Souffle.sim = r2.Souffle.sim && r1.Souffle.prog = r2.Souffle.prog)

(* ---- toposort ---- *)

let test_toposort_stable_wavefront () =
  (* regression for the memoized longest-chain rewrite: the order must stay
     the classic wavefront order — wave k holds every TE whose producers
     all sit in earlier waves, original relative order kept inside a wave *)
  let shape = [| 4 |] in
  let x = ("x", { Program.shape; dtype = Dtype.F32 }) in
  let u name input = Builder.unary ~name ~shape Expr.Relu input in
  let a = u "a" "x" and d = u "d" "x" in
  let b = u "b" "a" in
  let c = u "c" "b" in
  let scrambled =
    Program.make ~inputs:[ x ] ~tes:[ c; a; b; d ] ~outputs:[ "c"; "d" ]
  in
  let sorted = Program.toposort scrambled in
  Alcotest.(check (list Alcotest.string))
    "wavefront order, stable within waves" [ "a"; "d"; "b"; "c" ]
    (Program.te_names sorted);
  (match Program.validate sorted with
  | Ok () -> ()
  | Error m -> Alcotest.failf "sorted program invalid: %s" m);
  (* an already-sorted program re-sorts to itself *)
  Alcotest.(check (list Alcotest.string))
    "idempotent" (Program.te_names sorted)
    (Program.te_names (Program.toposort sorted));
  (* a dependency cycle is reported, not looped on *)
  let e = u "e" "f" and f = u "f" "e" in
  let cyclic = Program.make ~inputs:[ x ] ~tes:[ e; f ] ~outputs:[ "f" ] in
  match Program.toposort cyclic with
  | _ -> Alcotest.fail "cycle not detected"
  | exception Invalid_argument m ->
      Alcotest.(check bool) "cycle error names the pass" true
        (Astring_contains.contains m "Program.toposort")

let test_report_scheds_cover_transformed () =
  (* the report carries the successful attempt's schedule table, so
     downstream renderings never re-run the search *)
  let p = Lower.run (Mmoe.create ~cfg:Mmoe.tiny ()) in
  match Souffle.compile_result p with
  | Error _ -> Alcotest.fail "compile failed"
  | Ok r ->
      List.iter
        (fun (te : Te.t) ->
          Alcotest.(check bool)
            ("schedule recorded for " ^ te.Te.name)
            true
            (Hashtbl.mem r.Souffle.scheds te.Te.name))
        r.Souffle.transformed.Program.tes;
      Alcotest.(check bool) "loop nests render from the report" true
        (String.length (Souffle.te_loop_nests r) > 0)

let suite =
  [
    Alcotest.test_case "construct quality parity with exhaustive" `Quick
      test_construct_quality_parity;
    Alcotest.test_case "cache roundtrip of constructed entries" `Quick
      test_cache_roundtrip_construct;
    Alcotest.test_case "toposort stable wavefront order" `Quick
      test_toposort_stable_wavefront;
    Alcotest.test_case "cache roundtrip" `Quick test_cache_roundtrip;
    Alcotest.test_case "cache corrupt and stale files" `Quick
      test_cache_corrupt_and_stale;
    Alcotest.test_case "warm cache skips search" `Quick
      test_warm_cache_skips_search;
    Alcotest.test_case "report carries schedule table" `Quick
      test_report_scheds_cover_transformed;
  ]
