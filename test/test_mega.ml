(* Tests for mega-kernelization: lowering a compiled multi-kernel program
   into one persistent task-graph kernel, simulating it, and re-verifying
   its cross-task dataflow. *)

let dev = Device.a100

let compile_mega (e : Zoo.entry) : Souffle.report =
  let p = Lower.run (e.Zoo.tiny ()) in
  match Souffle.compile_result ~cfg:(Souffle.config ~mega:true ()) p with
  | Ok r -> r
  | Error ds ->
      Alcotest.failf "%s failed to compile: %s" e.Zoo.name
        (String.concat "; " (List.map Diag.to_string ds))

let mega_of (e : Zoo.entry) (r : Souffle.report) : Souffle.mega_result =
  match r.Souffle.mega with
  | Some m -> m
  | None -> Alcotest.failf "%s: mega lowering was rejected" e.Zoo.name

(* ---- lowering structure -------------------------------------------- *)

let test_lower_structure () =
  let e = Option.get (Zoo.find "bert") in
  let r = compile_mega e in
  let m = mega_of e r in
  let tg = m.Souffle.m_graph in
  let kernels = List.length r.Souffle.prog.Kernel_ir.kernels in
  Alcotest.(check int) "kernel count recorded" kernels
    tg.Kernel_ir.tg_kernels;
  Alcotest.(check bool) "at least one task per kernel" true
    (Kernel_ir.num_tasks tg >= kernels);
  Alcotest.(check int) "all launches but one elided" (kernels - 1)
    (Kernel_ir.launches_elided tg);
  (* edges are topological: every dependency points at an earlier task *)
  Array.iteri
    (fun i (t : Kernel_ir.task) ->
      List.iter
        (fun d ->
          if d < 0 || d >= i then
            Alcotest.failf "task %d depends on %d (not earlier)" i d)
        t.Kernel_ir.t_deps)
    tg.Kernel_ir.tg_tasks;
  (* grid barriers became edges: no task retains a Grid_sync *)
  Array.iter
    (fun (t : Kernel_ir.task) ->
      Alcotest.(check int)
        (t.Kernel_ir.t_kernel.Kernel_ir.kname ^ " has no grid syncs")
        0
        (Kernel_ir.num_grid_syncs t.Kernel_ir.t_kernel))
    tg.Kernel_ir.tg_tasks

(* ---- simulation: one launch, strictly faster, equivalent ------------ *)

let test_zoo_mega_sim () =
  List.iter
    (fun (e : Zoo.entry) ->
      let r = compile_mega e in
      let m = mega_of e r in
      let total = m.Souffle.m_sim.Sim.total in
      Alcotest.(check int)
        (e.Zoo.name ^ ": exactly one launch charge")
        1 total.Counters.kernel_launches;
      (* one launch charge instead of K, grid syncs traded for edges:
         with two or more kernels the mega program must be strictly
         faster than the multi-kernel one *)
      if List.length r.Souffle.prog.Kernel_ir.kernels >= 2 then
        Alcotest.(check bool)
          (e.Zoo.name ^ ": mega strictly faster than multi-kernel")
          true
          (total.Counters.time_us
          < r.Souffle.sim.Sim.total.Counters.time_us);
      (* the lowering touches execution order, not semantics: the
         compiled artifact still computes the original program *)
      match Souffle.verify r with
      | Ok () -> ()
      | Error msg ->
          Alcotest.failf "%s: not equivalent under mega: %s" e.Zoo.name msg)
    Zoo.all

(* ---- serving replay: Sim.run_mega == Sim.Multi on one stream -------- *)

let test_multi_replay_bit_exact () =
  List.iter
    (fun (e : Zoo.entry) ->
      let r = compile_mega e in
      let m = mega_of e r in
      let solo = m.Souffle.m_sim.Sim.total.Counters.time_us in
      let eng = Sim.Multi.create dev in
      let s = Sim.Multi.launch eng m.Souffle.m_sim.Sim.profiles in
      (match Sim.Multi.advance eng ~until:infinity with
      | `Completed _ | `Idle -> ()
      | `Reached | `Stalled _ ->
          Alcotest.failf "%s: mega stream did not complete" e.Zoo.name);
      (* bit-exact, not approximately equal: an uncontended stream must
         reproduce the solo simulation float for float *)
      Alcotest.(check bool)
        (e.Zoo.name ^ ": service time bit-exact")
        true
        (s.Sim.Multi.st_service_us = solo);
      Alcotest.(check bool)
        (e.Zoo.name ^ ": finish time bit-exact")
        true
        (s.Sim.Multi.st_finish_us = Some solo))
    Zoo.all

(* ---- dataflow verifier on hand-built task graphs -------------------- *)

(* inputs a and b, intermediate t — the same toy env test_dataflow uses *)
let env : Dataflow.env =
  let sizes = [ ("a", 1024); ("b", 2048); ("t", 4096) ] in
  {
    Dataflow.is_input = (fun n -> n = "a" || n = "b");
    bytes_of = (fun n -> List.assoc_opt n sizes);
  }

let producer =
  Kernel_ir.kernel ~name:"k0" ~grid_blocks:32
    [
      Kernel_ir.stage ~label:"make_t" ~produces:[ "t" ]
        [ Kernel_ir.ldg ~tensor:"a" 1024; Kernel_ir.stg ~tensor:"t" 4096 ];
    ]

let consumer =
  Kernel_ir.kernel ~name:"k1" ~grid_blocks:32
    [
      Kernel_ir.stage ~label:"use_t" ~produces:[ "o" ]
        [ Kernel_ir.ldl2 ~tensor:"t" 4096; Kernel_ir.ldg ~tensor:"b" 2048 ];
    ]

let graph tasks =
  {
    Kernel_ir.tg_name = "toy+mega";
    tg_kernels = List.length tasks;
    tg_tasks =
      Array.of_list
        (List.map
           (fun (k, deps) -> { Kernel_ir.t_kernel = k; t_deps = deps })
           tasks);
  }

let test_taskgraph_verifier () =
  (* with the producer edge in place the graph is clean *)
  (match
     Dataflow.check_taskgraph dev env
       (graph [ (producer, []); (consumer, [ 0 ]) ])
   with
  | Ok () -> ()
  | Error ds ->
      Alcotest.failf "legal graph rejected: %s"
        (String.concat "; " (List.map Diag.to_string ds)));
  (* dropping the producer/consumer edge must surface as a typed
     provenance error: the consumer's ldl2 re-read has no ancestor that
     produced t *)
  (match
     Dataflow.check_taskgraph dev env
       (graph [ (producer, []); (consumer, []) ])
   with
  | Ok () -> Alcotest.fail "broken edge accepted"
  | Error ds ->
      Alcotest.(check bool) "diagnostic names the missing production" true
        (List.exists
           (fun (d : Diag.t) ->
             d.Diag.pass = Diag.Dataflow
             && Astring.String.is_infix ~affix:"before any kernel/stage"
                  d.Diag.message)
           ds));
  (* a dependency that is not an earlier task is a structural error *)
  match
    Dataflow.check_taskgraph dev env
      (graph [ (producer, [ 1 ]); (consumer, [ 0 ]) ])
  with
  | Ok () -> Alcotest.fail "forward dependency accepted"
  | Error ds ->
      Alcotest.(check bool) "diagnostic names the bad edge" true
        (List.exists
           (fun (d : Diag.t) ->
             Astring.String.is_infix ~affix:"not an earlier task"
               d.Diag.message)
           ds)

(* ---- megakernel verify: worker feasibility + provenance ------------- *)

let test_verify_lowered_zoo () =
  List.iter
    (fun (e : Zoo.entry) ->
      let r = compile_mega e in
      let m = mega_of e r in
      match
        Megakernel.verify dev
          (Souffle.dataflow_env r.Souffle.transformed)
          m.Souffle.m_graph
      with
      | Ok () -> ()
      | Error ds ->
          Alcotest.failf "%s: lowered graph failed verification: %s"
            e.Zoo.name
            (String.concat "; " (List.map Diag.to_string ds)))
    Zoo.all

let suite =
  [
    Alcotest.test_case "lowering structure" `Quick test_lower_structure;
    Alcotest.test_case "zoo: one launch, faster, equivalent" `Slow
      test_zoo_mega_sim;
    Alcotest.test_case "multi-stream replay bit-exact" `Quick
      test_multi_replay_bit_exact;
    Alcotest.test_case "taskgraph dataflow verifier" `Quick
      test_taskgraph_verifier;
    Alcotest.test_case "zoo: lowered graphs verify" `Slow
      test_verify_lowered_zoo;
  ]
