(* Robustness-layer tests: the V0..V4 level matrix over the zoo, the static
   kernel-IR verifier, and fault-injection-driven graceful degradation. *)

let compile_result_at ?strict level p =
  Souffle.compile_result ?strict ~cfg:(Souffle.config ~level ()) p

let levels = [ Souffle.V0; V1; V2; V3; V4 ]

let ok_or_fail what = function
  | Ok r -> r
  | Error ds ->
      Alcotest.failf "%s: %s" what
        (String.concat "; " (List.map Diag.to_string ds))

(* ---- level matrix ---- *)

let test_level_matrix_all_models () =
  List.iter
    (fun (e : Zoo.entry) ->
      let p = Lower.run (e.Zoo.tiny ()) in
      List.iter
        (fun level ->
          let what =
            Fmt.str "%s at %s" e.Zoo.name (Souffle.level_to_string level)
          in
          let r = ok_or_fail what (compile_result_at level p) in
          Alcotest.(check int) (what ^ ": no degradation") 0
            (List.length r.Souffle.degraded);
          (match Souffle.verify ~rtol:1e-3 r with
          | Ok () -> ()
          | Error m -> Alcotest.failf "%s: not preserved: %s" what m);
          match Verify_ir.check_prog Device.a100 r.Souffle.prog with
          | Ok () -> ()
          | Error ds ->
              Alcotest.failf "%s: emitted kernels rejected: %s" what
                (String.concat "; " (List.map Diag.to_string ds)))
        levels)
    Zoo.all

(* ---- kernel-IR verifier ---- *)

let stage ?(instrs = [ Kernel_ir.Fma { flops = 1024 } ]) label =
  Kernel_ir.stage ~label instrs

let good_kernel =
  Kernel_ir.kernel ~name:"good" ~grid_blocks:108 ~threads_per_block:256
    ~smem_per_block:(48 * 1024) ~regs_per_thread:64
    [ stage "s0"; stage "s1" ]

let rejects what k =
  match Verify_ir.check Device.a100 k with
  | Ok () -> Alcotest.failf "%s: verifier accepted an illegal kernel" what
  | Error ds ->
      Alcotest.(check bool) (what ^ ": all diagnostics are errors") true
        (List.for_all Diag.is_error ds)

let test_verifier_accepts_legal () =
  match Verify_ir.check Device.a100 good_kernel with
  | Ok () -> ()
  | Error ds ->
      Alcotest.failf "legal kernel rejected: %s"
        (String.concat "; " (List.map Diag.to_string ds))

let test_verifier_rejects_smem () =
  rejects "smem over budget"
    (Kernel_ir.kernel ~name:"bad_smem" ~grid_blocks:8
       ~smem_per_block:(200 * 1024) [ stage "s0" ])

let test_verifier_rejects_regs () =
  rejects "regs over budget"
    (Kernel_ir.kernel ~name:"bad_regs" ~grid_blocks:8 ~regs_per_thread:512
       [ stage "s0" ])

let test_verifier_rejects_threads () =
  rejects "threads over device max"
    (Kernel_ir.kernel ~name:"bad_threads" ~grid_blocks:8
       ~threads_per_block:2048 [ stage "s0" ])

let test_verifier_rejects_coop_over_wave () =
  (* 50k blocks of 256 threads cannot all be resident: grid.sync deadlocks *)
  rejects "cooperative grid exceeds one wave"
    (Kernel_ir.kernel ~name:"bad_coop" ~grid_blocks:50_000
       [ stage "s0"; stage ~instrs:[ Kernel_ir.Grid_sync ] "s1" ])

let test_verifier_rejects_sync_in_first_stage () =
  rejects "grid.sync in stage 0"
    (Kernel_ir.kernel ~name:"bad_sync0" ~grid_blocks:8
       [ stage ~instrs:[ Kernel_ir.Grid_sync ] "s0" ])

let test_verifier_rejects_sync_mid_stage () =
  rejects "grid.sync not at the stage boundary"
    (Kernel_ir.kernel ~name:"bad_sync_mid" ~grid_blocks:8
       [
         stage "s0";
         stage
           ~instrs:
             [ Kernel_ir.Fma { flops = 16 }; Kernel_ir.Grid_sync ]
           "s1";
       ])

let test_verifier_rejects_sync_in_library_call () =
  rejects "grid.sync inside a library call"
    (Kernel_ir.kernel ~name:"bad_lib" ~grid_blocks:8 ~library_call:true
       [ stage "s0"; stage ~instrs:[ Kernel_ir.Grid_sync ] "s1" ])

let test_verifier_rejects_negative_bytes () =
  rejects "negative byte count"
    (Kernel_ir.kernel ~name:"bad_bytes" ~grid_blocks:8
       [ stage ~instrs:[ Kernel_ir.ldg (-4) ] "s0" ])

let test_verifier_rejects_empty_kernel () =
  rejects "kernel with no stages"
    (Kernel_ir.kernel ~name:"bad_empty" ~grid_blocks:8 [])

(* ---- fault injection: every pass, every zoo model ---- *)

let pass_faults =
  [
    Diag.Horizontal;
    Diag.Vertical;
    Diag.Schedule;
    Diag.Partition;
    Diag.Emit;
    Diag.Simulate;
  ]

let compile_with_fault ?seed spec p =
  Faultinject.with_fault ?seed spec (fun () -> compile_result_at Souffle.V4 p)

let test_injected_pass_failure_degrades () =
  List.iter
    (fun (e : Zoo.entry) ->
      let p = Lower.run (e.Zoo.tiny ()) in
      List.iter
        (fun pass ->
          let what = Fmt.str "%s + fail(%s)" e.Zoo.name (Diag.pass_name pass) in
          let result, trips = compile_with_fault (Faultinject.Fail_pass pass) p in
          Alcotest.(check int) (what ^ ": fault tripped once") 1 trips;
          let r = ok_or_fail what result in
          (* degradation engaged, exactly one level down from V4 *)
          Alcotest.(check bool) (what ^ ": degradation recorded") true
            (r.Souffle.degraded <> []);
          Alcotest.(check bool) (what ^ ": degraded V4 -> V3") true
            (List.exists
               (fun (d : Souffle.degradation) ->
                 d.Souffle.d_from = Souffle.V4 && d.Souffle.d_to = Souffle.V3
                 && d.Souffle.d_pass = pass)
               r.Souffle.degraded);
          (* the failure itself is in the typed diagnostics *)
          Alcotest.(check bool) (what ^ ": error diagnostic recorded") true
            (List.exists
               (fun d -> Diag.is_error d && d.Diag.pass = pass)
               r.Souffle.diags);
          (* and the result is still semantically correct *)
          match Souffle.verify ~rtol:1e-3 r with
          | Ok () -> ()
          | Error m -> Alcotest.failf "%s: not preserved: %s" what m)
        pass_faults)
    Zoo.all

let test_corrupt_smem_degrades_via_verifier () =
  let p = Lower.run (Mmoe.create ~cfg:Mmoe.tiny ()) in
  let result, trips = compile_with_fault (Faultinject.Corrupt_smem 64) p in
  Alcotest.(check int) "corruption applied once" 1 trips;
  let r = ok_or_fail "corrupt smem" result in
  Alcotest.(check bool) "verifier-triggered degradation" true
    (List.exists
       (fun (d : Souffle.degradation) -> d.Souffle.d_pass = Diag.Verify_ir)
       r.Souffle.degraded);
  (match Verify_ir.check_prog Device.a100 r.Souffle.prog with
  | Ok () -> ()
  | Error ds ->
      Alcotest.failf "final program rejected: %s"
        (String.concat "; " (List.map Diag.to_string ds)));
  match Souffle.verify ~rtol:1e-3 r with
  | Ok () -> ()
  | Error m -> Alcotest.failf "not preserved: %s" m

let test_corrupt_grid_degrades_via_verifier () =
  let p = Lower.run (Mmoe.create ~cfg:Mmoe.tiny ()) in
  let result, _ = compile_with_fault (Faultinject.Corrupt_grid 64) p in
  let r = ok_or_fail "corrupt grid" result in
  Alcotest.(check bool) "verifier-triggered degradation" true
    (List.exists
       (fun (d : Souffle.degradation) -> d.Souffle.d_pass = Diag.Verify_ir)
       r.Souffle.degraded);
  match Verify_ir.check_prog Device.a100 r.Souffle.prog with
  | Ok () -> ()
  | Error ds ->
      Alcotest.failf "final program rejected: %s"
        (String.concat "; " (List.map Diag.to_string ds))

let test_strict_turns_degradation_into_error () =
  let p = Lower.run (Mmoe.create ~cfg:Mmoe.tiny ()) in
  let result, _ =
    Faultinject.with_fault (Faultinject.Fail_pass Diag.Emit) (fun () ->
        compile_result_at ~strict:true Souffle.V4 p)
  in
  match result with
  | Ok _ -> Alcotest.fail "strict mode accepted a degraded compilation"
  | Error ds ->
      Alcotest.(check bool) "mentions strict" true
        (List.exists
           (fun d -> Astring_contains.contains d.Diag.message "strict")
           ds)

let test_persistent_fault_exhausts_ladder () =
  (* a pass that fails at every level bottoms out as a hard error *)
  let p = Lower.run (Mmoe.create ~cfg:Mmoe.tiny ()) in
  let result, _ =
    Faultinject.with_fault ~times:max_int
      (Faultinject.Fail_pass Diag.Schedule) (fun () ->
        compile_result_at Souffle.V4 p)
  in
  (match result with
  | Ok _ -> Alcotest.fail "compilation succeeded with scheduling always failing"
  | Error ds ->
      Alcotest.(check bool) "typed diagnostics returned" true (ds <> []));
  (* the harness must be disarmed afterwards: a clean compile follows *)
  ignore (ok_or_fail "after disarm" (compile_result_at Souffle.V4 p))

let test_seeded_faults_deterministic () =
  let p = Lower.run (Bert.create ~cfg:Bert.tiny ()) in
  let run () =
    let result, trips =
      compile_with_fault ~seed:7 (Faultinject.Fail_pass Diag.Emit) p
    in
    let r = ok_or_fail "seeded" result in
    ( trips,
      List.map
        (fun (d : Souffle.degradation) ->
          (d.Souffle.d_subject, Souffle.level_rank d.Souffle.d_to))
        r.Souffle.degraded )
  in
  let a = run () and b = run () in
  Alcotest.(check bool) "same seed, same degradations" true (a = b)

let test_compile_raises_on_exhausted_ladder () =
  let p = Lower.run (Mmoe.create ~cfg:Mmoe.tiny ()) in
  Faultinject.arm ~times:max_int (Faultinject.Fail_pass Diag.Simulate);
  let raised =
    match Souffle.compile p with
    | (_ : Souffle.report) -> false
    | exception Invalid_argument _ -> true
  in
  Faultinject.disarm ();
  Alcotest.(check bool) "compile raises Invalid_argument" true raised

(* ---- per-TE (subgroup-level) degradation ---- *)

(* A diamond chain whose vertical transformation leaves four TEs
   (a, d, e, out) in one cooperative subprogram, which below V3 splits
   into two Ansor subgroups: [a; d] and [e; out]. *)
let diamond_chain () =
  let b = Dgraph.B.create () in
  let x = Dgraph.B.input b "x" (Shape.of_list [ 128; 128 ]) in
  let w1 = Dgraph.B.input b "w1" (Shape.of_list [ 128; 128 ]) in
  let w2 = Dgraph.B.input b "w2" (Shape.of_list [ 128; 128 ]) in
  let a = Dgraph.B.add b ~name:"a" Op.Matmul [ x; w1 ] in
  let r1 = Dgraph.B.add b ~name:"b" (Op.Unary Expr.Relu) [ a ] in
  let s1 = Dgraph.B.add b ~name:"c" (Op.Unary Expr.Sigmoid) [ a ] in
  let d = Dgraph.B.add b ~name:"d" (Op.Binary Expr.Add) [ r1; s1 ] in
  let e = Dgraph.B.add b ~name:"e" Op.Matmul [ d; w2 ] in
  let f = Dgraph.B.add b ~name:"f" (Op.Unary Expr.Relu) [ e ] in
  let g = Dgraph.B.add b ~name:"g" (Op.Unary Expr.Sigmoid) [ e ] in
  let out = Dgraph.B.add b ~name:"out" (Op.Binary Expr.Add) [ f; g ] in
  Dgraph.B.finish b ~outputs:[ out ]

(* Four persistent smem corruptions walk the ladder: the first two reject
   the whole-subprogram cooperative kernel (V4, V3 — program-wide by
   construction), the next two hit the first subgroup after the split.
   Only that subgroup's TEs may drop further: it ends as one kernel per TE
   while its sibling subgroup still emits fused at the rank the group
   settled at — 3 kernels total.  The pre-fix behavior re-emitted the
   whole group one level lower on every rejection, ending at V0 with one
   kernel per TE across the board (4 kernels). *)
let test_subgroup_degradation_is_local () =
  let p = Lower.run (diamond_chain ()) in
  let result, trips =
    Faultinject.with_fault ~times:4 (Faultinject.Corrupt_smem 64) (fun () ->
        compile_result_at Souffle.V4 p)
  in
  Alcotest.(check int) "all four corruptions applied" 4 trips;
  let r = ok_or_fail "subgroup degradation" result in
  Alcotest.(check int) "sibling subgroup still emits fused" 3
    (Souffle.num_kernels r);
  Alcotest.(check int) "four degradation steps" 4
    (List.length r.Souffle.degraded);
  (* every step is verifier-triggered and names the subgroup's head TE *)
  List.iter
    (fun (d : Souffle.degradation) ->
      Alcotest.(check string) "degradation pass" "verify-ir"
        (Diag.pass_name d.Souffle.d_pass);
      Alcotest.(check string) "degradation subject" "a" d.Souffle.d_subject)
    r.Souffle.degraded;
  Alcotest.(check bool) "ladder reaches V0 for the failing subgroup" true
    (List.exists
       (fun (d : Souffle.degradation) -> d.Souffle.d_to = Souffle.V0)
       r.Souffle.degraded);
  (match Verify_ir.check_prog Device.a100 r.Souffle.prog with
  | Ok () -> ()
  | Error ds ->
      Alcotest.failf "final program rejected: %s"
        (String.concat "; " (List.map Diag.to_string ds)));
  match Souffle.verify ~rtol:1e-3 r with
  | Ok () -> ()
  | Error m -> Alcotest.failf "not preserved: %s" m

(* One fewer corruption: the failing subgroup stops at V1 and still emits
   as a single fused kernel, so the program stays at two kernels — the
   split never cascades past the kernel that actually failed. *)
let test_subgroup_degradation_partial () =
  let p = Lower.run (diamond_chain ()) in
  let result, _ =
    Faultinject.with_fault ~times:3 (Faultinject.Corrupt_smem 64) (fun () ->
        compile_result_at Souffle.V4 p)
  in
  let r = ok_or_fail "partial subgroup degradation" result in
  Alcotest.(check int) "both subgroups fused" 2 (Souffle.num_kernels r);
  Alcotest.(check int) "three degradation steps" 3
    (List.length r.Souffle.degraded)

let test_fault_parse () =
  let roundtrip s = Result.map Faultinject.spec_to_string (Faultinject.parse s) in
  Alcotest.(check (result string string)) "pass fault" (Ok "emit")
    (roundtrip "emit");
  Alcotest.(check bool) "smem fault" true
    (Faultinject.parse "smem:8" = Ok (Faultinject.Corrupt_smem 8));
  Alcotest.(check bool) "grid fault default factor" true
    (Faultinject.parse "grid" = Ok (Faultinject.Corrupt_grid 64));
  Alcotest.(check bool) "unknown fault rejected" true
    (Result.is_error (Faultinject.parse "frobnicate"))

let suite =
  [
    Alcotest.test_case "zoo x V0..V4 matrix verifies" `Slow
      test_level_matrix_all_models;
    Alcotest.test_case "verifier accepts legal kernel" `Quick
      test_verifier_accepts_legal;
    Alcotest.test_case "verifier rejects smem" `Quick test_verifier_rejects_smem;
    Alcotest.test_case "verifier rejects regs" `Quick test_verifier_rejects_regs;
    Alcotest.test_case "verifier rejects threads" `Quick
      test_verifier_rejects_threads;
    Alcotest.test_case "verifier rejects coop > wave" `Quick
      test_verifier_rejects_coop_over_wave;
    Alcotest.test_case "verifier rejects sync in stage 0" `Quick
      test_verifier_rejects_sync_in_first_stage;
    Alcotest.test_case "verifier rejects mid-stage sync" `Quick
      test_verifier_rejects_sync_mid_stage;
    Alcotest.test_case "verifier rejects sync in lib call" `Quick
      test_verifier_rejects_sync_in_library_call;
    Alcotest.test_case "verifier rejects negative bytes" `Quick
      test_verifier_rejects_negative_bytes;
    Alcotest.test_case "verifier rejects empty kernel" `Quick
      test_verifier_rejects_empty_kernel;
    Alcotest.test_case "injected pass failures degrade (zoo x passes)" `Slow
      test_injected_pass_failure_degrades;
    Alcotest.test_case "smem corruption degrades" `Quick
      test_corrupt_smem_degrades_via_verifier;
    Alcotest.test_case "grid corruption degrades" `Quick
      test_corrupt_grid_degrades_via_verifier;
    Alcotest.test_case "strict mode errors on degradation" `Quick
      test_strict_turns_degradation_into_error;
    Alcotest.test_case "persistent fault exhausts ladder" `Quick
      test_persistent_fault_exhausts_ladder;
    Alcotest.test_case "seeded faults deterministic" `Quick
      test_seeded_faults_deterministic;
    Alcotest.test_case "compile raises after ladder" `Quick
      test_compile_raises_on_exhausted_ladder;
    Alcotest.test_case "subgroup degradation stays local" `Quick
      test_subgroup_degradation_is_local;
    Alcotest.test_case "subgroup degradation stops at failing kernel" `Quick
      test_subgroup_degradation_partial;
    Alcotest.test_case "fault spec parsing" `Quick test_fault_parse;
  ]
