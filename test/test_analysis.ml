(* Tests for the §5 global analysis: dependence classification, intensity,
   reuse detection — including the paper's own Fig. 2 example program. *)

open Expr

let f32 = Dtype.F32
let input name shape = (name, { Program.shape; dtype = f32 })

(* The 5-TE program of Fig. 2: GEMM, sigmoid, GEMM, add, GEMM. *)
let fig2_program () =
  let i0 = input "I0" [| 64; 64 |] in
  let w0 = input "W0" [| 64; 64 |] and w2 = input "W2" [| 64; 64 |] in
  let w4 = input "W4" [| 64; 256 |] in
  let te0 = Builder.matmul ~tag:"matmul" ~name:"O0" ~m:64 ~n:64 ~k:64 "I0" "W0" in
  let te1 = Builder.unary ~name:"O1" ~shape:[| 64; 64 |] Sigmoid "O0" in
  let te2 = Builder.matmul ~tag:"matmul" ~name:"O2" ~m:64 ~n:64 ~k:64 "O1" "W2" in
  let te3 = Builder.binary ~name:"O3" ~shape:[| 64; 64 |] Add "O0" "O2" in
  let te4 = Builder.matmul ~tag:"matmul" ~name:"O4" ~m:64 ~n:256 ~k:64 "O3" "W4" in
  Program.make
    ~inputs:[ i0; w0; w2; w4 ]
    ~tes:[ te0; te1; te2; te3; te4 ]
    ~outputs:[ "O4" ]

let test_fig2_dep_classes () =
  let p = fig2_program () in
  let reduces n = Te.has_reduction (Program.find_te_exn p n) in
  (* TE0, TE2, TE4: one-relies-on-many; TE1, TE3: one-relies-on-one *)
  List.iter
    (fun n -> Alcotest.(check bool) (n ^ " many") true (reduces n))
    [ "O0"; "O2"; "O4" ];
  List.iter
    (fun n -> Alcotest.(check bool) (n ^ " one") false (reduces n))
    [ "O1"; "O3" ]

let test_fig2_intensity () =
  let p = fig2_program () in
  let an = Analysis.run p in
  (* TE0, TE2, TE4 compute-intensive; TE1, TE3 memory-intensive (Fig. 2) *)
  List.iter
    (fun n ->
      Alcotest.(check bool) (n ^ " compute") true
        (Analysis.is_compute_intensive an n))
    [ "O0"; "O2"; "O4" ];
  List.iter
    (fun n ->
      Alcotest.(check bool) (n ^ " memory") false
        (Analysis.is_compute_intensive an n))
    [ "O1"; "O3" ]

let test_fig2_temporal_reuse () =
  let p = fig2_program () in
  let an = Analysis.run p in
  (* Fig. 2 step 2: O0 is accessed by TE1 and TE3 -> temporal data reuse
     (TE3 depends on TE1 through TE2) *)
  Alcotest.(check bool) "O0 temporal" true
    (Reuse.is_temporal an.Analysis.reuse "O0");
  Alcotest.(check bool) "O0 not spatial" false
    (Reuse.is_spatial an.Analysis.reuse "O0")

let test_spatial_reuse_qkv () =
  let x = input "x" [| 8; 8 |] in
  let wq = input "wq" [| 8; 8 |] and wk = input "wk" [| 8; 8 |] in
  let q = Builder.matmul ~name:"q" ~m:8 ~n:8 ~k:8 "x" "wq" in
  let k = Builder.matmul ~name:"k" ~m:8 ~n:8 ~k:8 "x" "wk" in
  let p = Program.make ~inputs:[ x; wq; wk ] ~tes:[ q; k ] ~outputs:[ "q"; "k" ] in
  let r = Reuse.find p in
  Alcotest.(check bool) "x spatial" true (Reuse.is_spatial r "x");
  Alcotest.(check (list string)) "consumers" [ "k"; "q" ]
    (List.sort compare
       (List.concat_map (fun e -> e.Reuse.consumers)
          (List.filter (fun e -> e.Reuse.tensor = "x") r.Reuse.spatial)))

let test_no_reuse_single_consumer () =
  let x = input "x" [| 4 |] in
  let a = Builder.unary ~name:"a" ~shape:[| 4 |] Relu "x" in
  let p = Program.make ~inputs:[ x ] ~tes:[ a ] ~outputs:[ "a" ] in
  let r = Reuse.find p in
  Alcotest.(check int) "no entries" 0
    (List.length r.Reuse.spatial + List.length r.Reuse.temporal)

let test_intensity_ratio_values () =
  let p = fig2_program () in
  let te0 = Program.find_te_exn p "O0" in
  (* GEMM 64^3: 2*64^3 instrs / (3*64^2) elems = 42.67 *)
  Alcotest.(check (float 0.1)) "gemm ratio" 42.67 (Intensity.ratio p te0);
  let te1 = Program.find_te_exn p "O1" in
  Alcotest.(check bool) "sigmoid ratio below threshold" true
    (Intensity.ratio p te1 < Intensity.threshold)

let test_elementwise_never_compute_intensive () =
  (* even arithmetic-heavy elementwise stays memory-bound *)
  let x = input "x" [| 4 |] in
  let body =
    List.fold_left
      (fun acc _ -> Binop (Add, Unop (Exp, acc), Const 1.))
      (Read ("x", [ Index.Ov 0 ]))
      (List.init 20 Fun.id)
  in
  let te = Te.compute ~name:"heavy" ~shape:[| 4 |] body in
  let p = Program.make ~inputs:[ x ] ~tes:[ te ] ~outputs:[ "heavy" ] in
  Alcotest.(check bool) "memory" true
    (Intensity.classify p te = Intensity.Memory_intensive)

let test_relation_string () =
  let te = Builder.matmul ~name:"O0" ~m:4 ~n:4 ~k:8 "I0" "W0" in
  let s = Dep.relation_to_string te in
  Alcotest.(check bool) "mentions reduction bound" true
    (Astring_contains.contains s "0 <= r0 < 8");
  Alcotest.(check bool) "mentions output" true
    (Astring_contains.contains s "O0[i0,i1]")

let suite =
  [
    Alcotest.test_case "fig2 dep classes" `Quick test_fig2_dep_classes;
    Alcotest.test_case "fig2 intensity" `Quick test_fig2_intensity;
    Alcotest.test_case "fig2 temporal reuse" `Quick test_fig2_temporal_reuse;
    Alcotest.test_case "spatial reuse qkv" `Quick test_spatial_reuse_qkv;
    Alcotest.test_case "no reuse single consumer" `Quick test_no_reuse_single_consumer;
    Alcotest.test_case "intensity ratio values" `Quick test_intensity_ratio_values;
    Alcotest.test_case "elementwise stays memory" `Quick
      test_elementwise_never_compute_intensive;
    Alcotest.test_case "relation string" `Quick test_relation_string;
  ]
