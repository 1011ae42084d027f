(* Tests for the TE IR, the builder DSL and the reference interpreter. *)

open Expr

let nd_testable = Alcotest.testable Nd.pp (Nd.allclose ~rtol:1e-5 ~atol:1e-6)

let env2 l = Interp.env_of_list l

let test_matmul_vs_naive () =
  let m, n, k = (3, 4, 5) in
  let rng = Rng.create 1 in
  let a = Nd.random rng [| m; k |] and b = Nd.random rng [| k; n |] in
  let te = Builder.matmul ~name:"c" ~m ~n ~k "a" "b" in
  let c = Interp.eval_te (env2 [ ("a", a); ("b", b) ]) te in
  let expected =
    Nd.init [| m; n |] (fun i ->
        let acc = ref 0. in
        for kk = 0 to k - 1 do
          acc := !acc +. (Nd.get a [| i.(0); kk |] *. Nd.get b [| kk; i.(1) |])
        done;
        !acc)
  in
  Alcotest.check nd_testable "matmul" expected c

let test_matmul_nt () =
  let m, n, k = (3, 4, 5) in
  let rng = Rng.create 2 in
  let a = Nd.random rng [| m; k |] and bt = Nd.random rng [| n; k |] in
  let te = Builder.matmul_nt ~name:"c" ~m ~n ~k "a" "bt" in
  let c = Interp.eval_te (env2 [ ("a", a); ("bt", bt) ]) te in
  let b = Nd.init [| k; n |] (fun i -> Nd.get bt [| i.(1); i.(0) |]) in
  let via_nn =
    Interp.eval_te
      (env2 [ ("a", a); ("b", b) ])
      (Builder.matmul ~name:"c" ~m ~n ~k "a" "b")
  in
  Alcotest.check nd_testable "matmul_nt = matmul of transpose" via_nn c

let test_gemv () =
  let w = Nd.of_array [| 2; 3 |] [| 1.; 2.; 3.; 4.; 5.; 6. |] in
  let x = Nd.of_array [| 3 |] [| 1.; 1.; 1. |] in
  let te = Builder.gemv ~name:"y" ~m:2 ~k:3 "w" "x" in
  let y = Interp.eval_te (env2 [ ("w", w); ("x", x) ]) te in
  Alcotest.check nd_testable "gemv" (Nd.of_array [| 2 |] [| 6.; 15. |]) y

let test_reduce_max () =
  let a = Nd.of_array [| 2; 3 |] [| 1.; 7.; 3.; -1.; -5.; -2. |] in
  let te = Builder.reduce_last ~name:"m" ~m:2 ~k:3 Te.Max "a" in
  let m = Interp.eval_te (env2 [ ("a", a) ]) te in
  Alcotest.check nd_testable "rowmax" (Nd.of_array [| 2 |] [| 7.; -1. |]) m

let test_permute () =
  let a = Nd.init [| 2; 3; 4 |] (fun i -> float_of_int (Shape.ravel [| 2; 3; 4 |] i)) in
  let te = Builder.permute ~name:"p" ~in_shape:[| 2; 3; 4 |] ~perm:[| 2; 0; 1 |] "a" in
  let p = Interp.eval_te (env2 [ ("a", a) ]) te in
  Alcotest.(check (array int)) "shape" [| 4; 2; 3 |] (Nd.shape p);
  Alcotest.(check (float 0.)) "value moved" (Nd.get a [| 1; 2; 3 |])
    (Nd.get p [| 3; 1; 2 |])

let test_reshape () =
  let a = Nd.init [| 3; 4 |] (fun i -> float_of_int ((i.(0) * 4) + i.(1))) in
  let te = Builder.reshape ~name:"r" ~in_shape:[| 3; 4 |] ~out_shape:[| 2; 6 |] "a" in
  let r = Interp.eval_te (env2 [ ("a", a) ]) te in
  (* row-major reshape preserves the flat order *)
  let ok = ref true in
  for i = 0 to 11 do
    if Nd.get_flat r i <> Nd.get_flat a i then ok := false
  done;
  Alcotest.(check bool) "flat order preserved" true !ok

let test_slice_strided () =
  let a = Nd.init [| 4; 8 |] (fun i -> float_of_int ((i.(0) * 8) + i.(1))) in
  let te =
    Builder.strided_slice ~name:"s" ~in_shape:[| 4; 8 |] ~axis:0 ~start:0
      ~stride:2 ~size:2 "a"
  in
  let s = Interp.eval_te (env2 [ ("a", a) ]) te in
  Alcotest.(check (float 0.)) "s[1,3] = a[2,3]" (Nd.get a [| 2; 3 |])
    (Nd.get s [| 1; 3 |])

let test_concat2 () =
  let a = Nd.create [| 2; 3 |] 1. and b = Nd.create [| 4; 3 |] 2. in
  let te =
    Builder.concat2 ~name:"c" ~axis:0 ~shape_a:[| 2; 3 |] ~shape_b:[| 4; 3 |]
      "a" "b"
  in
  let c = Interp.eval_te (env2 [ ("a", a); ("b", b) ]) te in
  Alcotest.(check (float 0.)) "from a" 1. (Nd.get c [| 1; 2 |]);
  Alcotest.(check (float 0.)) "from b" 2. (Nd.get c [| 2; 0 |]);
  Alcotest.(check (float 0.)) "from b end" 2. (Nd.get c [| 5; 2 |])

let test_softmax_program () =
  let m, k = (3, 6) in
  let rng = Rng.create 5 in
  let x = Nd.random rng [| m; k |] in
  let tes = Builder.softmax2d ~name:"sm" ~m ~k "x" in
  let p =
    Program.make
      ~inputs:[ ("x", { Program.shape = [| m; k |]; dtype = Dtype.F32 }) ]
      ~tes ~outputs:[ "sm" ]
  in
  (match Program.validate p with
  | Ok () -> ()
  | Error m -> Alcotest.fail m);
  let out = List.assoc "sm" (Interp.run p (env2 [ ("x", x) ])) in
  (* rows sum to one and values are positive *)
  for i = 0 to m - 1 do
    let s = ref 0. in
    for j = 0 to k - 1 do
      let v = Nd.get out [| i; j |] in
      Alcotest.(check bool) "positive" true (v > 0.);
      s := !s +. v
    done;
    Alcotest.(check (float 1e-6)) "row sums to 1" 1. !s
  done

let test_validate_catches_bad_var () =
  let te =
    Te.compute ~name:"bad" ~shape:[| 4 |] (Read ("x", [ Index.Ov 3 ]))
  in
  Alcotest.(check bool) "invalid out var" true
    (Result.is_error (Te.validate te))

let test_validate_catches_rv_in_compute () =
  let te =
    Te.compute ~name:"bad" ~shape:[| 4 |] (Read ("x", [ Index.Rv 0 ]))
  in
  Alcotest.(check bool) "rv in compute rejected" true
    (Result.is_error (Te.validate te))

let test_program_validate_topo () =
  let te1 = Builder.unary ~name:"b" ~shape:[| 4 |] Relu "undefined" in
  let p = Program.make ~inputs:[] ~tes:[ te1 ] ~outputs:[ "b" ] in
  Alcotest.(check bool) "undefined input caught" true
    (Result.is_error (Program.validate p))

let test_program_deps () =
  let i = ("x", { Program.shape = [| 4 |]; dtype = Dtype.F32 }) in
  let a = Builder.unary ~name:"a" ~shape:[| 4 |] Relu "x" in
  let b = Builder.unary ~name:"b" ~shape:[| 4 |] Exp "a" in
  let c = Builder.unary ~name:"c" ~shape:[| 4 |] Neg "a" in
  let p = Program.make ~inputs:[ i ] ~tes:[ a; b; c ] ~outputs:[ "b"; "c" ] in
  Alcotest.(check bool) "a feeds b" true (Program.depends ~on:"a" p "b");
  Alcotest.(check bool) "b does not feed c" false (Program.depends ~on:"b" p "c");
  let edges = Program.edges p in
  Alcotest.(check int) "two edges" 2 (List.length edges);
  let cons = Program.consumers p in
  Alcotest.(check int) "a has 2 consumers" 2
    (List.length (Program.SMap.find "a" cons))

(* The name index is memoized per program value; a program rebuilt with
   [{ p with tes }] must get its own index, and the old value keeps its own. *)
let test_program_index_generations () =
  let i = ("x", { Program.shape = [| 4 |]; dtype = Dtype.F32 }) in
  let a = Builder.unary ~name:"a" ~shape:[| 4 |] Relu "x" in
  let b = Builder.unary ~name:"b" ~shape:[| 4 |] Exp "a" in
  let c = Builder.unary ~name:"c" ~shape:[| 4 |] Neg "a" in
  let p = Program.make ~inputs:[ i ] ~tes:[ a; b; c ] ~outputs:[ "b"; "c" ] in
  let shape p n = (Program.tensor_info_exn p n).Program.shape in
  let consumer_names p n =
    match Program.SMap.find_opt n (Program.consumers p) with
    | Some tes -> List.map (fun (te : Te.t) -> te.Te.name) tes
    | None -> []
  in
  let shapes = Alcotest.(array int) and names = Alcotest.(list string) in
  let check_old p =
    Alcotest.(check bool) "old b" true (Program.find_te_exn p "b" == b);
    Alcotest.check shapes "old b shape" [| 4 |] (shape p "b");
    Alcotest.check names "old consumers of a" [ "b"; "c" ] (consumer_names p "a");
    Alcotest.check names "old consumers of b" [] (consumer_names p "b")
  in
  check_old p;
  (* same name, new shape; c now reads b instead of a *)
  let b' =
    Builder.reshape ~name:"b" ~in_shape:[| 4 |] ~out_shape:[| 2; 2 |] "a"
  in
  let c' = Builder.unary ~name:"c" ~shape:[| 2; 2 |] Neg "b" in
  let p' = { p with Program.tes = [ a; b'; c' ] } in
  Alcotest.(check bool) "new b" true (Program.find_te_exn p' "b" == b');
  Alcotest.check shapes "new b shape" [| 2; 2 |] (shape p' "b");
  Alcotest.check names "new consumers of a" [ "b" ] (consumer_names p' "a");
  Alcotest.check names "new consumers of b" [ "c" ] (consumer_names p' "b");
  check_old p

let test_live_after () =
  let i = ("x", { Program.shape = [| 4 |]; dtype = Dtype.F32 }) in
  let a = Builder.unary ~name:"a" ~shape:[| 4 |] Relu "x" in
  let b = Builder.unary ~name:"b" ~shape:[| 4 |] Exp "a" in
  let c = Builder.unary ~name:"c" ~shape:[| 4 |] Neg "b" in
  let p = Program.make ~inputs:[ i ] ~tes:[ a; b; c ] ~outputs:[ "c" ] in
  (* after position 1 (TE b), tensor a is dead, b is live *)
  let live = Program.live_after p 1 in
  Alcotest.(check bool) "b live" true (Program.SSet.mem "b" live);
  Alcotest.(check bool) "a dead" false (Program.SSet.mem "a" live)

let test_arith_ops () =
  let te = Builder.matmul ~name:"c" ~m:4 ~n:4 ~k:8 "a" "b" in
  (* mul + add per reduction point: 2 * 4*4*8 = 256 *)
  Alcotest.(check int) "gemm flops" 256 (Te.arith_ops te);
  let ew = Builder.binary ~name:"e" ~shape:[| 10 |] Add "a" "b" in
  Alcotest.(check int) "elementwise flops" 10 (Te.arith_ops ew)

let test_f16_rounding_applied () =
  let te =
    Te.compute ~name:"h" ~shape:[| 1 |] ~dtype:Dtype.F16
      (Binop (Add, Read ("x", [ Index.Ov 0 ]), Const 1e-4))
  in
  let x = Nd.of_array [| 1 |] [| 1.0 |] in
  let h = Interp.eval_te (env2 [ ("x", x) ]) te in
  (* 1 + 1e-4 rounds back to 1 in f16 *)
  Alcotest.(check (float 0.)) "rounded" 1.0 (Nd.get h [| 0 |])

let test_erf_accuracy () =
  (* spot-check our erf approximation against known values *)
  let cases = [ (0., 0.); (1., 0.8427007929); (-1., -0.8427007929); (2., 0.9953222650) ] in
  List.iter
    (fun (x, expected) ->
      Alcotest.(check (float 1e-5)) (Fmt.str "erf(%g)" x) expected
        (Expr.apply_unop Erf x))
    cases

let suite =
  [
    Alcotest.test_case "matmul vs naive" `Quick test_matmul_vs_naive;
    Alcotest.test_case "matmul_nt" `Quick test_matmul_nt;
    Alcotest.test_case "gemv" `Quick test_gemv;
    Alcotest.test_case "reduce max" `Quick test_reduce_max;
    Alcotest.test_case "permute" `Quick test_permute;
    Alcotest.test_case "reshape" `Quick test_reshape;
    Alcotest.test_case "strided slice" `Quick test_slice_strided;
    Alcotest.test_case "concat2" `Quick test_concat2;
    Alcotest.test_case "softmax program" `Quick test_softmax_program;
    Alcotest.test_case "validate bad out var" `Quick test_validate_catches_bad_var;
    Alcotest.test_case "validate rv in compute" `Quick test_validate_catches_rv_in_compute;
    Alcotest.test_case "program validate topo" `Quick test_program_validate_topo;
    Alcotest.test_case "program deps" `Quick test_program_deps;
    Alcotest.test_case "program index generations" `Quick
      test_program_index_generations;
    Alcotest.test_case "live after" `Quick test_live_after;
    Alcotest.test_case "arith ops" `Quick test_arith_ops;
    Alcotest.test_case "f16 rounding" `Quick test_f16_rounding_applied;
    Alcotest.test_case "erf accuracy" `Quick test_erf_accuracy;
  ]
