(* Semantic-preservation tests for horizontal and vertical TE
   transformations — the executable version of the paper's
   "semantic-preserving" claim, checked against the reference interpreter. *)

open Expr

let f32 = Dtype.F32

let input name shape = (name, { Program.shape; dtype = f32 })

let check_equiv ?(rtol = 1e-4) name a b =
  match Interp.equivalent ~rtol a b with
  | Ok () -> ()
  | Error m -> Alcotest.failf "%s: %s" name m

(* --- vertical ------------------------------------------------------- *)

(* Fig. 4's example: relu -> strided_slice -> permute collapses to one TE.
   The fused TE reads A[2j, i]: D[3,1] = C[1,3] = B[2,3] = relu(A[2,3]).
   The paper's figure states A[j, 2i], a typo. *)
let fig4_program () =
  let a = input "A" [| 4; 8 |] in
  let b = Builder.unary ~name:"B" ~shape:[| 4; 8 |] Relu "A" in
  let c =
    Builder.strided_slice ~name:"C" ~in_shape:[| 4; 8 |] ~axis:0 ~start:0
      ~stride:2 ~size:2 "B"
  in
  let d = Builder.permute ~name:"D" ~in_shape:[| 2; 8 |] ~perm:[| 1; 0 |] "C" in
  Program.make ~inputs:[ a ] ~tes:[ b; c; d ] ~outputs:[ "D" ]

let test_vertical_fig4 () =
  let p = fig4_program () in
  let p', stats = Vertical.apply p in
  Alcotest.(check int) "collapses to a single TE" 1
    (List.length p'.Program.tes);
  Alcotest.(check bool) "some rewrites happened" true
    (stats.Vertical.chains_fused + stats.Vertical.movement_folded >= 2);
  check_equiv "fig4" p p'

let test_vertical_chain_of_elementwise () =
  let x = input "x" [| 6; 6 |] in
  let a = Builder.unary ~name:"a" ~shape:[| 6; 6 |] Sigmoid "x" in
  let b = Builder.unary ~name:"b" ~shape:[| 6; 6 |] Neg "a" in
  let c = Builder.unary ~name:"c" ~shape:[| 6; 6 |] Exp "b" in
  let p = Program.make ~inputs:[ x ] ~tes:[ a; b; c ] ~outputs:[ "c" ] in
  let p', _ = Vertical.apply p in
  Alcotest.(check int) "one TE" 1 (List.length p'.Program.tes);
  check_equiv "elementwise chain" p p'

let test_vertical_movement_into_reduce () =
  (* transpose folded into the GEMM that consumes it *)
  let a = input "A" [| 5; 7 |] and b = input "B" [| 5; 6 |] in
  let at' =
    Builder.permute ~name:"At" ~in_shape:[| 5; 7 |] ~perm:[| 1; 0 |] "A"
  in
  let c = Builder.matmul ~name:"C" ~m:7 ~n:6 ~k:5 "At" "B" in
  let p = Program.make ~inputs:[ a; b ] ~tes:[ at'; c ] ~outputs:[ "C" ] in
  let p', stats = Vertical.apply p in
  Alcotest.(check int) "transpose folded" 1 (List.length p'.Program.tes);
  Alcotest.(check int) "movement fold counted" 1 stats.Vertical.movement_folded;
  check_equiv "transpose into gemm" p p'

let test_vertical_respects_flag () =
  let a = input "A" [| 5; 7 |] and b = input "B" [| 5; 6 |] in
  let at' =
    Builder.permute ~name:"At" ~in_shape:[| 5; 7 |] ~perm:[| 1; 0 |] "A"
  in
  let c = Builder.matmul ~name:"C" ~m:7 ~n:6 ~k:5 "At" "B" in
  let p = Program.make ~inputs:[ a; b ] ~tes:[ at'; c ] ~outputs:[ "C" ] in
  let p', _ = Vertical.apply ~fold_into_reduce:false p in
  Alcotest.(check int) "kept separate" 2 (List.length p'.Program.tes)

let test_vertical_keeps_shared_arith () =
  (* a sigmoid consumed twice must not be duplicated into both consumers *)
  let x = input "x" [| 8 |] in
  let s = Builder.unary ~name:"s" ~shape:[| 8 |] Sigmoid "x" in
  let u = Builder.unary ~name:"u" ~shape:[| 8 |] Neg "s" in
  let v = Builder.unary ~name:"v" ~shape:[| 8 |] Exp "s" in
  let p = Program.make ~inputs:[ x ] ~tes:[ s; u; v ] ~outputs:[ "u"; "v" ] in
  let p', _ = Vertical.apply p in
  Alcotest.(check bool) "s survives" true
    (Option.is_some (Program.find_te p' "s"));
  check_equiv "shared arith" p p'

let test_vertical_keeps_outputs () =
  (* a TE that is a program output cannot be inlined away *)
  let x = input "x" [| 8 |] in
  let s = Builder.unary ~name:"s" ~shape:[| 8 |] Relu "x" in
  let u = Builder.unary ~name:"u" ~shape:[| 8 |] Neg "s" in
  let p = Program.make ~inputs:[ x ] ~tes:[ s; u ] ~outputs:[ "s"; "u" ] in
  let p', _ = Vertical.apply p in
  Alcotest.(check int) "both kept" 2 (List.length p'.Program.tes);
  check_equiv "outputs preserved" p p'

let test_vertical_reshape_roundtrip () =
  (* reshape . reshape⁻¹ composes to identity indices *)
  let x = input "x" [| 4; 6 |] in
  let r1 =
    Builder.reshape ~name:"r1" ~in_shape:[| 4; 6 |] ~out_shape:[| 24 |] "x"
  in
  let r2 =
    Builder.reshape ~name:"r2" ~in_shape:[| 24 |] ~out_shape:[| 4; 6 |] "r1"
  in
  let y = Builder.unary ~name:"y" ~shape:[| 4; 6 |] Relu "r2" in
  let p = Program.make ~inputs:[ x ] ~tes:[ r1; r2; y ] ~outputs:[ "y" ] in
  let p', _ = Vertical.apply p in
  Alcotest.(check int) "one TE" 1 (List.length p'.Program.tes);
  (* the composed index must simplify back to the identity access *)
  let te = List.hd p'.Program.tes in
  (match Te.body_expr te with
  | Unop (Relu, Read ("x", [ i0; i1 ])) ->
      Alcotest.(check bool) "identity indices" true
        (Index.equal i0 (Index.Ov 0) && Index.equal i1 (Index.Ov 1))
  | e -> Alcotest.failf "unexpected body %s" (Expr.to_string e));
  check_equiv "reshape roundtrip" p p'

(* --- horizontal ------------------------------------------------------ *)

(* Fig. 3's example: two GEMMs sharing a reduction variable merge into one
   TE of shape (4+2, 16). *)
let fig3_program () =
  let inputs =
    [
      input "A1" [| 4; 8 |]; input "B1" [| 8; 16 |];
      input "A2" [| 2; 8 |]; input "B2" [| 8; 16 |];
    ]
  in
  let c1 = Builder.matmul ~name:"C1" ~m:4 ~n:16 ~k:8 "A1" "B1" in
  let c2 = Builder.matmul ~name:"C2" ~m:2 ~n:16 ~k:8 "A2" "B2" in
  (* consumers so the merged tensor is observable through rewrites *)
  let u1 = Builder.unary ~name:"U1" ~shape:[| 4; 16 |] Relu "C1" in
  let u2 = Builder.unary ~name:"U2" ~shape:[| 2; 16 |] Relu "C2" in
  Program.make ~inputs ~tes:[ c1; c2; u1; u2 ] ~outputs:[ "U1"; "U2" ]

let test_horizontal_fig3 () =
  let p = fig3_program () in
  let p', stats = Horizontal.apply p in
  Alcotest.(check int) "one group" 1 stats.Horizontal.groups_merged;
  Alcotest.(check int) "one TE eliminated" 1 stats.Horizontal.tes_eliminated;
  (* merged TE exists with concatenated shape *)
  (match Program.find_te p' "C1_hz" with
  | Some te -> Alcotest.(check (array int)) "shape (6,16)" [| 6; 16 |] te.Te.out_shape
  | None -> Alcotest.fail "merged TE missing");
  check_equiv "fig3" p p'

let test_horizontal_same_input_spatial_reuse () =
  (* QKV pattern: three GEMMs reading the same activation *)
  let inputs =
    [ input "X" [| 8; 16 |]; input "Wq" [| 16; 8 |]; input "Wk" [| 16; 8 |];
      input "Wv" [| 16; 8 |] ]
  in
  let q = Builder.matmul ~name:"Q" ~m:8 ~n:8 ~k:16 "X" "Wq" in
  let k = Builder.matmul ~name:"K" ~m:8 ~n:8 ~k:16 "X" "Wk" in
  let v = Builder.matmul ~name:"V" ~m:8 ~n:8 ~k:16 "X" "Wv" in
  let s = Builder.binary ~name:"S" ~shape:[| 8; 8 |] Add "Q" "K" in
  let t = Builder.binary ~name:"T" ~shape:[| 8; 8 |] Add "S" "V" in
  let p =
    Program.make ~inputs ~tes:[ q; k; v; s; t ] ~outputs:[ "T" ]
  in
  let p', stats = Horizontal.apply p in
  Alcotest.(check int) "merged 3 into 1" 2 stats.Horizontal.tes_eliminated;
  Alcotest.(check bool) "valid program" true
    (Result.is_ok (Program.validate p'));
  check_equiv "qkv merge" p p'

let test_horizontal_dependent_not_merged () =
  (* two GEMMs where the second consumes the first: same template but
     different depth, must not merge *)
  let inputs = [ input "X" [| 8; 8 |]; input "W1" [| 8; 8 |]; input "W2" [| 8; 8 |] ] in
  let a = Builder.matmul ~name:"G1" ~m:8 ~n:8 ~k:8 "X" "W1" in
  let b = Builder.matmul ~name:"G2" ~m:8 ~n:8 ~k:8 "G1" "W2" in
  let p = Program.make ~inputs ~tes:[ a; b ] ~outputs:[ "G2" ] in
  let _, stats = Horizontal.apply p in
  Alcotest.(check int) "no groups" 0 stats.Horizontal.groups_merged

let test_horizontal_outputs_not_merged () =
  let inputs = [ input "X" [| 8; 8 |]; input "W1" [| 8; 8 |]; input "W2" [| 8; 8 |] ] in
  let a = Builder.matmul ~name:"G1" ~m:8 ~n:8 ~k:8 "X" "W1" in
  let b = Builder.matmul ~name:"G2" ~m:8 ~n:8 ~k:8 "X" "W2" in
  let p = Program.make ~inputs ~tes:[ a; b ] ~outputs:[ "G1"; "G2" ] in
  let _, stats = Horizontal.apply p in
  Alcotest.(check int) "outputs kept" 0 stats.Horizontal.groups_merged

let test_horizontal_then_vertical () =
  (* the full §6 sequence on the QKV pattern stays correct *)
  let p =
    let inputs =
      [ input "X" [| 8; 16 |]; input "Wq" [| 16; 8 |]; input "Wk" [| 16; 8 |] ]
    in
    let q = Builder.matmul ~name:"Q" ~m:8 ~n:8 ~k:16 "X" "Wq" in
    let k = Builder.matmul ~name:"K" ~m:8 ~n:8 ~k:16 "X" "Wk" in
    let qr = Builder.unary ~name:"Qr" ~shape:[| 8; 8 |] Relu "Q" in
    let kr = Builder.unary ~name:"Kr" ~shape:[| 8; 8 |] Tanh "K" in
    let s = Builder.binary ~name:"S2" ~shape:[| 8; 8 |] Mul "Qr" "Kr" in
    Program.make ~inputs ~tes:[ q; k; qr; kr; s ] ~outputs:[ "S2" ]
  in
  let p1, _ = Horizontal.apply p in
  let p2, _ = Vertical.apply p1 in
  Alcotest.(check bool) "valid" true (Result.is_ok (Program.validate p2));
  check_equiv "horizontal+vertical" p p2

let test_vertical_fixpoint_on_zoo () =
  (* [Vertical.apply] promises a fixpoint (it gives up silently after 64
     rounds): a second application finds nothing left to inline *)
  List.iter
    (fun (e : Zoo.entry) ->
      let p1, _ = Horizontal.apply (Lower.run (e.Zoo.tiny ())) in
      let p2, _ = Vertical.apply p1 in
      let _, again = Vertical.apply p2 in
      Alcotest.(check (pair int int))
        (e.Zoo.name ^ ": second vertical apply is a no-op")
        (0, 0)
        (again.Vertical.chains_fused, again.Vertical.movement_folded))
    Zoo.all

(* --- qcheck: random elementwise DAGs survive both transforms --------- *)

let random_program (seed : int) : Program.t =
  let rng = Rng.create seed in
  let shape = [| 4; 6 |] in
  let n = 3 + Rng.int rng ~bound:6 in
  let tensors = ref [ "in0"; "in1" ] in
  let tes = ref [] in
  for i = 0 to n - 1 do
    let pick () =
      List.nth !tensors (Rng.int rng ~bound:(List.length !tensors))
    in
    let name = Fmt.str "t%d" i in
    let te =
      match Rng.int rng ~bound:6 with
      | 0 -> Builder.unary ~name ~shape Relu (pick ())
      | 1 -> Builder.unary ~name ~shape Sigmoid (pick ())
      | 2 -> Builder.binary ~name ~shape Add (pick ()) (pick ())
      | 3 -> Builder.binary ~name ~shape Mul (pick ()) (pick ())
      | 4 ->
          Builder.permute ~name ~in_shape:[| 4; 6 |] ~perm:[| 0; 1 |] (pick ())
      | _ ->
          Builder.matmul ~name ~m:4 ~n:6 ~k:6
            (pick ())
            "w" (* fixed weight input *)
    in
    tensors := name :: !tensors;
    tes := te :: !tes
  done;
  let last = List.hd !tensors in
  Program.make
    ~inputs:
      [ input "in0" shape; input "in1" shape; input "w" [| 6; 6 |] ]
    ~tes:(List.rev !tes) ~outputs:[ last ]

let qcheck_transforms_preserve_semantics =
  QCheck.Test.make ~name:"horizontal+vertical preserve semantics on random DAGs"
    ~count:60
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let p = random_program seed in
      match Program.validate p with
      | Error _ -> QCheck.assume_fail ()
      | Ok () ->
          let p1, _ = Horizontal.apply p in
          let p2, _ = Vertical.apply p1 in
          (match Program.validate p2 with
          | Error m -> QCheck.Test.fail_reportf "invalid after transform: %s" m
          | Ok () -> ());
          (match Interp.equivalent ~rtol:1e-4 ~seed p p2 with
          | Ok () -> true
          | Error m -> QCheck.Test.fail_reportf "not equivalent: %s" m))

let suite =
  [
    Alcotest.test_case "vertical fig4" `Quick test_vertical_fig4;
    Alcotest.test_case "vertical elementwise chain" `Quick
      test_vertical_chain_of_elementwise;
    Alcotest.test_case "vertical movement into reduce" `Quick
      test_vertical_movement_into_reduce;
    Alcotest.test_case "vertical fold flag" `Quick test_vertical_respects_flag;
    Alcotest.test_case "vertical keeps shared arith" `Quick
      test_vertical_keeps_shared_arith;
    Alcotest.test_case "vertical keeps outputs" `Quick
      test_vertical_keeps_outputs;
    Alcotest.test_case "vertical reshape roundtrip" `Quick
      test_vertical_reshape_roundtrip;
    Alcotest.test_case "horizontal fig3" `Quick test_horizontal_fig3;
    Alcotest.test_case "horizontal qkv spatial reuse" `Quick
      test_horizontal_same_input_spatial_reuse;
    Alcotest.test_case "horizontal dependent not merged" `Quick
      test_horizontal_dependent_not_merged;
    Alcotest.test_case "horizontal outputs not merged" `Quick
      test_horizontal_outputs_not_merged;
    Alcotest.test_case "horizontal then vertical" `Quick
      test_horizontal_then_vertical;
    Alcotest.test_case "vertical fixpoint on tiny zoo" `Quick
      test_vertical_fixpoint_on_zoo;
    QCheck_alcotest.to_alcotest qcheck_transforms_preserve_semantics;
  ]
