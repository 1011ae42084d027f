(* Tests for quasi-affine index expressions: evaluation, simplification,
   range analysis and substitution. *)

open Index

(* [open Index] brings DSL operators (+, *, /, %) into scope; restore the
   integer ones for plain arithmetic below. *)
let ( + ) = Stdlib.( + )
let ( * ) = Stdlib.( * )
let ( / ) = Stdlib.( / )

let ext2 = ([| 8; 8 |], [| 4 |]) (* default ov/rv extents for simplify *)

let simp e =
  let ov_ext, rv_ext = ext2 in
  simplify ~ov_ext ~rv_ext e

let eval_at ~ov ~rv e = eval ~ov ~rv e

let check_same_fn ?(ov_ext = [| 8; 8 |]) ?(rv_ext = [| 4 |]) a b =
  (* compare two index expressions pointwise over the full domain *)
  let ok = ref true in
  Shape.iter ov_ext (fun ov ->
      let ov = Array.copy ov in
      Shape.iter rv_ext (fun rv ->
          if eval_at ~ov ~rv a <> eval_at ~ov ~rv b then ok := false));
  !ok

let test_eval () =
  let e = Add (Mul (Ov 0, 3), Add (Rv 0, Const 2)) in
  Alcotest.(check int) "3*i0 + r0 + 2" 17
    (eval ~ov:[| 5; 0 |] ~rv:[| 0 |] e);
  Alcotest.(check int) "div" 2 (eval ~ov:[| 11 |] ~rv:[||] (Div (Ov 0, 4)));
  Alcotest.(check int) "mod" 3 (eval ~ov:[| 11 |] ~rv:[||] (Mod (Ov 0, 4)))

let test_floor_div_negative () =
  (* floor semantics for negative values *)
  Alcotest.(check int) "(-1)/4 = -1" (-1)
    (eval ~ov:[||] ~rv:[||] (Div (Const (-1), 4)));
  Alcotest.(check int) "(-1) mod 4 = 3" 3
    (eval ~ov:[||] ~rv:[||] (Mod (Const (-1), 4)))

let test_simplify_const_fold () =
  Alcotest.(check bool) "2*3+1 folds" true
    (equal (simp (Add (Mul (Const 2, 3), Const 1))) (Const 7))

let test_simplify_add_collect () =
  let e = Add (Ov 0, Add (Ov 0, Ov 0)) in
  Alcotest.(check bool) "i+i+i = 3i" true (equal (simp e) (Mul (Ov 0, 3)))

let test_simplify_cancel () =
  let e = Add (Ov 0, Mul (Ov 0, -1)) in
  Alcotest.(check bool) "i - i = 0" true (equal (simp e) (Const 0))

let test_mod_elim_by_range () =
  (* i0 < 8, so i0 mod 16 = i0 *)
  Alcotest.(check bool) "mod eliminated" true
    (equal (simp (Mod (Ov 0, 16))) (Ov 0));
  (* i0 mod 4 cannot be eliminated *)
  Alcotest.(check bool) "mod kept" true
    (match simp (Mod (Ov 0, 4)) with Mod _ -> true | _ -> false)

let test_div_elim_by_range () =
  Alcotest.(check bool) "div to zero" true
    (equal (simp (Div (Ov 0, 16))) (Const 0))

let test_div_peel () =
  (* (8*i0 + r0)/8 = i0 since r0 < 4 < 8 *)
  let e = Div (Add (Mul (Ov 0, 8), Rv 0), 8) in
  Alcotest.(check bool) "peel multiple of divisor" true (equal (simp e) (Ov 0))

let test_reshape_roundtrip_simplifies () =
  (* Composing a (8,8) -> 64 -> (8,8) reshape index pair must give identity:
     out[i,j] reads linear = i*8+j, then in[(linear)/8, linear mod 8]. *)
  let linear = Add (Mul (Ov 0, 8), Ov 1) in
  let d0 = simp (Div (linear, 8)) and d1 = simp (Mod (linear, 8)) in
  Alcotest.(check bool) "div part is i" true (equal d0 (Ov 0));
  Alcotest.(check bool) "mod part is j" true (equal d1 (Ov 1))

let test_simplify_preserves_semantics () =
  let exprs =
    [
      Add (Mul (Div (Ov 0, 2), 2), Mod (Ov 0, 2));
      Mod (Add (Mul (Ov 0, 4), Rv 0), 4);
      Div (Add (Mul (Ov 1, 12), Const 5), 3);
      Add (Mul (Add (Ov 0, Ov 1), 2), Mod (Rv 0, 3));
    ]
  in
  List.iter
    (fun e ->
      Alcotest.(check bool)
        (Fmt.str "semantics of %a" pp e)
        true (check_same_fn e (simp e)))
    exprs

let test_range () =
  let ov_ext = [| 8; 8 |] and rv_ext = [| 4 |] in
  Alcotest.(check (pair int int)) "range of 2i+r" (0, 17)
    (range ~ov_ext ~rv_ext (Add (Mul (Ov 0, 2), Rv 0)));
  Alcotest.(check (pair int int)) "range with neg" (-7, 0)
    (range ~ov_ext ~rv_ext (Mul (Ov 0, -1)))

let test_subst_out () =
  (* substituting i0 := 2*j0 into i0 + 1 gives 2*j0 + 1 *)
  let e = Add (Ov 0, Const 1) in
  let s = subst_out (fun _ -> Mul (Ov 0, 2)) e in
  Alcotest.(check int) "subst eval" 7 (eval ~ov:[| 3 |] ~rv:[||] s)

let test_shift_rv () =
  let e = Add (Rv 0, Ov 0) in
  let s = shift_rv 2 e in
  Alcotest.(check int) "shifted" 9 (eval ~ov:[| 4 |] ~rv:[| 9; 9; 5 |] s)

let test_var_bounds () =
  let e = Add (Mul (Ov 3, 2), Rv 1) in
  Alcotest.(check int) "max out var" 3 (max_out_var e);
  Alcotest.(check int) "max red var" 1 (max_red_var e);
  Alcotest.(check bool) "uses reduction" true (uses_reduction e);
  Alcotest.(check bool) "no reduction" false (uses_reduction (Ov 0))

(* random index expression generator for property tests *)
let gen_idx =
  let open QCheck.Gen in
  sized @@ fix (fun self n ->
      if n <= 0 then
        oneof
          [
            map (fun k -> Ov k) (int_range 0 1);
            map (fun k -> Rv k) (int_range 0 0);
            map (fun c -> Const c) (int_range (-4) 12);
          ]
      else
        frequency
          [
            (2, map2 (fun a b -> Add (a, b)) (self (n / 2)) (self (n / 2)));
            (2, map2 (fun a k -> Mul (a, k)) (self (n - 1)) (int_range (-3) 4));
            (1, map2 (fun a k -> Div (a, k)) (self (n - 1)) (int_range 1 5));
            (1, map2 (fun a k -> Mod (a, k)) (self (n - 1)) (int_range 1 5));
          ])

let arb_idx = QCheck.make ~print:to_string gen_idx

let qcheck_simplify_sound =
  QCheck.Test.make ~name:"simplify preserves pointwise value" ~count:500
    arb_idx
    (fun e -> check_same_fn e (simp e))

let qcheck_range_sound =
  QCheck.Test.make ~name:"range bounds actual values" ~count:500 arb_idx
    (fun e ->
      let ov_ext = [| 8; 8 |] and rv_ext = [| 4 |] in
      let lo, hi = range ~ov_ext ~rv_ext e in
      let ok = ref true in
      Shape.iter ov_ext (fun ov ->
          let ov = Array.copy ov in
          Shape.iter rv_ext (fun rv ->
              let v = eval ~ov ~rv e in
              if v < lo || v > hi then ok := false));
      !ok)

let suite =
  [
    Alcotest.test_case "eval" `Quick test_eval;
    Alcotest.test_case "floor div semantics" `Quick test_floor_div_negative;
    Alcotest.test_case "simplify const fold" `Quick test_simplify_const_fold;
    Alcotest.test_case "simplify collect" `Quick test_simplify_add_collect;
    Alcotest.test_case "simplify cancel" `Quick test_simplify_cancel;
    Alcotest.test_case "mod elim by range" `Quick test_mod_elim_by_range;
    Alcotest.test_case "div elim by range" `Quick test_div_elim_by_range;
    Alcotest.test_case "div peel" `Quick test_div_peel;
    Alcotest.test_case "reshape roundtrip" `Quick test_reshape_roundtrip_simplifies;
    Alcotest.test_case "simplify semantics" `Quick test_simplify_preserves_semantics;
    Alcotest.test_case "range" `Quick test_range;
    Alcotest.test_case "subst out" `Quick test_subst_out;
    Alcotest.test_case "shift rv" `Quick test_shift_rv;
    Alcotest.test_case "var bounds" `Quick test_var_bounds;
    QCheck_alcotest.to_alcotest qcheck_simplify_sound;
    QCheck_alcotest.to_alcotest qcheck_range_sound;
  ]
