(** Combinators for building common TEs concisely (the [te.compute] /
    [te.reduce_axis] surface of Fig. 2, as an OCaml DSL).  Used by the graph
    lowerer, the tests, and the examples. *)

open Expr

let ov = Index.ov
let rv = Index.rv
let ic = Index.const

(** Identity access of an [n]-d tensor at the output point. *)
let at ?(rank = 2) name = Read (name, List.init rank ov)

(** Dense matmul [C[i,j] = sum_k A[i,k] * B[k,j]] with C : (m, n). *)
let matmul ?(tag = "matmul") ?(dtype = Dtype.F32) ~name ~m ~n ~k a b =
  Te.reduce ~tag ~name ~shape:[| m; n |] ~dtype ~op:Te.Sum
    ~axes:[| k |]
    (Binop (Mul, Read (a, [ ov 0; rv 0 ]), Read (b, [ rv 0; ov 1 ])))

(** Matmul with transposed second operand: [C[i,j] = sum_k A[i,k]*B[j,k]]. *)
let matmul_nt ?(tag = "matmul_nt") ?(dtype = Dtype.F32) ~name ~m ~n ~k a b =
  Te.reduce ~tag ~name ~shape:[| m; n |] ~dtype ~op:Te.Sum
    ~axes:[| k |]
    (Binop (Mul, Read (a, [ ov 0; rv 0 ]), Read (b, [ ov 1; rv 0 ])))

(** Batched matmul over shapes (b, m, k) x (b, k, n). *)
let batch_matmul ?(tag = "batch_matmul") ?(dtype = Dtype.F32) ~name ~b ~m ~n ~k
    x y =
  Te.reduce ~tag ~name ~shape:[| b; m; n |] ~dtype ~op:Te.Sum
    ~axes:[| k |]
    (Binop
       (Mul, Read (x, [ ov 0; ov 1; rv 0 ]), Read (y, [ ov 0; rv 0; ov 2 ])))

(** GEMV: [y[i] = sum_k W[i,k] * x[k]]. *)
let gemv ?(tag = "gemv") ?(dtype = Dtype.F32) ~name ~m ~k w x =
  Te.reduce ~tag ~name ~shape:[| m |] ~dtype ~op:Te.Sum ~axes:[| k |]
    (Binop (Mul, Read (w, [ ov 0; rv 0 ]), Read (x, [ rv 0 ])))

(** Element-wise unary op over an arbitrary shape. *)
let unary ?(tag = "unary") ?(dtype = Dtype.F32) ~name ~shape op src =
  let rank = Shape.rank shape in
  Te.compute ~tag ~name ~shape ~dtype (Unop (op, at ~rank src))

(** Element-wise binary op between two same-shaped tensors. *)
let binary ?(tag = "binary") ?(dtype = Dtype.F32) ~name ~shape op a b =
  let rank = Shape.rank shape in
  Te.compute ~tag ~name ~shape ~dtype (Binop (op, at ~rank a, at ~rank b))

(** Add a 1-d bias broadcast along the last dimension. *)
let bias_add ?(tag = "bias_add") ?(dtype = Dtype.F32) ~name ~shape src bias =
  let rank = Shape.rank shape in
  Te.compute ~tag ~name ~shape ~dtype
    (Binop (Add, at ~rank src, Read (bias, [ ov (rank - 1) ])))

(** Scale by a scalar constant. *)
let scale ?(tag = "scale") ?(dtype = Dtype.F32) ~name ~shape src c =
  let rank = Shape.rank shape in
  Te.compute ~tag ~name ~shape ~dtype (Binop (Mul, at ~rank src, Const c))

(** Reduction over the last axis of a 2-d tensor: out (m). *)
let reduce_last ?(tag = "reduce") ?(dtype = Dtype.F32) ~name ~m ~k op src =
  Te.reduce ~tag ~name ~shape:[| m |] ~dtype ~op ~axes:[| k |]
    (Read (src, [ ov 0; rv 0 ]))

(** Transpose / general permutation of dimensions. *)
let permute ?(tag = "permute") ?(dtype = Dtype.F32) ~name ~in_shape ~perm src =
  let out_shape = Array.map (fun d -> in_shape.(d)) perm in
  let rank = Array.length perm in
  (* out[i0..in] = in[i_{inv 0} .. ]: input dim d comes from out dim where
     perm maps to it *)
  let inv = Array.make rank 0 in
  Array.iteri (fun o d -> inv.(d) <- o) perm;
  Te.compute ~tag ~name ~shape:out_shape ~dtype
    (Read (src, List.init rank (fun d -> ov inv.(d))))

(** Row-major reshape. *)
let reshape ?(tag = "reshape") ?(dtype = Dtype.F32) ~name ~in_shape ~out_shape
    src =
  if Shape.numel in_shape <> Shape.numel out_shape then
    invalid_arg "Builder.reshape: numel mismatch";
  let out_strides = Shape.strides out_shape in
  (* linear offset as an index expression *)
  let linear =
    Array.to_list out_strides
    |> List.mapi (fun i s -> Index.Mul (ov i, s))
    |> function
    | [] -> ic 0
    | x :: rest -> List.fold_left (fun a b -> Index.Add (a, b)) x rest
  in
  let in_strides = Shape.strides in_shape in
  let idxs =
    List.init (Shape.rank in_shape) (fun d ->
        Index.Mod (Index.Div (linear, in_strides.(d)), in_shape.(d)))
  in
  Te.compute ~tag ~name ~shape:out_shape ~dtype (Read (src, idxs))

(** Static slice: out[i..] = in[i + start..]. *)
let slice ?(tag = "slice") ?(dtype = Dtype.F32) ~name ~starts ~sizes src =
  let rank = Array.length sizes in
  Te.compute ~tag ~name ~shape:sizes ~dtype
    (Read (src, List.init rank (fun d -> Index.Add (ov d, ic starts.(d)))))

(** Strided slice along one axis (Fig. 4's example). *)
let strided_slice ?(tag = "strided_slice") ?(dtype = Dtype.F32) ~name ~in_shape
    ~axis ~start ~stride ~size src =
  let out_shape = Array.copy in_shape in
  out_shape.(axis) <- size;
  let rank = Array.length in_shape in
  Te.compute ~tag ~name ~shape:out_shape ~dtype
    (Read
       ( src,
         List.init rank (fun d ->
             if d = axis then Index.Add (Index.Mul (ov d, stride), ic start)
             else ov d) ))

(** Concatenate two tensors along [axis] using a predicate on the output
    index (the Fig. 3 pattern). *)
let concat2 ?(tag = "concat") ?(dtype = Dtype.F32) ~name ~axis ~shape_a
    ~shape_b a b =
  let out_shape = Shape.concat_axis ~axis shape_a shape_b in
  let rank = Array.length out_shape in
  let split = shape_a.(axis) in
  let idx_a = List.init rank ov in
  let idx_b =
    List.init rank (fun d ->
        if d = axis then Index.Add (ov d, ic (-split)) else ov d)
  in
  Te.compute ~tag ~name ~shape:out_shape ~dtype
    (Select (Cmp (Lt, ov axis, ic split), Read (a, idx_a), Read (b, idx_b)))

(** Broadcast a lower-rank tensor across leading dims:
    out[i0..,j..] = in[j..] where [src_rank] trailing dims match. *)
let broadcast ?(tag = "broadcast") ?(dtype = Dtype.F32) ~name ~shape ~src_rank
    src =
  let rank = Shape.rank shape in
  Te.compute ~tag ~name ~shape ~dtype
    (Read (src, List.init src_rank (fun d -> ov (rank - src_rank + d))))

(** Softmax over the last axis of a 2-d tensor, as the multi-TE program of
    §1 ("a softmax operator can be represented by two TEs"): max-reduce,
    exp-subtract, sum-reduce, divide.  Returns the TEs in order; the final
    tensor is [name]. *)
let softmax2d ?(dtype = Dtype.F32) ~name ~m ~k src =
  let mx = name ^ ".max" and ex = name ^ ".exp" and sm = name ^ ".sum" in
  [
    reduce_last ~tag:"softmax.max" ~dtype ~name:mx ~m ~k Te.Max src;
    Te.compute ~tag:"softmax.exp" ~name:ex ~shape:[| m; k |] ~dtype
      (Unop (Exp, Binop (Sub, at src, Read (mx, [ ov 0 ]))));
    reduce_last ~tag:"softmax.sum" ~dtype ~name:sm ~m ~k Te.Sum ex;
    Te.compute ~tag:"softmax.div" ~name ~shape:[| m; k |] ~dtype
      (Binop (Div, at ex, Read (sm, [ ov 0 ])));
  ]
