(** High-level DNN operators, the front-end vocabulary a model graph is
    written in before TE lowering (§4 "TE lowering").  Layout conventions:
    activations are NCHW for convolutions, (rows, cols) for matrices. *)

type pool_kind = Max_pool | Avg_pool

type t =
  | Matmul
      (** (m,k) x (k,n) -> (m,n) *)
  | Matmul_nt
      (** (m,k) x (n,k) -> (m,n); the B operand is stored transposed *)
  | Batch_matmul
      (** (b,m,k) x (b,k,n) -> (b,m,n) *)
  | Batch_matmul_nt
      (** (b,m,k) x (b,n,k) -> (b,m,n) *)
  | Gemv
      (** (m,k) x (k) -> (m) *)
  | Conv2d of { kernel : int; stride : int; padding : int; groups : int }
      (** input (n,c,h,w), weight (oc, c/groups, kh, kw) -> (n,oc,oh,ow) *)
  | Depthwise_conv2d of { kernel : int; stride : int; padding : int }
      (** input (n,c,h,w), weight (c,1,kh,kw) -> (n,c,oh,ow) *)
  | Pool2d of { kind : pool_kind; kernel : int; stride : int; padding : int }
  | Global_avg_pool
      (** (n,c,h,w) -> (n,c) *)
  | Unary of Expr.unop
  | Affine of { scale : float; shift : float }
      (** x -> scale * x + shift, element-wise *)
  | Binary of Expr.binop
      (** two inputs of equal shape, or second broadcast from trailing dims *)
  | Rowwise of Expr.binop
      (** x (.., m, k) combined with v (.., m) broadcast along the last
          axis: out[..,i,j] = x[..,i,j] op v[..,i] *)
  | Bias_add
      (** input x, bias broadcast along the last dimension *)
  | Scale of float
  | Scale_channels
      (** x (n,c,h,w) scaled per channel by s (n,c) — squeeze-excite *)
  | Bias_channels
      (** x (n,c,h,w) plus per-channel bias (c) — folded batch norm *)
  | Softmax
      (** over the last axis *)
  | Causal_mask
      (** autoregressive attention mask over score tensors (.., q, k):
          entries with key index > query index become -inf, so a following
          {!Softmax} assigns them exactly zero weight *)
  | Layernorm of { eps : float }
      (** over the last axis; inputs: x, gamma, beta *)
  | Reduce of { op : Te.reduce_op; axis : int }
      (** reduce one axis away *)
  | Reshape of int array
  | Transpose of int array
      (** general dimension permutation *)
  | Slice of { starts : int array; sizes : int array }
  | Strided_slice of { axis : int; start : int; stride : int; size : int }
  | Concat of { axis : int }
      (** variadic *)

let to_string = function
  | Matmul -> "matmul"
  | Matmul_nt -> "matmul_nt"
  | Batch_matmul -> "batch_matmul"
  | Batch_matmul_nt -> "batch_matmul_nt"
  | Gemv -> "gemv"
  | Conv2d { kernel; stride; padding; groups } ->
      Fmt.str "conv2d(k%d,s%d,p%d,g%d)" kernel stride padding groups
  | Depthwise_conv2d { kernel; stride; padding } ->
      Fmt.str "dwconv2d(k%d,s%d,p%d)" kernel stride padding
  | Pool2d { kind; kernel; stride; padding } ->
      Fmt.str "%s_pool(k%d,s%d,p%d)"
        (match kind with Max_pool -> "max" | Avg_pool -> "avg")
        kernel stride padding
  | Global_avg_pool -> "global_avg_pool"
  | Unary u -> Expr.unop_to_string u
  | Affine { scale; shift } -> Fmt.str "affine(%g,%g)" scale shift
  | Binary b -> "ew_" ^ Expr.binop_to_string b
  | Rowwise b -> "rowwise_" ^ Expr.binop_to_string b
  | Bias_add -> "bias_add"
  | Scale c -> Fmt.str "scale(%g)" c
  | Scale_channels -> "scale_channels"
  | Bias_channels -> "bias_channels"
  | Softmax -> "softmax"
  | Causal_mask -> "causal_mask"
  | Layernorm _ -> "layernorm"
  | Reduce { op; axis } ->
      Fmt.str "reduce_%s(axis=%d)" (Te.reduce_op_to_string op) axis
  | Reshape s -> "reshape" ^ Shape.to_string s
  | Transpose p -> "transpose" ^ Shape.to_string p
  | Slice _ -> "slice"
  | Strided_slice _ -> "strided_slice"
  | Concat { axis } -> Fmt.str "concat(axis=%d)" axis

let conv_out_dim ~in_dim ~kernel ~stride ~padding =
  ((in_dim + (2 * padding) - kernel) / stride) + 1

(** Output shape from input shapes; raises [Invalid_argument] on rank or
    dimension mismatches — this is the operator-level shape checker. *)
let infer_shape (op : t) (ins : Shape.t list) : Shape.t =
  let fail msg = invalid_arg (Fmt.str "%s: %s" (to_string op) msg) in
  let one () = match ins with [ a ] -> a | _ -> fail "expects 1 input" in
  let two () = match ins with [ a; b ] -> (a, b) | _ -> fail "expects 2" in
  match op with
  | Matmul ->
      let a, b = two () in
      if Array.length a <> 2 || Array.length b <> 2 || a.(1) <> b.(0) then
        fail "bad matmul shapes";
      [| a.(0); b.(1) |]
  | Matmul_nt ->
      let a, b = two () in
      if Array.length a <> 2 || Array.length b <> 2 || a.(1) <> b.(1) then
        fail "bad matmul_nt shapes";
      [| a.(0); b.(0) |]
  | Batch_matmul ->
      let a, b = two () in
      if Array.length a <> 3 || Array.length b <> 3 || a.(0) <> b.(0)
         || a.(2) <> b.(1)
      then fail "bad batch_matmul shapes";
      [| a.(0); a.(1); b.(2) |]
  | Batch_matmul_nt ->
      let a, b = two () in
      if Array.length a <> 3 || Array.length b <> 3 || a.(0) <> b.(0)
         || a.(2) <> b.(2)
      then fail "bad batch_matmul_nt shapes";
      [| a.(0); a.(1); b.(1) |]
  | Gemv ->
      let w, x = two () in
      if Array.length w <> 2 || Array.length x <> 1 || w.(1) <> x.(0) then
        fail "bad gemv shapes";
      [| w.(0) |]
  | Conv2d { kernel; stride; padding; groups } ->
      let x, w = two () in
      if Array.length x <> 4 || Array.length w <> 4 then fail "rank";
      if w.(1) * groups <> x.(1) then fail "channel/group mismatch";
      if w.(0) mod groups <> 0 then fail "oc not divisible by groups";
      let oh = conv_out_dim ~in_dim:x.(2) ~kernel ~stride ~padding in
      let ow = conv_out_dim ~in_dim:x.(3) ~kernel ~stride ~padding in
      [| x.(0); w.(0); oh; ow |]
  | Depthwise_conv2d { kernel; stride; padding } ->
      let x, w = two () in
      if Array.length x <> 4 || Array.length w <> 4 || w.(0) <> x.(1) then
        fail "bad depthwise shapes";
      let oh = conv_out_dim ~in_dim:x.(2) ~kernel ~stride ~padding in
      let ow = conv_out_dim ~in_dim:x.(3) ~kernel ~stride ~padding in
      [| x.(0); x.(1); oh; ow |]
  | Pool2d { kernel; stride; padding; _ } ->
      let x = one () in
      if Array.length x <> 4 then fail "rank";
      let oh = conv_out_dim ~in_dim:x.(2) ~kernel ~stride ~padding in
      let ow = conv_out_dim ~in_dim:x.(3) ~kernel ~stride ~padding in
      [| x.(0); x.(1); oh; ow |]
  | Global_avg_pool ->
      let x = one () in
      if Array.length x <> 4 then fail "rank";
      [| x.(0); x.(1) |]
  | Unary _ | Scale _ | Affine _ | Softmax -> one ()
  | Causal_mask ->
      let x = one () in
      let r = Array.length x in
      if r < 2 then fail "rank";
      if x.(r - 2) <> x.(r - 1) then fail "query/key dims must match";
      x
  | Rowwise _ ->
      let x, v = two () in
      let rx = Array.length x in
      if Array.length v <> rx - 1 || Array.sub x 0 (rx - 1) <> v then
        fail "rowwise operand must match leading dims";
      x
  | Scale_channels ->
      let x, s = two () in
      if Array.length x <> 4 || Array.length s <> 2 || s.(0) <> x.(0)
         || s.(1) <> x.(1)
      then fail "bad scale_channels shapes";
      x
  | Bias_channels ->
      let x, s = two () in
      if Array.length x <> 4 || Array.length s <> 1 || s.(0) <> x.(1) then
        fail "bad bias_channels shapes";
      x
  | Binary _ ->
      let a, b = two () in
      if Shape.equal a b then a
      else begin
        (* allow broadcast of b from trailing dims of a *)
        let ra = Array.length a and rb = Array.length b in
        if rb < ra
           && Array.for_all2 ( = ) (Array.sub a (ra - rb) rb) b
        then a
        else fail "shape mismatch"
      end
  | Bias_add ->
      let x, b = two () in
      if Array.length b <> 1 || b.(0) <> x.(Array.length x - 1) then
        fail "bias must match last dim";
      x
  | Layernorm _ -> (
      match ins with
      | [ x; g; bta ] ->
          let last = x.(Array.length x - 1) in
          if g <> [| last |] || bta <> [| last |] then fail "gamma/beta";
          x
      | _ -> fail "expects x, gamma, beta")
  | Reduce { axis; _ } ->
      let x = one () in
      if axis < 0 || axis >= Array.length x then fail "axis";
      Array.of_list
        (List.filteri (fun i _ -> i <> axis) (Array.to_list x))
  | Reshape s ->
      let x = one () in
      if Shape.numel x <> Shape.numel s then fail "numel mismatch";
      s
  | Transpose p ->
      let x = one () in
      if Array.length p <> Array.length x then fail "perm rank";
      Array.map (fun d -> x.(d)) p
  | Slice { starts; sizes } ->
      let x = one () in
      if Array.length starts <> Array.length x
         || Array.length sizes <> Array.length x
      then fail "rank";
      Array.iteri
        (fun i s -> if s + sizes.(i) > x.(i) then fail "slice out of range")
        starts;
      sizes
  | Strided_slice { axis; start; stride; size } ->
      let x = one () in
      if start + ((size - 1) * stride) >= x.(axis) then fail "out of range";
      let s = Array.copy x in
      s.(axis) <- size;
      s
  | Concat { axis } -> (
      match ins with
      | [] -> fail "expects >=1 input"
      | first :: rest ->
          List.fold_left (fun acc s -> Shape.concat_axis ~axis acc s)
            first rest)
