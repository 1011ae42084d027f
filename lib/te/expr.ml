(** Scalar expressions forming the body of a tensor expression.

    A body is evaluated once per point of the output iteration space (and,
    for reductions, once per point of the reduction domain); tensor reads are
    addressed with quasi-affine {!Index.t} expressions. *)

type unop =
  | Neg | Exp | Log | Sqrt | Rsqrt | Tanh | Sigmoid | Relu | Erf | Abs | Recip
  | Step  (** 1 if x > 0 else 0 — the relu derivative *)

type binop = Add | Sub | Mul | Div | Max | Min | Pow

type rel = Lt | Le | Eq | Ne | Ge | Gt

(** Predicates over index values, used for padding and for the
    [if_then_else] selectors introduced by horizontal transformation. *)
type cond =
  | Cmp of rel * Index.t * Index.t
  | And of cond * cond
  | Or of cond * cond
  | Not of cond

type t =
  | Const of float
  | Read of string * Index.t list  (** tensor access by name *)
  | IdxVal of Index.t              (** index value promoted to float *)
  | Unop of unop * t
  | Binop of binop * t * t
  | Select of cond * t * t

let unop_to_string = function
  | Neg -> "neg" | Exp -> "exp" | Log -> "log" | Sqrt -> "sqrt"
  | Rsqrt -> "rsqrt" | Tanh -> "tanh" | Sigmoid -> "sigmoid"
  | Relu -> "relu" | Erf -> "erf" | Abs -> "abs" | Recip -> "recip"
  | Step -> "step"

let binop_to_string = function
  | Add -> "+" | Sub -> "-" | Mul -> "*" | Div -> "/"
  | Max -> "max" | Min -> "min" | Pow -> "pow"

let rel_to_string = function
  | Lt -> "<" | Le -> "<=" | Eq -> "==" | Ne -> "!=" | Ge -> ">=" | Gt -> ">"

let rec pp ppf = function
  | Const f -> Fmt.pf ppf "%g" f
  | Read (name, idxs) ->
      Fmt.pf ppf "%s[%a]" name Fmt.(list ~sep:(any ", ") Index.pp) idxs
  | IdxVal i -> Fmt.pf ppf "float(%a)" Index.pp i
  | Unop (op, a) -> Fmt.pf ppf "%s(%a)" (unop_to_string op) pp a
  | Binop ((Add | Sub | Mul | Div) as op, a, b) ->
      Fmt.pf ppf "(%a %s %a)" pp a (binop_to_string op) pp b
  | Binop (op, a, b) ->
      Fmt.pf ppf "%s(%a, %a)" (binop_to_string op) pp a pp b
  | Select (c, a, b) -> Fmt.pf ppf "select(%a, %a, %a)" pp_cond c pp a pp b

and pp_cond ppf = function
  | Cmp (r, a, b) -> Fmt.pf ppf "%a %s %a" Index.pp a (rel_to_string r) Index.pp b
  | And (a, b) -> Fmt.pf ppf "(%a && %a)" pp_cond a pp_cond b
  | Or (a, b) -> Fmt.pf ppf "(%a || %a)" pp_cond a pp_cond b
  | Not a -> Fmt.pf ppf "!(%a)" pp_cond a

let to_string t = Fmt.str "%a" pp t

let apply_unop op x =
  match op with
  | Neg -> -.x
  | Exp -> Float.exp x
  | Log -> Float.log x
  | Sqrt -> Float.sqrt x
  | Rsqrt -> 1. /. Float.sqrt x
  | Tanh -> Float.tanh x
  | Sigmoid -> 1. /. (1. +. Float.exp (-.x))
  | Relu -> Float.max 0. x
  | Erf ->
      (* Abramowitz & Stegun 7.1.26, max abs error 1.5e-7 *)
      let sign = if x < 0. then -1. else 1. in
      let x = Float.abs x in
      let t = 1. /. (1. +. (0.3275911 *. x)) in
      let poly =
        ((((1.061405429 *. t -. 1.453152027) *. t +. 1.421413741) *. t
          -. 0.284496736) *. t +. 0.254829592) *. t
      in
      sign *. (1. -. (poly *. Float.exp (-.(x *. x))))
  | Abs -> Float.abs x
  | Recip -> 1. /. x
  | Step -> if x > 0. then 1. else 0.

let apply_binop op x y =
  match op with
  | Add -> x +. y
  | Sub -> x -. y
  | Mul -> x *. y
  | Div -> x /. y
  | Max -> Float.max x y
  | Min -> Float.min x y
  | Pow -> Float.pow x y

let apply_rel r (a : int) (b : int) =
  match r with
  | Lt -> a < b | Le -> a <= b | Eq -> a = b
  | Ne -> a <> b | Ge -> a >= b | Gt -> a > b

let rec eval ~read ~ov ~rv = function
  | Const f -> f
  | Read (name, idxs) ->
      read name (List.map (Index.eval ~ov ~rv) idxs)
  | IdxVal i -> float_of_int (Index.eval ~ov ~rv i)
  | Unop (op, a) -> apply_unop op (eval ~read ~ov ~rv a)
  | Binop (op, a, b) ->
      apply_binop op (eval ~read ~ov ~rv a) (eval ~read ~ov ~rv b)
  | Select (c, a, b) ->
      if eval_cond ~ov ~rv c then eval ~read ~ov ~rv a else eval ~read ~ov ~rv b

and eval_cond ~ov ~rv = function
  | Cmp (r, a, b) -> apply_rel r (Index.eval ~ov ~rv a) (Index.eval ~ov ~rv b)
  | And (a, b) -> eval_cond ~ov ~rv a && eval_cond ~ov ~rv b
  | Or (a, b) -> eval_cond ~ov ~rv a || eval_cond ~ov ~rv b
  | Not a -> not (eval_cond ~ov ~rv a)

(** Rewrite every index expression (in reads, selects and [IdxVal]). *)
let rec map_index f = function
  | Const _ as e -> e
  | Read (name, idxs) -> Read (name, List.map f idxs)
  | IdxVal i -> IdxVal (f i)
  | Unop (op, a) -> Unop (op, map_index f a)
  | Binop (op, a, b) -> Binop (op, map_index f a, map_index f b)
  | Select (c, a, b) ->
      Select (map_index_cond f c, map_index f a, map_index f b)

and map_index_cond f = function
  | Cmp (r, a, b) -> Cmp (r, f a, f b)
  | And (a, b) -> And (map_index_cond f a, map_index_cond f b)
  | Or (a, b) -> Or (map_index_cond f a, map_index_cond f b)
  | Not a -> Not (map_index_cond f a)

(** Substitute output iteration variables with index expressions —
    the workhorse of vertical transformation (§6.2, Eq. 2). *)
let subst_out (m : int -> Index.t) e = map_index (Index.subst_out m) e

(** Rewrite tensor reads; [f name idxs] returns a replacement expression. *)
let rec map_reads f = function
  | Const _ | IdxVal _ as e -> e
  | Read (name, idxs) -> f name idxs
  | Unop (op, a) -> Unop (op, map_reads f a)
  | Binop (op, a, b) -> Binop (op, map_reads f a, map_reads f b)
  | Select (c, a, b) -> Select (c, map_reads f a, map_reads f b)

(** All tensor accesses, in syntactic order. *)
let reads e =
  let acc = ref [] in
  let rec go = function
    | Const _ | IdxVal _ -> ()
    | Read (name, idxs) -> acc := (name, idxs) :: !acc
    | Unop (_, a) -> go a
    | Binop (_, a, b) -> go a; go b
    | Select (_, a, b) -> go a; go b
  in
  go e;
  List.rev !acc

let read_names e =
  List.sort_uniq String.compare (List.map fst (reads e))

(** Arithmetic-operation count of one body evaluation (used by the §5.3
    compute-/memory-intensity classifier). *)
let rec flops = function
  | Const _ | Read _ | IdxVal _ -> 0
  | Unop ((Exp | Log | Sqrt | Rsqrt | Tanh | Sigmoid | Erf), a) ->
      (* transcendentals cost several SFU ops *)
      4 + flops a
  | Unop (_, a) -> 1 + flops a
  | Binop (Pow, a, b) -> 8 + flops a + flops b
  | Binop (_, a, b) -> 1 + flops a + flops b
  (* disjoint-predicate selects (horizontal merges, padding guards) execute
     one branch per thread block; predication is address math, not flops *)
  | Select (_, a, b) -> max (flops a) (flops b)

(** Number of transcendental (SFU-pipeline) operations per evaluation. *)
let rec sfu_count = function
  | Const _ | Read _ | IdxVal _ -> 0
  | Unop ((Exp | Log | Sqrt | Rsqrt | Tanh | Sigmoid | Erf), a) ->
      1 + sfu_count a
  | Unop (_, a) -> sfu_count a
  | Binop (Pow, a, b) -> 1 + sfu_count a + sfu_count b
  | Binop (_, a, b) -> sfu_count a + sfu_count b
  | Select (_, a, b) -> max (sfu_count a) (sfu_count b)

(** Number of tensor-read sites per evaluation. *)
let rec read_count = function
  | Const _ | IdxVal _ -> 0
  | Read _ -> 1
  | Unop (_, a) -> read_count a
  | Binop (_, a, b) -> read_count a + read_count b
  | Select (_, a, b) -> max (read_count a) (read_count b)

(** Pure data movement: the body forwards input elements (possibly through
    index remapping and padding selects) without arithmetic. *)
let rec is_data_movement = function
  | Read _ | Const _ -> true
  | Select (_, a, b) -> is_data_movement a && is_data_movement b
  | Unop _ | Binop _ | IdxVal _ -> false

(** Does the expression use any transcendental (SFU-pipeline) operation? *)
let rec uses_sfu = function
  | Const _ | Read _ | IdxVal _ -> false
  | Unop ((Exp | Log | Sqrt | Rsqrt | Tanh | Sigmoid | Erf), _) -> true
  | Unop (_, a) -> uses_sfu a
  | Binop (Pow, _, _) -> true
  | Binop (_, a, b) -> uses_sfu a || uses_sfu b
  | Select (_, a, b) -> uses_sfu a || uses_sfu b
