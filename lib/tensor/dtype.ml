(** Element types carried by tensors.

    All numeric values are stored as OCaml [float]s in the reference
    interpreter; the dtype only governs the *cost model* (bytes moved,
    which arithmetic pipeline a computation uses) and FP16 rounding in
    the semantic oracle. *)

type t =
  | F16  (** half precision, used for GEMM inputs on tensor cores *)
  | F32  (** single precision, default for every other operator *)
  | I32  (** indices / integer tensors *)
  | Bool (** predicates *)

let bytes = function
  | F16 -> 2
  | F32 | I32 -> 4
  | Bool -> 1

let to_string = function
  | F16 -> "f16"
  | F32 -> "f32"
  | I32 -> "i32"
  | Bool -> "bool"

let pp ppf t = Fmt.string ppf (to_string t)

(* FP16 has a 10-bit mantissa; rounding through it keeps the oracle honest
   about precision without needing a real half type. *)
let round_f16 (x : float) =
  if Float.is_nan x || Float.is_integer x then x
  else
    let scaled = Float.ldexp x 10 in
    let frac, ex = Float.frexp scaled in
    Float.ldexp (Float.round (Float.ldexp frac 11) /. 2048.) (ex - 10)

let round_value t x = match t with F16 -> round_f16 x | F32 | I32 | Bool -> x
