(** Compute- vs memory-intensity characterization (§5.3).

    The compute-memory ratio divides a TE's arithmetic-instruction count by
    its memory footprint in elements (each distinct input element read plus
    each output element written).  The classification threshold is 3, the
    paper's empirical constant. *)

type kind = Compute_intensive | Memory_intensive

let threshold = 3.0

let kind_to_string = function
  | Compute_intensive -> "compute-intensive"
  | Memory_intensive -> "memory-intensive"

(** Memory footprint in elements: output plus every distinct tensor read.
    (Unique-byte accounting — intra-kernel re-reads hit caches and are a
    schedule property, not a TE property.) *)
let footprint_elems (p : Program.t) (te : Te.t) : int =
  let inputs = Te.inputs te in
  let input_elems =
    List.fold_left
      (fun acc name ->
        acc + Shape.numel (Program.tensor_info_exn p name).Program.shape)
      0 inputs
  in
  input_elems + Te.out_numel te

(* Arithmetic *instructions* per evaluation: a transcendental issues as one
   SFU instruction even though it costs several cycles, so undo the flop
   weighting the performance model applies. *)
let arith_instrs (te : Te.t) : int =
  let per_point = Expr.flops (Te.body_expr te) in
  let sfu = Expr.sfu_count (Te.body_expr te) in
  let per_point = per_point - (3 * sfu) in
  match te.Te.body with
  | Te.Compute _ -> per_point * Te.out_numel te
  | Te.Reduce _ -> (per_point + 1) * Te.out_numel te * Te.reduce_domain te

let ratio (p : Program.t) (te : Te.t) : float =
  let fp = footprint_elems p te in
  if fp = 0 then 0.
  else float_of_int (arith_instrs te) /. float_of_int fp

let classify (p : Program.t) (te : Te.t) : kind =
  (* A TE without a reduction axis does O(1) work per element and is always
     bandwidth-bound; only reduction TEs can amortize enough arithmetic per
     element to be compute-intensive (the paper's candidates in §5.4 are all
     reductions: GEMM, Conv). *)
  if Te.has_reduction te && ratio p te >= threshold then Compute_intensive
  else Memory_intensive
