(** Compute- vs memory-intensity characterization (§5.3).

    A TE's compute-memory ratio divides its arithmetic-instruction count by
    its memory footprint in elements (distinct input elements read plus
    output elements written); the classification threshold is 3, the paper's
    empirical constant.  Only reduction TEs can amortize enough arithmetic
    per element to classify compute-intensive. *)

type kind = Compute_intensive | Memory_intensive

val threshold : float
(** The paper's empirical constant: 3 arithmetic instructions per element. *)

val kind_to_string : kind -> string

val footprint_elems : Program.t -> Te.t -> int
(** Unique elements touched: every distinct input tensor plus the output. *)

val arith_instrs : Te.t -> int
(** Arithmetic instructions to materialize the output (a transcendental
    issues as one SFU instruction). *)

val ratio : Program.t -> Te.t -> float

val classify : Program.t -> Te.t -> kind
