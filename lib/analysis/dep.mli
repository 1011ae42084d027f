(** Element-wise dependence classification (§5.2).

    A TE without reduction axes is *one-relies-on-one*: each output element
    depends on exactly one element per input access, through a quasi-affine
    index map.  A TE with reduction axes is *one-relies-on-many*. *)

type t =
  | One_relies_on_one
      (** vertical transformation applies (§6.2) *)
  | One_relies_on_many of { axes : int array }
      (** reduction over the given extents; fused via two-phase block-local
          reduction + atomics (§6.3) *)

val classify : Te.t -> t

val affine_maps : Te.t -> (string * Amap.t) list option
(** The paper's [M·v + c] maps per input access of a one-relies-on-one TE;
    [None] when an access uses div/mod (still transformable by
    substitution) or the TE reduces. *)

val relation_to_string : Te.t -> string
(** The §5.2 polyhedral-notation relation, for documentation and
    debugging. *)
