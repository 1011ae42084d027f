(** Element-wise dependence relations (§5.2).

    A TE without reduction axes is *one-relies-on-one*: each output element
    depends on exactly one element per input access.  A TE with reduction
    axes ({!Te.has_reduction}) is *one-relies-on-many*: each output element
    depends on the whole reduction region of its inputs. *)

val relation_to_string : Te.t -> string
(** The §5.2 polyhedral-notation relation, for documentation and
    debugging. *)
