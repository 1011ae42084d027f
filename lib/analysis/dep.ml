(** Element-wise dependence classification (§5.2).

    A TE without reduction axes is *one-relies-on-one*: each output element
    depends on exactly one element per input access, through a quasi-affine
    index map.  A TE with reduction axes is *one-relies-on-many*: each output
    element depends on the whole reduction region of its inputs. *)

type t =
  | One_relies_on_one
      (** no reduction axis; vertical transformation applies (§6.2) *)
  | One_relies_on_many of { axes : int array }
      (** reduction over the given extents; fused via two-phase
          block-local reduction + atomics (§6.3) *)

let classify (te : Te.t) : t =
  match te.Te.body with
  | Te.Compute _ -> One_relies_on_one
  | Te.Reduce { axes; _ } -> One_relies_on_many { axes }

(** The paper's [M·v + c] maps for a one-relies-on-one TE, when every access
    is strictly affine (reshape-style div/mod accesses return [None] here but
    are still transformable by substitution). *)
let affine_maps (te : Te.t) : (string * Amap.t) list option = Amap.of_te te

(** Render the polyhedral-notation relation of §5.2 for documentation and
    debugging, e.g.
    [R = { O[i0,i1] -> I[i0,r0], 0 <= r0 < 64 }]. *)
let relation_to_string (te : Te.t) : string =
  let outs = List.init (Te.rank te) (fun i -> Fmt.str "i%d" i) in
  let head = Fmt.str "%s[%s]" te.Te.name (String.concat "," outs) in
  let accesses = Te.accesses te in
  let access_str (name, idxs) =
    Fmt.str "%s[%s]" name
      (String.concat "," (List.map Index.to_string idxs))
  in
  let rhs = String.concat ", " (List.map access_str accesses) in
  let bounds =
    List.mapi (fun i d -> Fmt.str "0 <= i%d < %d" i d)
      (Array.to_list te.Te.out_shape)
    @ List.mapi (fun i d -> Fmt.str "0 <= r%d < %d" i d)
        (Array.to_list (Te.reduce_axes te))
  in
  Fmt.str "{ %s -> %s : %s }" head rhs (String.concat " and " bounds)
