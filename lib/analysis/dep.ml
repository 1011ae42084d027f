(** Element-wise dependence relations (§5.2).  Whether a TE is
    one-relies-on-one or one-relies-on-many is {!Te.has_reduction}. *)

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
