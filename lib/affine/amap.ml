(** Quasi-affine maps [v ↦ M·v + c] from an output iteration space into an
    input tensor's index space (§5.2).  For a one-relies-on-one TE, each input
    access is exactly one such map; composing the maps along a chain of TEs
    (Eq. 2) is what powers vertical transformation. *)

type t = {
  mat : Matrix.t;   (** rows = input tensor rank, cols = output rank *)
  off : int array;  (** the constant vector [c], length = input rank *)
}

let make mat off =
  if Matrix.rows mat <> Array.length off then invalid_arg "Amap.make";
  { mat; off }

let identity n = { mat = Matrix.identity n; off = Array.make n 0 }

let in_rank t = Matrix.rows t.mat
let out_rank t = Matrix.cols t.mat

let apply t v = Matrix.add_vec (Matrix.mul_vec t.mat v) t.off

(** [compose outer inner] is the map [v ↦ outer (inner v)] — Eq. 2:
    [f_{i+1,i}(v) = M_{i+1}·(M_i·v + c_i) + c_{i+1}]. *)
let compose outer inner =
  if in_rank inner <> out_rank outer then invalid_arg "Amap.compose: rank";
  {
    mat = Matrix.mul outer.mat inner.mat;
    off = Matrix.add_vec (Matrix.mul_vec outer.mat inner.off) outer.off;
  }

let pp ppf t =
  Fmt.pf ppf "%a + [%a]" Matrix.pp t.mat Fmt.(array ~sep:(any " ") int) t.off

(** Extract the affine map of a tensor access inside a TE body: the list of
    per-dimension index expressions must be affine in the output variables
    only (no reduction variables, no residual div/mod).  Returns the paper's
    [M·v + c] row-per-dimension representation. *)
let of_access ~(te : Te.t) (idxs : Index.t list) : t option =
  let n_out = Te.rank te in
  let raxes = Te.reduce_axes te in
  let n_red = Array.length raxes in
  let ov_ext = te.Te.out_shape and rv_ext = raxes in
  let rows =
    List.map
      (fun i -> Index.to_affine ~ov_ext ~rv_ext ~n_out ~n_red i)
      idxs
  in
  if List.exists Option.is_none rows then None
  else begin
    let rows = List.map Option.get rows in
    if List.exists (fun (_, rc, _) -> Array.exists (fun c -> c <> 0) rc) rows
    then None (* depends on a reduction variable: not one-relies-on-one *)
    else begin
      let m = Matrix.create (List.length rows) n_out in
      let off = Array.make (List.length rows) 0 in
      List.iteri
        (fun r (oc, _, c) ->
          Array.iteri (fun j v -> Matrix.set m r j v) oc;
          off.(r) <- c)
        rows;
      Some { mat = m; off }
    end
  end

(** The affine maps of every access of a one-relies-on-one TE, keyed by the
    input tensor name; [None] if any access falls outside the affine class. *)
let of_te (te : Te.t) : (string * t) list option =
  if Te.has_reduction te then None
  else begin
    let accesses = Te.accesses te in
    let maps =
      List.map (fun (name, idxs) -> (name, of_access ~te idxs)) accesses
    in
    if List.exists (fun (_, m) -> Option.is_none m) maps then None
    else Some (List.map (fun (name, m) -> (name, Option.get m)) maps)
  end
