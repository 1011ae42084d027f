(** Dense row-major ndarrays over [float].  This is the value domain of the
    reference TE interpreter — the correctness oracle every transformation is
    tested against. *)

type t = { shape : Shape.t; dtype : Dtype.t; data : float array }

let create ?(dtype = Dtype.F32) shape v =
  { shape; dtype; data = Array.make (Shape.numel shape) v }

let zeros ?dtype shape = create ?dtype shape 0.

let init ?(dtype = Dtype.F32) shape f =
  let data = Array.make (Shape.numel shape) 0. in
  let i = ref 0 in
  Shape.iter shape (fun idx ->
      data.(!i) <- f idx;
      incr i);
  { shape; dtype; data }

let of_array ?(dtype = Dtype.F32) shape data =
  if Array.length data <> Shape.numel shape then
    invalid_arg "Nd.of_array: size mismatch";
  { shape; dtype; data }

let shape t = t.shape
let dtype t = t.dtype
let numel t = Array.length t.data

(** The flat row-major buffer itself (not a copy). *)
let data t = t.data

let get t idx = t.data.(Shape.ravel t.shape idx)
let set t idx v = t.data.(Shape.ravel t.shape idx) <- v

let get_flat t i = t.data.(i)

let copy t = { t with data = Array.copy t.data }

let map f t = { t with data = Array.map f t.data }

let map2 f a b =
  if not (Shape.equal a.shape b.shape) then invalid_arg "Nd.map2: shape";
  { a with data = Array.init (numel a) (fun i -> f a.data.(i) b.data.(i)) }

let fold f init t = Array.fold_left f init t.data

let random ?(dtype = Dtype.F32) rng shape =
  init ~dtype shape (fun _ -> Rng.uniform rng ~lo:(-1.0) ~hi:1.0)

let max_abs_diff a b =
  if not (Shape.equal a.shape b.shape) then infinity
  else begin
    let m = ref 0. in
    for i = 0 to numel a - 1 do
      let d = Float.abs (a.data.(i) -. b.data.(i)) in
      if d > !m then m := d
    done;
    !m
  end

(** Mixed absolute/relative closeness, the standard allclose predicate. *)
let allclose ?(rtol = 1e-5) ?(atol = 1e-6) a b =
  Shape.equal a.shape b.shape
  && begin
       let ok = ref true in
       for i = 0 to numel a - 1 do
         let x = a.data.(i) and y = b.data.(i) in
         if Float.abs (x -. y) > atol +. (rtol *. Float.abs y) then ok := false
       done;
       !ok
     end

let equal a b = Shape.equal a.shape b.shape && a.data = b.data

let pp ppf t =
  Fmt.pf ppf "Nd%s %s [%d elems]" (Shape.to_string t.shape)
    (Dtype.to_string t.dtype) (numel t)

let to_string t = Fmt.str "%a" pp t
