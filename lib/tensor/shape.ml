(** Tensor shapes as immutable int arrays (row-major). *)

type t = int array

let of_list = Array.of_list
let to_list = Array.to_list
let rank (s : t) = Array.length s
let dim (s : t) i = s.(i)

let numel (s : t) = Array.fold_left ( * ) 1 s

let equal (a : t) (b : t) = a = b

let to_string (s : t) =
  "(" ^ String.concat ", " (List.map string_of_int (to_list s)) ^ ")"

let pp ppf s = Fmt.string ppf (to_string s)

(** Row-major strides: [strides [|2;3;4|] = [|12;4;1|]]. *)
let strides (s : t) : int array =
  let n = rank s in
  let st = Array.make n 1 in
  for i = n - 2 downto 0 do
    st.(i) <- st.(i + 1) * s.(i + 1)
  done;
  st

(** Flatten a multi-index into a linear offset. *)
let ravel (s : t) (idx : int array) : int =
  let st = strides s in
  let acc = ref 0 in
  for i = 0 to rank s - 1 do
    acc := !acc + (idx.(i) * st.(i))
  done;
  !acc

(** Inverse of {!ravel}. *)
let unravel (s : t) (off : int) : int array =
  let st = strides s in
  Array.mapi (fun i _ -> off / st.(i) mod s.(i)) s

(** Iterate over every multi-index of the shape in row-major order.  The
    callback receives a buffer that is reused between calls; copy it if it
    must be retained. *)
let iter (s : t) (f : int array -> unit) =
  let n = rank s in
  if numel s > 0 then
    if n = 0 then f [||]
    else begin
      let idx = Array.make n 0 in
      let rec bump i =
        if i >= 0 then begin
          idx.(i) <- idx.(i) + 1;
          if idx.(i) = s.(i) then begin
            idx.(i) <- 0;
            bump (i - 1)
          end
        end
      in
      let total = numel s in
      for _ = 1 to total do
        f idx;
        bump (n - 1)
      done
    end

let concat_axis ~(axis : int) (a : t) (b : t) : t =
  if rank a <> rank b then invalid_arg "Shape.concat_axis: rank mismatch";
  Array.mapi
    (fun i d -> if i = axis then d + b.(i) else if d = b.(i) then d
                else invalid_arg "Shape.concat_axis: dim mismatch")
    a
