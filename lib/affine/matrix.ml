(** Small dense integer matrices — the [M] of the paper's quasi-affine maps
    [M·v + c] (§5.2) and of the composed maps of Eq. 2 / Fig. 4. *)

type t = { rows : int; cols : int; data : int array }

let create rows cols = { rows; cols; data = Array.make (rows * cols) 0 }

let of_rows (rows : int list list) =
  match rows with
  | [] -> { rows = 0; cols = 0; data = [||] }
  | r0 :: _ ->
      let nr = List.length rows and nc = List.length r0 in
      let m = create nr nc in
      List.iteri
        (fun i row ->
          if List.length row <> nc then invalid_arg "Matrix.of_rows: ragged";
          List.iteri (fun j v -> m.data.((i * nc) + j) <- v) row)
        rows;
      m

let rows m = m.rows
let cols m = m.cols
let get m i j = m.data.((i * m.cols) + j)
let set m i j v = m.data.((i * m.cols) + j) <- v

let identity n =
  let m = create n n in
  for i = 0 to n - 1 do
    set m i i 1
  done;
  m

let mul a b =
  if a.cols <> b.rows then invalid_arg "Matrix.mul: dim mismatch";
  let m = create a.rows b.cols in
  for i = 0 to a.rows - 1 do
    for j = 0 to b.cols - 1 do
      let acc = ref 0 in
      for k = 0 to a.cols - 1 do
        acc := !acc + (get a i k * get b k j)
      done;
      set m i j !acc
    done
  done;
  m

let mul_vec m v =
  if Array.length v <> m.cols then invalid_arg "Matrix.mul_vec: dim mismatch";
  Array.init m.rows (fun i ->
      let acc = ref 0 in
      for j = 0 to m.cols - 1 do
        acc := !acc + (get m i j * v.(j))
      done;
      !acc)

let add_vec a b =
  if Array.length a <> Array.length b then invalid_arg "Matrix.add_vec";
  Array.init (Array.length a) (fun i -> a.(i) + b.(i))

let pp ppf m =
  Fmt.pf ppf "@[<v>";
  for i = 0 to m.rows - 1 do
    Fmt.pf ppf "[%a]@,"
      Fmt.(array ~sep:(any " ") int)
      (Array.init m.cols (fun j -> get m i j))
  done;
  Fmt.pf ppf "@]"
