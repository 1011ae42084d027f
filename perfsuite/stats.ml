(* Order statistics for the benchmark's reports. *)

let sorted (xs : float list) : float array =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(** First, second and third quartile by the exclusive method of Python's
    [statistics.quantiles(xs, n=4)], so a spread computed outside the
    benchmark from its printed values agrees with the one it reports.  A
    single sample is all three quartiles. *)
let quartiles (xs : float list) : float * float * float =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.quartiles: no samples"
  else if n = 1 then (a.(0), a.(0), a.(0))
  else
    let q i =
      let m = n + 1 in
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = float_of_int ((i * m) - (j * 4)) in
      ((a.(j - 1) *. (4. -. delta)) +. (a.(j) *. delta)) /. 4.
    in
    (q 1, q 2, q 3)

let median xs =
  let _, m, _ = quartiles xs in
  m

(** Nearest-rank percentile, the serving report's definition; 0 when there
    are no samples. *)
let percentile (xs : float list) (p : float) : float =
  if xs = [] then 0. else Serve_report.percentile xs p

let mean = function
  | [] -> 0.
  | xs -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

let geomean = function
  | [] -> 0.
  | xs -> exp (mean (List.map log xs))

let sum = List.fold_left ( +. ) 0.
