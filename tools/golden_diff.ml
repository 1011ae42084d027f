(* Compare committed benchmark goldens against freshly generated output.

     golden_diff.exe [[--ignore KEY]... GOLDEN FRESH]...

   A pair with no --ignore before it must be byte-identical.  Once an
   --ignore is given, the pairs after it are parsed and compared as JSON
   after dropping every object member named KEY, at any depth; a KEY with
   a leading '*' matches by suffix ('*_speedup' drops every speedup ratio).
   That is how goldens carrying wall-clock fields are compared.  Every
   pair is checked and every differing path printed; the exit code is 1
   when any pair differs. *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let ignored patterns key =
  List.exists
    (fun p ->
      let n = String.length p in
      if n > 0 && p.[0] = '*' then
        let suffix = String.sub p 1 (n - 1) in
        String.ends_with ~suffix key
      else p = key)
    patterns

let rec strip patterns = function
  | Jsonlite.Obj members ->
      Jsonlite.Obj
        (List.filter_map
           (fun (k, v) ->
             if ignored patterns k then None else Some (k, strip patterns v))
           members)
  | Jsonlite.Arr items -> Jsonlite.Arr (List.map (strip patterns) items)
  | v -> v

let show v =
  let s = Jsonlite.to_string v in
  if String.length s <= 60 then s else String.sub s 0 57 ^ "..."

(* every path at which [a] (golden) and [b] (fresh) differ *)
let rec diff path a b acc =
  match (a, b) with
  | Jsonlite.Obj xs, Jsonlite.Obj ys ->
      let acc =
        List.fold_left
          (fun acc (k, x) ->
            match List.assoc_opt k ys with
            | Some y -> diff (path ^ "." ^ k) x y acc
            | None -> Fmt.str "%s.%s: missing from fresh output" path k :: acc)
          acc xs
      in
      List.fold_left
        (fun acc (k, _) ->
          if List.mem_assoc k xs then acc
          else Fmt.str "%s.%s: not in the golden" path k :: acc)
        acc ys
  | Jsonlite.Arr xs, Jsonlite.Arr ys when List.length xs = List.length ys ->
      List.fold_left2
        (fun (i, acc) x y -> (i + 1, diff (Fmt.str "%s[%d]" path i) x y acc))
        (0, acc) xs ys
      |> snd
  | Jsonlite.Num x, Jsonlite.Num y
    when Int64.bits_of_float x = Int64.bits_of_float y ->
      acc
  | _ when a = b -> acc
  | _ -> Fmt.str "%s: golden %s, fresh %s" path (show a) (show b) :: acc

let parse path =
  match Jsonlite.parse (read_file path) with
  | Ok v -> v
  | Error m ->
      Fmt.epr "golden_diff: %s does not parse: %s@." path m;
      exit 2

(* [true] when the pair matches *)
let compare_pair patterns golden fresh =
  let same =
    if patterns = [] then read_file golden = read_file fresh
    else strip patterns (parse golden) = strip patterns (parse fresh)
  in
  if not same then begin
    let paths =
      List.rev
        (diff "" (strip patterns (parse golden)) (strip patterns (parse fresh)) [])
    in
    Fmt.epr "golden_diff: %s drifted from %s@." golden fresh;
    (match paths with
    | [] -> Fmt.epr "  same JSON values, different bytes@."
    | _ ->
        List.iteri
          (fun i p -> if i < 20 then Fmt.epr "  %s@." p)
          paths;
        if List.length paths > 20 then
          Fmt.epr "  ... %d more@." (List.length paths - 20));
    Fmt.epr "  to accept the new output, copy %s over the golden@."
      (Filename.concat (Sys.getcwd ()) fresh)
  end;
  same

let () =
  (* each pair is compared under the --ignore keys given before it *)
  let rec pairs patterns = function
    | "--ignore" :: p :: rest -> pairs (p :: patterns) rest
    | g :: f :: rest -> (patterns, g, f) :: pairs patterns rest
    | [] -> []
    | _ ->
        prerr_endline
          "usage: golden_diff.exe [[--ignore KEY]... GOLDEN FRESH]...";
        exit 2
  in
  let results =
    List.map
      (fun (patterns, g, f) -> compare_pair patterns g f)
      (pairs [] (List.tl (Array.to_list Sys.argv)))
  in
  if List.mem false results then exit 1
