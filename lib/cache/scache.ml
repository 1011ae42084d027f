(** Persistent cross-run schedule cache.

    Ansor's candidate search dominates compile time, and its result for a
    TE depends only on the {!Ansor.structural_key} — device name, search
    configuration, and the TE's structure.  This module keeps a
    [key -> Sched.t] table that survives across processes as a small JSON
    file ({!Jsonlite}), so a service recompiling the same models (or new
    models sharing layer structures) skips the search entirely.

    Robustness contract: {!load} never fails.  A missing file, unparsable
    JSON, an unknown format marker, a stale version, or a malformed entry
    all degrade to a (partially) empty cache — a clean miss, never a fatal
    error.  {!save} writes through a temp file and renames, so a crashed
    writer cannot leave a torn cache behind.

    Determinism contract: every key records the {!Ansor.mode} that
    produced its schedule
    ([mode=construct] / [mode=exhaustive]), so a warm cache reproduces the
    cold serial run of the same mode bit for bit and the two modes never
    serve each other's entries. *)

let format_marker = "souffle-scache"

(** Bump when the serialized [Sched.t] shape or the key derivation changes:
    caches written by older builds are then ignored wholesale instead of
    misinterpreted.  Version 2: keys carry the producing scheduler mode
    ([|mode=...]). *)
let format_version = 2

type t = {
  entries : (string, Sched.t) Hashtbl.t;
  mutable hits : int;    (** {!find} calls answered from the cache *)
  mutable misses : int;  (** {!find} calls that fell through *)
  mutable dirty : bool;  (** entries added since {!load}/{!save} *)
}

let create () =
  { entries = Hashtbl.create 256; hits = 0; misses = 0; dirty = false }

let length t = Hashtbl.length t.entries
let hits t = t.hits
let misses t = t.misses
let dirty t = t.dirty

let find (t : t) (key : string) : Sched.t option =
  match Hashtbl.find_opt t.entries key with
  | Some s ->
      t.hits <- t.hits + 1;
      Some s
  | None ->
      t.misses <- t.misses + 1;
      None

let add (t : t) (key : string) (s : Sched.t) : unit =
  if not (Hashtbl.mem t.entries key) then begin
    Hashtbl.replace t.entries key s;
    t.dirty <- true
  end

(** The cache as an {!Ansor.store}, pluggable straight into
    [Ansor.schedule_program]. *)
let store (t : t) : Ansor.store = { Ansor.find = find t; add = add t }

(* ---- (de)serialization ---------------------------------------------- *)

let json_of_int_array (a : int array) : Jsonlite.t =
  Jsonlite.Arr
    (Array.to_list (Array.map (fun i -> Jsonlite.Num (float_of_int i)) a))

let int_array_of_json (j : Jsonlite.t) : int array option =
  match j with
  | Jsonlite.Arr items ->
      let ints = List.filter_map Jsonlite.to_float items in
      if List.length ints <> List.length items then None
      else Some (Array.of_list (List.map int_of_float ints))
  | _ -> None

let json_of_sched (s : Sched.t) : Jsonlite.t =
  Jsonlite.Obj
    [
      ("te_name", Jsonlite.Str s.Sched.te_name);
      ("tile", json_of_int_array s.Sched.tile);
      ("rtile", json_of_int_array s.Sched.rtile);
      ("rsplit", Jsonlite.Num (float_of_int s.Sched.rsplit));
      ("threads", Jsonlite.Num (float_of_int s.Sched.threads_per_block));
      ("tensor_core", Jsonlite.Bool s.Sched.use_tensor_core);
      ("cache_read", Jsonlite.Bool s.Sched.cache_read_smem);
      ("eff", Jsonlite.Num s.Sched.compute_eff);
    ]

let sched_of_json (j : Jsonlite.t) : Sched.t option =
  let ( let* ) = Option.bind in
  let* te_name = Option.bind (Jsonlite.member "te_name" j) Jsonlite.to_str in
  let* tile = Option.bind (Jsonlite.member "tile" j) int_array_of_json in
  let* rtile = Option.bind (Jsonlite.member "rtile" j) int_array_of_json in
  let* rsplit = Option.bind (Jsonlite.member "rsplit" j) Jsonlite.to_float in
  let* threads = Option.bind (Jsonlite.member "threads" j) Jsonlite.to_float in
  let* tc =
    match Jsonlite.member "tensor_core" j with
    | Some (Jsonlite.Bool b) -> Some b
    | _ -> None
  in
  let* cr =
    match Jsonlite.member "cache_read" j with
    | Some (Jsonlite.Bool b) -> Some b
    | _ -> None
  in
  let* eff = Option.bind (Jsonlite.member "eff" j) Jsonlite.to_float in
  Some
    {
      Sched.te_name;
      tile;
      rtile;
      rsplit = int_of_float rsplit;
      threads_per_block = int_of_float threads;
      use_tensor_core = tc;
      cache_read_smem = cr;
      compute_eff = eff;
    }

let to_json (t : t) : Jsonlite.t =
  let entries =
    Hashtbl.fold (fun k s acc -> (k, json_of_sched s) :: acc) t.entries []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  Jsonlite.Obj
    [
      ("format", Jsonlite.Str format_marker);
      ("version", Jsonlite.Num (float_of_int format_version));
      ("entries", Jsonlite.Obj entries);
    ]

(* [Some t] only for a parsed value with the right marker and version;
   individual malformed entries are skipped, not fatal. *)
let of_json (j : Jsonlite.t) : t option =
  match
    ( Option.bind (Jsonlite.member "format" j) Jsonlite.to_str,
      Option.bind (Jsonlite.member "version" j) Jsonlite.to_float )
  with
  | Some marker, Some v
    when marker = format_marker && int_of_float v = format_version ->
      let t = create () in
      (match Jsonlite.member "entries" j with
      | Some (Jsonlite.Obj members) ->
          List.iter
            (fun (key, sj) ->
              match sched_of_json sj with
              | Some s -> Hashtbl.replace t.entries key s
              | None -> ())
            members
      | _ -> ());
      Some t
  | _ -> None

(* ---- file I/O -------------------------------------------------------- *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(** Load the cache at [path].  Total: any problem — missing file, I/O
    error, bad JSON, wrong format marker, stale version — yields an empty
    cache. *)
let load (path : string) : t =
  match read_file path with
  | exception _ -> create ()
  | contents -> (
      match Jsonlite.parse contents with
      | Error _ -> create ()
      | Ok j -> ( match of_json j with Some t -> t | None -> create ()))

(** Write the cache to [path] (temp file + rename, so readers never see a
    torn file) and clear the dirty flag. *)
let save (t : t) (path : string) : unit =
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (Jsonlite.to_string (to_json t)));
  Sys.rename tmp path;
  t.dirty <- false

let pp ppf (t : t) =
  Fmt.pf ppf "schedule cache: %d entr%s, %d hit(s), %d miss(es)" (length t)
    (if length t = 1 then "y" else "ies")
    t.hits t.misses
