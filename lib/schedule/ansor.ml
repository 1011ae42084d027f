(** Template-based auto-scheduler standing in for Ansor (§6.3).

    For each compute-intensive TE it enumerates tile/thread configurations,
    scores them with an analytical latency model (DRAM for unique bytes, L2
    for tile re-reads, the appropriate arithmetic pipeline for the flops)
    and returns the best schedule plus its resource usage — exactly the
    artifacts Souffle needs from its schedule optimizer ("get required
    resource", §5.4).

    Compile throughput (the production hot path) is addressed on two
    axes:

    - {b pruned enumeration}: candidates are built into a pre-sized array
      with infeasible tile/thread combinations rejected before a [Sched.t]
      is ever allocated, and all per-TE invariants of the cost model are
      hoisted out of the per-candidate estimator;
    - {b schedule reuse}: an optional {!store} (an in-memory ladder cache,
      a persistent cross-run cache, or both layered) is consulted under the
      canonical {!structural_key} before any candidate is enumerated — a
      warm store skips the search entirely.

    The remaining keys are searched serially, one after another: at ~50
    cost evaluations per constructed key there is nothing for a domain
    fan-out to amortise (see [docs/COMPILE_PERF.md]).

    The Souffle pipeline schedules with [Construct], which runs
    {!schedule_program} with its own per-TE search; this module's
    enumeration serves the baselines and, through a pre-seeded store, the
    compile bench's quality oracle. *)

type config = {
  eff_cap : float;
      (** fraction of pipeline peak the code generator's inner loop
          achieves on large tiles; baseline profiles vary it *)
}

let default_config = { eff_cap = 0.60 }

(* Achieved efficiency: large tiles amortize prologue/epilogue and fill the
   pipelines; small tiles do not. *)
let efficiency cfg ~tensor_core (s : Sched.t) =
  let elems = Sched.tile_elems s in
  let full = if tensor_core then 128 * 128 else 4096 in
  let fill = Float.min 1. (float_of_int elems /. float_of_int full) in
  cfg.eff_cap *. Float.pow fill 0.25

(* ---- cost model ---------------------------------------------------- *)

(** Everything about (program, TE) the latency estimate needs but that does
    not depend on the candidate schedule — computed once per TE instead of
    once per candidate (the search visits hundreds of candidates per TE). *)
type cost_ctx = {
  unique_in_bytes : int;
  out_bytes : int;
  flops : int;
  body : Expr.t;
  numel_of : string -> int option;
}

let cost_ctx (p : Program.t) (te : Te.t) : cost_ctx =
  let elem_bytes name =
    let info = Program.tensor_info_exn p name in
    Dtype.bytes info.Program.dtype
  in
  let unique_in_bytes =
    List.fold_left
      (fun acc name ->
        acc
        + Shape.numel (Program.tensor_info_exn p name).Program.shape
          * elem_bytes name)
      0 (Te.inputs te)
  in
  {
    unique_in_bytes;
    out_bytes = Te.out_numel te * Dtype.bytes te.Te.dtype;
    flops = Te.arith_ops te;
    body = Te.body_expr te;
    numel_of = Sched.numel_of_program p;
  }

(** Analytical latency (µs) of running [te] alone under schedule [s], with
    the per-TE invariants supplied as [ctx]. *)
let estimate_us_ctx (dev : Device.t) (ctx : cost_ctx) (te : Te.t)
    (s : Sched.t) : float =
  let grid = Sched.grid_blocks te s in
  let total_loaded =
    Sched.tiled_load_bytes_with ~numel_of:ctx.numel_of ~body:ctx.body te s
  in
  let l2_extra = max 0 (total_loaded - ctx.unique_in_bytes) in
  let atomic_bytes = ctx.out_bytes * (max 1 s.Sched.rsplit - 1) in
  let dram_us =
    float_of_int (ctx.unique_in_bytes + ctx.out_bytes)
    /. (dev.Device.dram_bw_gbps *. 0.85 *. 1e3)
    +. (float_of_int atomic_bytes
        /. (dev.Device.dram_bw_gbps *. dev.Device.atomic_bw_factor *. 1e3))
  in
  let l2_us = float_of_int l2_extra /. (dev.Device.l2_bw_gbps *. 1e3) in
  let peak =
    if s.Sched.use_tensor_core then dev.Device.fp16_tc_tflops
    else dev.Device.fp32_tflops
  in
  (* under-occupancy: small grids leave SMs idle (mirrors the simulator) *)
  let sms = float_of_int dev.Device.num_sms in
  let util_c = Float.min 1. (float_of_int (max 1 grid) /. sms) in
  let util_m = Float.min 1. (4. *. float_of_int (max 1 grid) /. sms) in
  let comp_us =
    float_of_int ctx.flops /. (peak *. s.Sched.compute_eff *. util_c *. 1e6)
  in
  let mem_us = (dram_us +. l2_us) /. util_m in
  let overlap = dev.Device.overlap_default in
  let body =
    Float.max mem_us comp_us +. ((1. -. overlap) *. Float.min mem_us comp_us)
  in
  let usage = Sched.usage_with ~numel_of:ctx.numel_of ~body:ctx.body te s in
  let waves = Occupancy.waves dev usage ~grid_blocks:grid in
  body +. (0.3 *. float_of_int (max 1 waves))

(* ---- candidate enumeration ----------------------------------------- *)

(* Candidate tile factors for one dimension.  A dimension smaller than
   every option still yields one exact-fit candidate: dims below 9 used to
   filter to the empty list, which emptied the whole cross-product and made
   the search silently fall back to the grid-1 elementwise schedule — fatal
   for single-token decode shapes like (1, hidden), whose reductions need
   an rsplit-driven grid to reach DRAM bandwidth. *)
let tile_candidates d =
  match
    List.filter (fun t -> t <= d || t / 2 < d) [ 16; 32; 64; 128 ]
    |> List.map (fun t -> min t d)
    |> List.sort_uniq compare
  with
  | [] -> [ max 1 d ]
  | cs -> cs

let rtile_candidates d =
  List.map (fun t -> min t d) [ 16; 32; 64 ] |> List.sort_uniq compare

let thread_candidates = [ 128; 256 ]

(** Enumerate schedules for a reduction TE: tile the two innermost output
    dims, tile the first reduction axis, enumerate reduction splits and
    block sizes.  The space is built into one pre-sized array (no
    intermediate [concat_map] pyramid); when [dev] is given, combinations
    that cannot possibly fit the device — output tile alone over the
    shared-memory budget, block over the thread limit — are rejected
    before a [Sched.t] is allocated. *)
let candidates ?dev (te : Te.t) : Sched.t list =
  let shape = te.Te.out_shape in
  let rank = Array.length shape in
  let raxes = Te.reduce_axes te in
  let tc = Sched.tensor_core_eligible te in
  if rank = 0 then [ Sched.default_elementwise te ]
  else begin
    let last = rank - 1 in
    let snd_last = max 0 (rank - 2) in
    let opts_last = tile_candidates shape.(last) in
    let opts_snd =
      if rank >= 2 then tile_candidates shape.(snd_last) else [ 1 ]
    in
    (* batch/channel dims keep one block per index: the grid already scales
       with them, and reduction splits (rsplit) cover small outputs *)
    let opts_r =
      if Array.length raxes = 0 then [ [||] ]
      else
        List.map
          (fun t ->
            let r = Array.map (fun d -> min d 8) raxes in
            r.(0) <- min raxes.(0) t;
            r)
          (rtile_candidates raxes.(0))
    in
    (* two-phase reduction splits for reductions with few output points *)
    let opts_rsplit =
      if Array.length raxes = 0 || Shape.numel shape >= 16384 then [ 1 ]
      else
        List.filter
          (fun sfac -> sfac = 1 || sfac <= Array.fold_left ( * ) 1 raxes)
          [ 1; 4; 16; 64 ]
    in
    let opts_threads = thread_candidates in
    let elem_bytes = Dtype.bytes te.Te.dtype in
    let max_smem, max_threads =
      match dev with
      | Some (d : Device.t) ->
          (d.Device.max_smem_per_block, d.Device.max_threads_per_block)
      | None -> (max_int, max_int)
    in
    let n_max =
      List.length opts_last * List.length opts_snd * List.length opts_r
      * List.length opts_rsplit * List.length opts_threads
    in
    let buf = Array.make (max 1 n_max) (Sched.default_elementwise te) in
    let n = ref 0 in
    List.iter
      (fun tl ->
        List.iter
          (fun ts ->
            (* early reject: the output tile alone must fit shared memory
               (staged inputs only add to it) *)
            let out_tile = tl * if rank >= 2 then ts else 1 in
            if out_tile * elem_bytes <= max_smem then
              List.iter
                (fun rt ->
                  List.iter
                    (fun rsplit ->
                      List.iter
                        (fun threads ->
                          if threads <= max_threads then begin
                            let tile = Array.make rank 1 in
                            tile.(last) <- tl;
                            if rank >= 2 then tile.(snd_last) <- ts;
                            buf.(!n) <-
                              {
                                Sched.te_name = te.Te.name;
                                tile;
                                rtile = rt;
                                rsplit;
                                threads_per_block = threads;
                                use_tensor_core = tc;
                                cache_read_smem = true;
                                compute_eff = 0.; (* filled by the search *)
                              };
                            incr n
                          end)
                        opts_threads)
                    opts_rsplit)
                opts_r)
          opts_snd)
      opts_last;
    Array.to_list (Array.sub buf 0 !n)
  end

(** Feasibility: the block must fit an SM. *)
let feasible (dev : Device.t) (p : Program.t) (te : Te.t) (s : Sched.t) =
  let u = Sched.usage p te s in
  u.Occupancy.smem_per_block <= dev.Device.max_smem_per_block
  && u.Occupancy.threads_per_block <= dev.Device.max_threads_per_block
  && Occupancy.blocks_per_sm dev u >= 1

(* ---- per-TE search -------------------------------------------------- *)

(** Search the candidate space for the lowest-latency feasible schedule.
    Deterministic tie-breaking: of equal-cost candidates the one enumerated
    first wins, so the result is a function of (config, dev, te) only —
    never of timing or table iteration order. *)
let schedule_te ?(config = default_config) (dev : Device.t)
    (p : Program.t) (te : Te.t) : Sched.t =
  if not (Te.has_reduction te) then
    { (Sched.default_elementwise te) with compute_eff = config.eff_cap }
  else begin
    let ctx = cost_ctx p te in
    let best = ref None in
    List.iter
      (fun s ->
        let s =
          { s with
            Sched.compute_eff =
              efficiency config ~tensor_core:s.Sched.use_tensor_core s;
          }
        in
        let u =
          Sched.usage_with ~numel_of:ctx.numel_of ~body:ctx.body te s
        in
        if
          u.Occupancy.smem_per_block <= dev.Device.max_smem_per_block
          && u.Occupancy.threads_per_block <= dev.Device.max_threads_per_block
          && Occupancy.blocks_per_sm dev u >= 1
        then begin
          let c = estimate_us_ctx dev ctx te s in
          match !best with
          | Some (_, bc) when bc <= c -> ()
          | _ -> best := Some (s, c)
        end)
      (candidates ~dev te);
    match !best with
    | None ->
        { (Sched.default_elementwise te) with compute_eff = config.eff_cap }
    | Some (s, _) -> s
  end

(* ---- structural keys and schedule stores ---------------------------- *)

(** Canonical structural key of a TE for schedule reuse: device, the
    scheduling-relevant part of the search configuration ([eff_cap]), and
    the TE's structure (output shape, reduction axes, provenance tag,
    arithmetic ops, access count, output and input dtypes).  Two TEs with
    equal keys receive bit-identical schedules from one search, which is
    what makes both the per-program memo table and the persistent
    cross-run cache sound. *)
let structural_key ?(config = default_config) (dev : Device.t)
    (p : Program.t) (te : Te.t) : string =
  let in_dtypes =
    Te.inputs te
    |> List.map (fun name ->
           match Program.tensor_info p name with
           | Some i -> Dtype.to_string i.Program.dtype
           | None -> "?")
    |> String.concat ","
  in
  Fmt.str "%s|eff=%.4f|out=%s|red=%s|tag=%s|ops=%d|acc=%d|dt=%s<-%s"
    dev.Device.name config.eff_cap
    (Shape.to_string te.Te.out_shape)
    (String.concat "x"
       (List.map string_of_int (Array.to_list (Te.reduce_axes te))))
    te.Te.tag (Te.arith_ops te)
    (List.length (Te.accesses te))
    (Dtype.to_string te.Te.dtype)
    in_dtypes

(** A pluggable schedule store consulted before (and fed after) the
    candidate search — the hook the in-memory ladder cache and the
    persistent cross-run cache ({!Scache} in [lib/cache]) plug into
    without this library depending on them. *)
type store = {
  find : string -> Sched.t option;
  add : string -> Sched.t -> unit;
}

(* ---- whole-program scheduling --------------------------------------- *)

(** Schedule every TE of a program.  Identical structures are searched once
    (memoized on {!structural_key}, since models repeat identical layers
    many times); keys the [store] already knows skip the search entirely;
    the remaining keys are searched in program order with [search]
    (default {!schedule_te}; [Construct] passes its own).  The store does
    not record which search filled an entry: a store filled by one search
    makes a later run with another return the first one's schedules. *)
let schedule_program ?(search = schedule_te) ?(config = default_config)
    ?store (dev : Device.t) (p : Program.t) : (string, Sched.t) Hashtbl.t =
  Obs.span ~meta:[ ("tes", string_of_int (List.length p.Program.tes)) ]
    "ansor"
  @@ fun () ->
  (* the unique structural keys, in first-occurrence program order *)
  let key_of = Hashtbl.create 64 in
  let uniq = ref [] in
  List.iter
    (fun (te : Te.t) ->
      let key = structural_key ~config dev p te in
      if not (Hashtbl.mem key_of key) then begin
        Hashtbl.add key_of key te;
        uniq := (key, te) :: !uniq
      end)
    p.Program.tes;
  let uniq = List.rev !uniq in
  (* resolve what we can from the store before searching anything *)
  let resolved : (string, Sched.t) Hashtbl.t = Hashtbl.create 64 in
  let missing =
    List.filter
      (fun (key, _) ->
        match Option.bind store (fun st -> st.find key) with
        | Some s ->
            Hashtbl.replace resolved key s;
            false
        | None -> true)
      uniq
  in
  let store_hits = List.length uniq - List.length missing in
  let searched = List.length missing in
  (* search the remaining keys, feeding each result to the store *)
  List.iter
    (fun (key, te) ->
      let s =
        Obs.span ~meta:[ ("te", te.Te.name) ] "ansor-search" (fun () ->
            search ~config dev p te)
      in
      Hashtbl.replace resolved key s;
      Option.iter (fun st -> st.add key s) store)
    missing;
  Obs.annotate "store_hits" (string_of_int store_hits);
  Obs.annotate "searched" (string_of_int searched);
  (* merge into the per-TE table in program order *)
  let table = Hashtbl.create 64 in
  List.iter
    (fun (te : Te.t) ->
      let key = structural_key ~config dev p te in
      match Hashtbl.find_opt resolved key with
      | Some s -> Hashtbl.replace table te.Te.name { s with Sched.te_name = te.Te.name }
      | None -> assert false)
    p.Program.tes;
  table

(** {!schedule_program} as a total function: fault-injection aware,
    exceptions converted to a typed diagnostic. *)
let schedule_program_result ?search ?config ?store (dev : Device.t)
    (p : Program.t) : ((string, Sched.t) Hashtbl.t, Diag.t) result =
  Diag.guard Diag.Schedule (fun () ->
      Faultinject.trip Diag.Schedule;
      schedule_program ?search ?config ?store dev p)
