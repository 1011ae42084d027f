(** Construction-based scheduling (the Gensor idea: build the schedule,
    don't enumerate it).

    {!Ansor.schedule_te} scores the full tile cross-product — a few hundred
    candidate evaluations per reduction TE.  This module builds one
    schedule per TE directly: it seeds a deliberately large configuration
    (big output tiles, full reduction tile, no split, wide block) from the
    TE's structure and then runs greedy coordinate descent over the {e
    same} option lists and under the {e same} analytic cost model as the
    enumerative search ({!Ansor.estimate_us_ctx}, whose constants are
    calibrated against the {!Counters} simulator — see
    [docs/COMPILE_PERF.md]).  Each descent pass re-optimizes one decision
    at a time — output tiles, reduction tile, block size — holding the
    others fixed, except the last-axis tile and the reduction split, which
    interact too strongly to converge separately and are scanned as a
    joint pair.  A TE costs ~2·(4·4 + 4 + 3 + 2) ≈ 50 evaluations instead
    of ~380, at (measured, test-enforced) equal kernel quality.

    Determinism: the result is a function of (config, dev, te) only.  Ties
    inside one coordinate scan resolve to the earliest option in the list,
    and the pass/coordinate order is fixed, so there is nothing
    timing-dependent to diverge — the property the schedule cache rests
    on.

    This is the only scheduler the Souffle pipeline runs.  The enumerative
    quality oracle compiles against a store pre-seeded with enumerated
    schedules, so this search never runs there (see
    {!Ansor.schedule_program}). *)

(* Descent passes over the coordinate list.  Two passes suffice for this
   cost model: the second pass re-checks every coordinate after the first
   pass has moved the others, and a third was never observed to move
   again (the model is monotone in each coordinate once the memory/compute
   balance is fixed). *)
let passes = 2

(** Build one schedule for [te] by greedy coordinate descent.  Elementwise
    TEs take the same default schedule the enumerative search gives them;
    a TE for which no feasible configuration exists falls back the same
    way. *)
let schedule_te ?(config = Ansor.default_config) (dev : Device.t)
    (p : Program.t) (te : Te.t) : Sched.t =
  if not (Te.has_reduction te) then
    { (Sched.default_elementwise te) with Sched.compute_eff = config.Ansor.eff_cap }
  else begin
    let ctx = Ansor.cost_ctx p te in
    let shape = te.Te.out_shape in
    let rank = Array.length shape in
    let raxes = Te.reduce_axes te in
    let tc = Sched.tensor_core_eligible te in
    if rank = 0 then
      { (Sched.default_elementwise te) with Sched.compute_eff = config.Ansor.eff_cap }
    else begin
      let last = rank - 1 in
      let snd_last = max 0 (rank - 2) in
      (* the exhaustive search's option lists — shared, so construction can
         never pick a configuration enumeration could not *)
      let opts_last = Ansor.tile_candidates shape.(last) in
      let opts_snd =
        if rank >= 2 then Ansor.tile_candidates shape.(snd_last) else [ 1 ]
      in
      let opts_rt =
        if Array.length raxes = 0 then [ 1 ]
        else Ansor.rtile_candidates raxes.(0)
      in
      let opts_rsplit =
        if Array.length raxes = 0 || Shape.numel shape >= 16384 then [ 1 ]
        else
          List.filter
            (fun sfac -> sfac = 1 || sfac <= Array.fold_left ( * ) 1 raxes)
            [ 1; 4; 16; 64 ]
      in
      let opts_threads = Ansor.thread_candidates in
      (* a candidate from the current coordinate values, with the achieved
         efficiency filled in exactly as the search does *)
      let mk ~tl ~ts ~rt ~rsplit ~threads : Sched.t =
        let tile = Array.make rank 1 in
        tile.(last) <- tl;
        if rank >= 2 then tile.(snd_last) <- ts;
        let rtile =
          if Array.length raxes = 0 then [||]
          else begin
            let r = Array.map (fun d -> min d 8) raxes in
            r.(0) <- min raxes.(0) rt;
            r
          end
        in
        let s =
          {
            Sched.te_name = te.Te.name;
            tile;
            rtile;
            rsplit;
            threads_per_block = threads;
            use_tensor_core = tc;
            cache_read_smem = true;
            compute_eff = 0.;
          }
        in
        { s with
          Sched.compute_eff =
            Ansor.efficiency config ~tensor_core:tc s;
        }
      in
      (* feasibility-checked cost; [None] when the block cannot fit an SM *)
      let cost (s : Sched.t) : float option =
        let u = Sched.usage_with ~numel_of:ctx.Ansor.numel_of ~body:ctx.Ansor.body te s in
        if
          u.Occupancy.smem_per_block <= dev.Device.max_smem_per_block
          && u.Occupancy.threads_per_block <= dev.Device.max_threads_per_block
          && Occupancy.blocks_per_sm dev u >= 1
        then Some (Ansor.estimate_us_ctx dev ctx te s)
        else None
      in
      let last_of l = List.nth l (List.length l - 1) in
      (* seed large: big tiles amortize prologue/epilogue, and descent only
         ever shrinks them when the memory side of the model says so *)
      let tl = ref (last_of opts_last)
      and ts = ref (last_of opts_snd)
      and rt = ref (last_of opts_rt)
      and rsplit = ref (List.hd opts_rsplit)
      and threads = ref (last_of opts_threads) in
      let eval () = cost (mk ~tl:!tl ~ts:!ts ~rt:!rt ~rsplit:!rsplit ~threads:!threads) in
      (* scan one coordinate: set [coord] to the earliest option achieving
         the lowest feasible cost (or leave it if nothing is feasible) *)
      let scan (coord : int ref) (opts : int list) =
        let best = ref None in
        List.iter
          (fun v ->
            coord := v;
            match eval () with
            | None -> ()
            | Some c -> (
                match !best with
                | Some (_, bc) when bc <= c -> ()
                | _ -> best := Some (v, c)))
          opts;
        match !best with
        | Some (v, _) -> coord := v
        | None -> coord := List.hd opts
      in
      (* the last-axis tile and the reduction split interact too strongly
         for one-at-a-time descent — a bigger tile starves the grid unless
         the split buys the parallelism back, so each looks bad without the
         other and the scan gets trapped at (small tile, no split).  Scan
         the pair jointly (|tiles| x |splits| evaluations, still far below
         enumerating the full cross-product). *)
      let scan_tl_rsplit () =
        let best = ref None in
        List.iter
          (fun v1 ->
            tl := v1;
            List.iter
              (fun v2 ->
                rsplit := v2;
                match eval () with
                | None -> ()
                | Some c -> (
                    match !best with
                    | Some (_, _, bc) when bc <= c -> ()
                    | _ -> best := Some (v1, v2, c)))
              opts_rsplit)
          opts_last;
        match !best with
        | Some (v1, v2, _) ->
            tl := v1;
            rsplit := v2
        | None ->
            tl := List.hd opts_last;
            rsplit := List.hd opts_rsplit
      in
      for _ = 1 to passes do
        scan_tl_rsplit ();
        scan ts opts_snd;
        scan rt opts_rt;
        scan threads opts_threads
      done;
      match eval () with
      | Some _ -> mk ~tl:!tl ~ts:!ts ~rt:!rt ~rsplit:!rsplit ~threads:!threads
      | None ->
          (* nowhere feasible — same fallback as an empty exhaustive space *)
          { (Sched.default_elementwise te) with
            Sched.compute_eff = config.Ansor.eff_cap }
    end
  end

(** {!Ansor.schedule_program} driven by construction instead of
    enumeration: same memoization on structural keys, same store protocol,
    same serial per-key loop.  Cost per TE is
    passes x (|tiles|·|splits| + |tiles| + |rtiles| + |threads|) ≈ 50
    evaluations, still an order of magnitude under enumeration. *)
let schedule_program ?config ?store (dev : Device.t) (p : Program.t) :
    (string, Sched.t) Hashtbl.t =
  Ansor.schedule_program ~search:schedule_te ?config ?store dev p

(** {!schedule_program} as a total function: fault-injection aware,
    exceptions converted to a typed diagnostic. *)
let schedule_program_result ?config ?store (dev : Device.t) (p : Program.t) :
    ((string, Sched.t) Hashtbl.t, Diag.t) result =
  Ansor.schedule_program_result ~search:schedule_te ?config ?store dev p
