(** Souffle: the end-to-end top-down compilation pipeline (§4, Algorithm 1).

    [compile] lowers nothing itself — it takes a TE {!Program.t} (use
    {!Lower.run} to get one from a graph) and drives:

    + global computation-graph analysis (§5),
    + horizontal transformation of independent TEs (§6.1),
    + vertical transformation of one-relies-on-one chains (§6.2),
    + Ansor scheduling of the (transformed) TEs (§6.3),
    + resource-aware partitioning into subprograms (§5.4),
    + schedule merging with predicates and grid synchronization (§6.4),
    + instruction pipelining and LRU tensor-buffer reuse (§6.5),

    and finally runs the resulting kernels on the analytical A100 model.
    The optimization level reproduces Table 4's ablation: V0 is plain
    TVM+Ansor codegen, each level adds one Souffle mechanism. *)

type level = V0 | V1 | V2 | V3 | V4

let level_to_string = function
  | V0 -> "V0 (Ansor baseline)"
  | V1 -> "V1 (+horizontal)"
  | V2 -> "V2 (+vertical)"
  | V3 -> "V3 (+global sync)"
  | V4 -> "V4 (+subprogram opt)"

let level_rank = function V0 -> 0 | V1 -> 1 | V2 -> 2 | V3 -> 3 | V4 -> 4

let level_of_rank = function
  | 0 -> V0
  | 1 -> V1
  | 2 -> V2
  | 3 -> V3
  | _ -> V4

type config = {
  device : Device.t;
  level : level;
  sched_cache : Scache.t option;
      (** persistent cross-run schedule cache; warm entries skip the Ansor
          candidate search entirely *)
  batch : int;
      (** batch lanes to compile the program at ({!Batch.apply} runs before
          any analysis); 1 compiles the program exactly as given *)
  pos : int;
      (** sequence-position bucket the program was constructed at (KV-cache
          length of a decode step).  0 means "static shape" — the graph
          does not depend on a position.  Purely an artifact-identity
          discriminator: the program arrives already built at this
          position, the pipeline never rewrites it *)
  mega : bool;
      (** also lower the compiled program into one persistent task-graph
          kernel ({!Megakernel}); the multi-kernel program is still built
          and simulated, so the report carries both *)
}

let config ?(device = Device.a100) ?(level = V4) ?sched_cache ?(batch = 1)
    ?(pos = 0) ?(mega = false) () =
  { device; level; sched_cache; batch; pos; mega }

let default_config = config ()

(** One step of the graceful-degradation ladder: [d_subject] (the whole
    program, or one subprogram's head TE) was retried at [d_to] after
    [d_pass] failed at [d_from]. *)
type degradation = {
  d_subject : string;
  d_pass : Diag.pass;
  d_from : level;
  d_to : level;
  d_reason : string;
}

let pp_degradation ppf d =
  Fmt.pf ppf "%s: %s failed at %s, retried at %s (%s)" d.d_subject
    (Diag.pass_name d.d_pass) (level_to_string d.d_from)
    (level_to_string d.d_to) d.d_reason

(** The mega-kernelization of a compiled program: the verified task graph
    and its solo simulation (one launch charge, dependency-respecting task
    overlap).  Present only when the compile ran with [cfg.mega] and the
    lowered graph passed both the worker-launch feasibility check
    ({!Verify_ir.check}) and the provenance re-verification
    ({!Dataflow.check_taskgraph}); otherwise the compile degrades to the
    multi-kernel program with a warning diagnostic. *)
type mega_result = { m_graph : Kernel_ir.taskgraph; m_sim : Sim.result }

type report = {
  cfg : config;
  original : Program.t;
  transformed : Program.t;
  analysis : Analysis.t;
  partition : Partition.t option;
  groups : Emit.group list;
  prog : Kernel_ir.prog;
  sim : Sim.result;
  mega : mega_result option;  (** the persistent-kernel lowering, if asked
                                  for ([cfg.mega]) and verified *)
  scheds : (string, Sched.t) Hashtbl.t;
      (** the schedule table of the successful attempt, keyed by TE name —
          kept so downstream renderings ({!te_loop_nests}) never re-run the
          Ansor search *)
  hstats : Horizontal.stats;
  vstats : Vertical.stats;
  compile_s : float;  (** wall-clock seconds spent in Souffle's own passes *)
  diags : Diag.t list;  (** every diagnostic any pass reported, in order *)
  degraded : degradation list;
      (** recovery steps taken; empty on a clean compile *)
}

(* TVM/Ansor-style grouping for levels below V3: every reduction TE starts a
   kernel and absorbs its one-relies-on-one consumers (classic epilogue
   fusion); leading elementwise TEs form their own kernels. *)
let ansor_groups_of_tes (tes : Te.t list) : Emit.group list =
  let module SSet = Program.SSet in
  (* [cur_names] mirrors [cur] so the produced-in-current-group test is a
     set lookup, not a nested list scan per input of every TE *)
  let rev_groups = ref [] and cur = ref [] and cur_names = ref SSet.empty in
  let flush () =
    if !cur <> [] then begin
      rev_groups :=
        {
          Emit.g_tes = List.rev_map (fun (te : Te.t) -> te.Te.name) !cur;
          cooperative = false;
          library_call = false;
          eff_override = None;
        }
        :: !rev_groups;
      cur := [];
      cur_names := SSet.empty
    end
  in
  let push (te : Te.t) =
    cur := te :: !cur;
    cur_names := SSet.add te.Te.name !cur_names
  in
  List.iter
    (fun (te : Te.t) ->
      if Te.has_reduction te then begin
        flush ();
        push te
      end
      else begin
        (* attach to the current group when it consumes it, else keep as a
           standalone elementwise kernel *)
        let produced_in_cur =
          List.exists (fun i -> SSet.mem i !cur_names) (Te.inputs te)
        in
        if produced_in_cur && !cur <> [] then push te
        else begin
          flush ();
          push te;
          flush ()
        end
      end)
    tes;
  flush ();
  List.rev !rev_groups

let ansor_groups (p : Program.t) : Emit.group list =
  ansor_groups_of_tes p.Program.tes

(* Emission options at a given optimization rank (Table 4's ladder). *)
let emit_opts rank =
  {
    Emit.default_options with
    Emit.reuse_cache = rank >= 4;
    pipeline = rank >= 4;
    attach_epilogue = true;
    attach_prologue = rank >= 2;
  }

(** Cross-kernel dataflow environment for a (transformed) TE program: what
    {!Dataflow} may assume about the program's tensors. *)
let dataflow_env (p : Program.t) : Dataflow.env =
  let inputs = Program.SSet.of_list (Program.input_names p) in
  {
    Dataflow.is_input = (fun t -> Program.SSet.mem t inputs);
    bytes_of =
      (fun t ->
        Option.map
          (fun (i : Program.tensor_info) ->
            Shape.numel i.Program.shape * Dtype.bytes i.Program.dtype)
          (Program.tensor_info p t));
  }

let singleton_groups (tes : Te.t list) : Emit.group list =
  List.map
    (fun (te : Te.t) ->
      {
        Emit.g_tes = [ te.Te.name ];
        cooperative = false;
        library_call = false;
        eff_override = None;
      })
    tes

(** Compilation as a total function.  Any pass failure — a raised exception,
    an injected fault, or a kernel the IR verifier rejects — degrades the
    failing unit one optimization level (V4 -> V3 -> ... -> V0) and retries,
    instead of aborting the whole model:

    - front-end passes (transforms, scheduling, partitioning, simulation)
      operate on the whole program, so they degrade the program level;
    - emission and IR verification operate per subprogram, so only the
      failing subprogram is degraded — below V3 a cooperative subprogram is
      re-emitted as Ansor-style separate kernels, and at V0 as one kernel
      per TE.

    Every retry is recorded in [diags] / [degraded].  [Error] is returned
    only when the input program is invalid or a subprogram still fails at
    V0; with [strict] any degradation is promoted to an error (for CI and
    canary deployments that prefer failing fast over serving degraded
    kernels). *)
let compile_result ?(cfg = default_config) ?(strict = false) (p : Program.t)
    : (report, Diag.t list) result =
  if cfg.batch < 1 then
    Error
      [
        Diag.error Diag.Validate
          (Fmt.str "invalid batch %d (must be >= 1)" cfg.batch);
      ]
  else if cfg.pos < 0 then
    Error
      [
        Diag.error Diag.Validate
          (Fmt.str "invalid position bucket %d (must be >= 0)" cfg.pos);
      ]
  else
  (* Rewrite to the batched shape up front; at batch 1 this is the input
     program itself ([==]), so the unbatched pipeline is untouched.  The
     report's [original] is the batched program: semantic checks compare
     like with like. *)
  let p = Batch.apply ~batch:cfg.batch p in
  let t0 = Unix.gettimeofday () in
  let diags = ref [] and degraded = ref [] in
  let note d = diags := d :: !diags in
  let record ~subject ~pass ~from_rank ~to_rank reason =
    degraded :=
      {
        d_subject = subject;
        d_pass = pass;
        d_from = level_of_rank from_rank;
        d_to = level_of_rank to_rank;
        d_reason = reason;
      }
      :: !degraded;
    note
      (Diag.warning ~subject pass
         (Fmt.str "degraded from %s to %s: %s"
            (level_to_string (level_of_rank from_rank))
            (level_to_string (level_of_rank to_rank))
            reason))
  in
  let ( let* ) = Result.bind in
  (* One in-memory schedule store shared by every rung of the ladder: a
     retry at a lower level re-schedules the same (or structurally equal)
     TEs, so attempt r-1 reuses attempt r's search results.  Layered on top
     of the optional persistent cache: persistent hits are promoted into the
     run memo, new results are written through to both. *)
  let run_memo : (string, Sched.t) Hashtbl.t = Hashtbl.create 64 in
  let store =
    {
      Ansor.find =
        (fun key ->
          match Hashtbl.find_opt run_memo key with
          | Some _ as hit -> hit
          | None -> (
              match cfg.sched_cache with
              | None -> None
              | Some c -> (
                  match Scache.find c key with
                  | Some s ->
                      Hashtbl.replace run_memo key s;
                      Some s
                  | None -> None)));
      Ansor.add =
        (fun key s ->
          Hashtbl.replace run_memo key s;
          match cfg.sched_cache with
          | None -> ()
          | Some c -> Scache.add c key s);
    }
  in
  (* One scheduler call per attempt; a failure degrades the program a
     level like any other front-end pass. *)
  let schedule p2 = Construct.schedule_program_result ~store cfg.device p2 in
  (* ---- front end: whole-program passes at rank [r] ---- *)
  let front_end r =
    let* p1, hstats =
      if r >= 1 then Horizontal.apply_result p
      else Ok (p, { Horizontal.groups_merged = 0; tes_eliminated = 0 })
    in
    let* p2, vstats =
      if r >= 2 then Vertical.apply_result ~fold_into_reduce:true p1
      else Ok (p1, { Vertical.chains_fused = 0; movement_folded = 0 })
    in
    let* an =
      Obs.span "analysis" (fun () ->
          Diag.guard Diag.Analysis (fun () -> Analysis.run p2))
    in
    let* scheds = schedule p2 in
    let* partition, groups =
      if r >= 3 then
        match Partition.run_result cfg.device an scheds with
        | Ok part ->
            Ok
              ( Some part,
                List.map Emit.group_of_subprogram part.Partition.subprograms )
        | Error d -> Error d
      else Ok (None, ansor_groups p2)
    in
    Ok (p2, an, scheds, partition, groups, hstats, vstats)
  in
  (* ---- back end: one subprogram (group), with its own ladder ---- *)
  let emit_and_verify ~p2 ~an ~scheds ~index r (g : Emit.group) =
    let* k = Emit.emit_kernel_result cfg.device p2 an scheds (emit_opts r) ~index g in
    Obs.span ~meta:[ ("kernel", k.Kernel_ir.kname) ] "verify-ir" @@ fun () ->
    match Verify_ir.check cfg.device k with
    | Ok () -> Ok k
    | Error ds -> Error (List.hd ds)
  in
  (* One kernel of a split cooperative subprogram, with its own mini-ladder.
     [subranks] (keyed by the subgroup's head TE, shared across every
     re-emission of the owning group) remembers where each subgroup settled:
     when Verify_ir rejects one sub-kernel, only that kernel's TEs drop a
     level — at rank 0, to one kernel per TE — while sibling subgroups keep
     the rank the whole group runs at. *)
  let rec emit_subgroup ~p2 ~an ~scheds ~subranks ~index r (sg : Emit.group) :
      (Kernel_ir.kernel list, Diag.t) result =
    let subject =
      match sg.Emit.g_tes with n :: _ -> n | [] -> "<empty group>"
    in
    let r =
      match Hashtbl.find_opt subranks subject with
      | Some settled -> min settled r
      | None -> r
    in
    let attempt =
      if r >= 1 then
        Result.map (fun k -> [ k ]) (emit_and_verify ~p2 ~an ~scheds ~index r sg)
      else begin
        let tes = List.map (Program.find_te_exn p2) sg.Emit.g_tes in
        let rec go i acc = function
          | [] -> Ok (List.rev acc)
          | g1 :: rest -> (
              match
                emit_and_verify ~p2 ~an ~scheds ~index:(index + i) 0 g1
              with
              | Ok k -> go (i + 1) (k :: acc) rest
              | Error _ as e -> e)
        in
        go 0 [] (singleton_groups tes)
      end
    in
    match attempt with
    | Ok ks -> Ok ks
    | Error d when r > 0 ->
        note d;
        record ~subject ~pass:d.Diag.pass ~from_rank:r ~to_rank:(r - 1)
          d.Diag.message;
        Hashtbl.replace subranks subject (r - 1);
        emit_subgroup ~p2 ~an ~scheds ~subranks ~index (r - 1) sg
    | Error _ as e -> e
  in
  (* Returns the emitted kernels together with the rank the group settled
     at, so a later cross-kernel check can re-emit it from that rung
     without replaying (and re-recording) the degradations. *)
  let rec emit_group ~p2 ~an ~scheds ~subranks ~index r (g : Emit.group) :
      (Kernel_ir.kernel list * int, Diag.t) result =
    let subject =
      match g.Emit.g_tes with n :: _ -> n | [] -> "<empty group>"
    in
    let attempt =
      if r >= 3 || not g.Emit.cooperative then
        (* one kernel for the whole subprogram; cooperative only at V3+ *)
        let g' = { g with Emit.cooperative = g.Emit.cooperative && r >= 3 } in
        Result.map
          (fun k -> [ k ])
          (emit_and_verify ~p2 ~an ~scheds ~index r g')
      else begin
        (* below V3 a cooperative subprogram falls back to Ansor-style
           separate kernels (at V0, one kernel per TE), each with its own
           {!emit_subgroup} ladder *)
        let tes = List.map (Program.find_te_exn p2) g.Emit.g_tes in
        let subgroups =
          if r >= 1 then ansor_groups_of_tes tes else singleton_groups tes
        in
        let rec go idx acc = function
          | [] -> Ok (List.concat (List.rev acc))
          | sg :: rest -> (
              match emit_subgroup ~p2 ~an ~scheds ~subranks ~index:idx r sg with
              | Ok ks -> go (idx + List.length ks) (ks :: acc) rest
              | Error _ as e -> e)
        in
        go index [] subgroups
      end
    in
    match attempt with
    | Ok ks -> Ok (ks, r)
    | Error d when r > 0 ->
        note d;
        record ~subject ~pass:d.Diag.pass ~from_rank:r ~to_rank:(r - 1)
          d.Diag.message;
        emit_group ~p2 ~an ~scheds ~subranks ~index (r - 1) g
    | Error _ as e -> e
  in
  (* ---- the program-level ladder ---- *)
  let rec attempt r =
    Obs.span
      ~meta:[ ("level", level_to_string (level_of_rank r)) ]
      "attempt"
    @@ fun () ->
    let stage =
      let* p2, an, scheds, partition, groups, hstats, vstats = front_end r in
      (* Emit every group at its own (possibly already degraded) rank,
         keeping per-group kernel lists so a cross-kernel dataflow failure
         can be attributed back to its owning subprogram. *)
      let garr = Array.of_list groups in
      let ranks = Array.make (Array.length garr) r in
      let subranks = Hashtbl.create 8 in
      (* Settled-group memo: [emit_checked] below re-emits every group each
         time the dataflow check degrades one of them.  A group whose
         (subject, requested rank, kernel index) is unchanged reuses its
         emitted kernels instead of re-running emission and IR
         verification; results are also recorded under the settled rank,
         so re-requesting a group at the rank it degraded to is a hit
         too.  The kernel index is part of the key because it is baked
         into kernel names — a group whose position shifted must
         re-emit. *)
      let ememo : (string * int * int, Kernel_ir.kernel list * int) Hashtbl.t
          =
        Hashtbl.create 8
      in
      let emit_group_memo ~index r (g : Emit.group) =
        let subject =
          match g.Emit.g_tes with n :: _ -> n | [] -> "<empty group>"
        in
        match Hashtbl.find_opt ememo (subject, r, index) with
        | Some res -> Ok res
        | None -> (
            match emit_group ~p2 ~an ~scheds ~subranks ~index r g with
            | Ok ((_, settled) as res) ->
                Hashtbl.replace ememo (subject, r, index) res;
                Hashtbl.replace ememo (subject, settled, index) res;
                Ok res
            | Error _ as e -> e)
      in
      let emit_all () =
        let rec go i idx acc =
          if i >= Array.length garr then Ok (List.rev acc)
          else
            match emit_group_memo ~index:idx ranks.(i) garr.(i) with
            | Ok (ks, settled) ->
                ranks.(i) <- settled;
                go (i + 1) (idx + List.length ks) (ks :: acc)
            | Error _ as e -> e
        in
        go 0 0 []
      in
      (* Emission followed by the cross-kernel dataflow check: a dataflow
         diagnostic names the offending kernel, which maps to exactly one
         subprogram — degrade that group one rung and re-emit (groups
         already settled re-emit unchanged at their recorded ranks).  A
         failure that names no kernel degrades the whole program, like any
         other program-level pass.  Terminates: every iteration either
         succeeds or strictly lowers one group's rank. *)
      let env = dataflow_env p2 in
      let rec emit_checked () =
        let* per_group = emit_all () in
        let prog =
          { Kernel_ir.pname = "prog"; kernels = List.concat per_group }
        in
        match Dataflow.check_result cfg.device env prog with
        | Ok () -> Ok prog
        | Error ds -> (
            let d = List.hd ds in
            let owner =
              match d.Diag.subject with
              | None -> None
              | Some kname ->
                  let rec find i = function
                    | [] -> None
                    | ks :: rest ->
                        if
                          List.exists
                            (fun (k : Kernel_ir.kernel) ->
                              k.Kernel_ir.kname = kname)
                            ks
                        then Some i
                        else find (i + 1) rest
                  in
                  find 0 per_group
            in
            match owner with
            | Some i when ranks.(i) > 0 ->
                let subject =
                  match garr.(i).Emit.g_tes with
                  | n :: _ -> n
                  | [] -> "<empty group>"
                in
                List.iter note ds;
                record ~subject ~pass:Diag.Dataflow ~from_rank:ranks.(i)
                  ~to_rank:(ranks.(i) - 1)
                  d.Diag.message;
                ranks.(i) <- ranks.(i) - 1;
                emit_checked ()
            | _ -> Error d)
      in
      let* prog = emit_checked () in
      let* sim = Sim.run_result cfg.device prog in
      Ok (p2, an, scheds, partition, groups, hstats, vstats, prog, sim)
    in
    match stage with
    | Ok (p2, an, scheds, partition, groups, hstats, vstats, prog, sim) ->
        (* Mega-kernelization rides on the successful multi-kernel compile:
           lower to a task graph, re-verify feasibility and provenance, and
           simulate the persistent launch.  A rejection is a graceful
           fallback to the multi-kernel program — recorded as warnings, not
           errors, so [--strict] still accepts the compile. *)
        let mega =
          if not cfg.mega then None
          else
            Obs.span "megakernel" @@ fun () ->
            let tg = Megakernel.lower prog in
            match Megakernel.verify cfg.device (dataflow_env p2) tg with
            | Ok () -> Some { m_graph = tg; m_sim = Sim.run_mega cfg.device tg }
            | Error ds ->
                List.iter
                  (fun (d : Diag.t) ->
                    note
                      (Diag.warning ?subject:d.Diag.subject d.Diag.pass
                         ("mega-kernelization skipped: " ^ d.Diag.message)))
                  ds;
                None
        in
        let compile_s = Unix.gettimeofday () -. t0 in
        Ok
          {
            cfg;
            original = p;
            transformed = p2;
            analysis = an;
            partition;
            groups;
            prog;
            sim;
            mega;
            scheds;
            hstats;
            vstats;
            compile_s;
            diags = List.rev !diags;
            degraded = List.rev !degraded;
          }
    | Error d when r > 0 ->
        note d;
        record ~subject:"program" ~pass:d.Diag.pass ~from_rank:r
          ~to_rank:(r - 1) d.Diag.message;
        attempt (r - 1)
    | Error d -> Error (List.rev (d :: !diags))
  in
  Obs.span
    ~meta:
      [
        ("level", level_to_string cfg.level);
        ("tes", string_of_int (List.length p.Program.tes));
      ]
    "compile"
  @@ fun () ->
  match Program.validate p with
  | Error m -> Error [ Diag.error Diag.Validate ("invalid program: " ^ m) ]
  | Ok () -> (
      match attempt (level_rank cfg.level) with
      | Error _ as e -> e
      | Ok r when strict && (r.degraded <> [] || List.exists Diag.is_error r.diags)
        ->
          Error
            (r.diags
            @ [
                Diag.error Diag.Validate
                  ~hint:"drop --strict to accept degraded compilation"
                  (Fmt.str "strict mode: %d degradation step(s) taken"
                     (List.length r.degraded));
              ])
      | Ok _ as ok -> ok)

let compile ?cfg (p : Program.t) : report =
  match compile_result ?cfg p with
  | Ok r -> r
  | Error ds ->
      invalid_arg
        (Fmt.str "Souffle.compile: %s"
           (String.concat "; " (List.map Diag.to_string ds)))

(** Compile a model graph end to end. *)
let compile_graph ?cfg (g : Dgraph.t) : report = compile ?cfg (Lower.run g)

(** Check that the transformed program computes the same outputs as the
    original (the semantic-preservation guarantee, via the reference
    interpreter).  Heavy: meant for tests and small programs. *)
let verify ?(rtol = 1e-4) (r : report) : (unit, string) result =
  Interp.equivalent ~rtol r.original r.transformed

let time_ms (r : report) = Sim.time_ms r.sim
let num_kernels (r : report) = List.length r.prog.Kernel_ir.kernels

let summary ppf (r : report) =
  Fmt.pf ppf
    "@[<v>level: %s@,TEs: %d -> %d (horizontal: %d groups, vertical: %d fused)@,\
     kernels: %d, grid syncs: %d@,time: %.3f ms@,\
     DRAM loads: %.2f MB, stores: %.2f MB@,compile time: %.2f s@]"
    (level_to_string r.cfg.level)
    (List.length r.original.Program.tes)
    (List.length r.transformed.Program.tes)
    r.hstats.Horizontal.groups_merged
    (r.vstats.Vertical.chains_fused + r.vstats.Vertical.movement_folded)
    (num_kernels r) r.sim.Sim.total.Counters.grid_syncs (time_ms r)
    (Counters.mb (Counters.global_load_bytes r.sim.Sim.total))
    (Counters.mb r.sim.Sim.total.Counters.dram_write_bytes)
    r.compile_s;
  (match r.mega with
  | None -> ()
  | Some m ->
      Fmt.pf ppf
        "@,mega: %d task(s), %d edge(s), %d launch(es) elided, time %.3f ms \
         (%.2fx vs multi-kernel)"
        (Kernel_ir.num_tasks m.m_graph)
        (Kernel_ir.num_edges m.m_graph)
        (Kernel_ir.launches_elided m.m_graph)
        (Sim.time_ms m.m_sim)
        (r.sim.Sim.total.Counters.time_us
        /. Float.max 1e-9 m.m_sim.Sim.total.Counters.time_us));
  if r.degraded <> [] then
    Fmt.pf ppf "@,degraded: %a" Fmt.(list ~sep:(any "; ") pp_degradation)
      r.degraded

(** The per-kernel counter report ({!Kreport}) of the compiled program:
    one row per launched kernel joining its Nsight-style counters with its
    identity (name encoding the subprogram index, member TEs, launch
    configuration). *)
let kernel_report (r : report) : Kreport.row list = Kreport.of_sim r.sim

(** {!kernel_report} as machine-readable JSON, stamped with the compile's
    identity (optimization level, device, kernel/degradation totals). *)
let kernel_report_json ?(model = "") (r : report) : string =
  Jsonlite.to_string
    (Kreport.to_json
       ~meta:
         [
           ("model", model);
           ("level", level_to_string r.cfg.level);
           ("device", r.cfg.device.Device.name);
           ("degraded_steps", string_of_int (List.length r.degraded));
         ]
       r.sim)

let pp_kernel_report ppf (r : report) =
  Fmt.pf ppf "@[<v>per-kernel counters (%s, %d kernel(s)):@,%a@,%a@]"
    (level_to_string r.cfg.level)
    (num_kernels r) Kreport.pp (kernel_report r) Kreport.pp_total r.sim

let cuda_source (r : report) = Codegen_cuda.to_string r.prog

(** Per-TE loop nests (TensorIR level, Fig. 2 step 5) for the first
    [limit] TEs of the transformed program — the detailed view behind the
    kernel-level rendering of {!cuda_source}.  Reads the schedule table
    recorded in the report; nothing is re-searched. *)
let te_loop_nests ?(limit = 4) (r : report) : string =
  r.transformed.Program.tes
  |> List.filteri (fun i _ -> i < limit)
  |> List.map (fun (te : Te.t) ->
         Tir.render_cuda
           (Tir.of_te r.transformed te (Hashtbl.find r.scheds te.Te.name)))
  |> String.concat "\n"


(* ---- compile-once artifact store ---- *)

module Artifacts = struct
  type t = (string * int * int * int * bool, report) Hashtbl.t

  let create () : t = Hashtbl.create 16

  let key ~name ~level ~batch ~pos ~mega =
    (String.lowercase_ascii name, level_rank level, batch, pos, mega)

  let find (t : t) ?(batch = 1) ?(pos = 0) ?(mega = false) ~name ~level () =
    Hashtbl.find_opt t (key ~name ~level ~batch ~pos ~mega)

  let add (t : t) ?(batch = 1) ?(pos = 0) ?(mega = false) ~name ~level r =
    Hashtbl.replace t (key ~name ~level ~batch ~pos ~mega) r

  let size : t -> int = Hashtbl.length

  let get (t : t) ?(cfg = default_config) ?strict ~name
      (gen : unit -> Program.t) : (report, Diag.t list) result =
    match
      find t ~batch:cfg.batch ~pos:cfg.pos ~mega:cfg.mega ~name
        ~level:cfg.level ()
    with
    | Some r -> Ok r
    | None -> (
        match compile_result ~cfg ?strict (gen ()) with
        | Ok r ->
            add t ~batch:cfg.batch ~pos:cfg.pos ~mega:cfg.mega ~name
              ~level:cfg.level r;
            Ok r
        | Error _ as e -> e)
end
