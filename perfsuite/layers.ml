(* Per-layer measurement from outside the program: the benchmark calls each
   layer's public function itself, inside a benchmark-owned Obs span, and
   adds the call's wall time to that layer's total.  Nothing in lib/ is
   instrumented for the benchmark's sake. *)

let now = Unix.gettimeofday

(** Wall seconds per layer name, summed over every call. *)
type clock = (string, float) Hashtbl.t

let clock () : clock = Hashtbl.create 16
let total (c : clock) name = Option.value ~default:0. (Hashtbl.find_opt c name)

(** [f ()] inside the span [bench.<name>], with its wall time. *)
let timed_call (name : string) (f : unit -> 'a) : float * 'a =
  let t0 = now () in
  let v = Obs.span ("bench." ^ name) f in
  (now () -. t0, v)

let timed (c : clock) (name : string) (f : unit -> 'a) : 'a =
  let dt, v = timed_call name f in
  Hashtbl.replace c name (total c name +. dt);
  v

(* ---- schedule store with counters ---- *)

type store_counts = {
  mutable finds : int;
  mutable hits : int;
  mutable adds : int;  (** keys the scheduler had to search *)
}

let counts () = { finds = 0; hits = 0; adds = 0 }

(** {!Scache.store} that counts lookups, hits and searched keys (Ansor only
    calls the store from the main domain). *)
let counting_store (cache : Scache.t) (n : store_counts) : Ansor.store =
  let s = Scache.store cache in
  {
    Ansor.find =
      (fun key ->
        n.finds <- n.finds + 1;
        let r = s.Ansor.find key in
        if r <> None then n.hits <- n.hits + 1;
        r);
    add =
      (fun key v ->
        n.adds <- n.adds + 1;
        s.Ansor.add key v);
  }

(* ---- staged compile driver ---- *)

type staged = {
  st_prog : Kernel_ir.prog;
  st_sim : Sim.result;
  st_tes_in : int;
  st_tes_out : int;
  st_subprograms : int;
}

(* Souffle's V4 emission options (its [emit_opts 4]) *)
let v4_emit =
  {
    Emit.default_options with
    Emit.reuse_cache = true;
    pipeline = true;
    attach_epilogue = true;
    attach_prologue = true;
  }

let one r = Result.map_error (fun d -> [ d ]) r

(** The V4 path of [Souffle.compile_result] driven pass by pass through the
    layers' public functions, each call timed into [c].  It has no
    degradation ladder: the benchmark only compiles programs that compile
    clean, and the caller checks the result against [Souffle.compile] bit
    for bit. *)
let staged_compile (c : clock) (dev : Device.t) (store : Ansor.store)
    (p : Program.t) : (staged, Diag.t list) result =
  let ( let* ) = Result.bind in
  let* p1, _ =
    one (timed c "transform.horizontal" (fun () -> Horizontal.apply_result p))
  in
  let* p2, _ =
    one
      (timed c "transform.vertical" (fun () ->
           Vertical.apply_result ~fold_into_reduce:true p1))
  in
  let an = timed c "analysis.run" (fun () -> Analysis.run p2) in
  let* scheds =
    one
      (timed c "schedule" (fun () ->
           Construct.schedule_program_result ~store dev p2))
  in
  let* part =
    one (timed c "partition.run" (fun () -> Partition.run_result dev an scheds))
  in
  let rec emit index acc = function
    | [] -> Ok (List.rev acc)
    | g :: rest ->
        let* k =
          one
            (timed c "kernelgen.emit" (fun () ->
                 Emit.emit_kernel_result dev p2 an scheds v4_emit ~index g))
        in
        let* () = timed c "gpu.verify_ir" (fun () -> Verify_ir.check dev k) in
        emit (index + 1) (k :: acc) rest
  in
  let subprograms = part.Partition.subprograms in
  let* kernels = emit 0 [] (List.map Emit.group_of_subprogram subprograms) in
  let prog = { Kernel_ir.pname = "prog"; kernels } in
  let* () =
    timed c "gpu.dataflow" (fun () ->
        Dataflow.check_result dev (Souffle.dataflow_env p2) prog)
  in
  let* sim = one (timed c "gpu.sim" (fun () -> Sim.run_result dev prog)) in
  Ok
    {
      st_prog = prog;
      st_sim = sim;
      st_tes_in = List.length p.Program.tes;
      st_tes_out = List.length p2.Program.tes;
      st_subprograms = List.length subprograms;
    }

(* ---- serving replay ---- *)

(** The artifact [Scheduler.run] served a completion on, chosen by the
    scheduler's rule for unbatched runs: the model's base artifact, or for
    decode step [t] the smallest position bucket holding
    [gen_prompt + t - 1] cache entries (the largest when none does). *)
let artifact_for ~(artifacts : Scheduler.artifact list) ~gen_prompt
    (c : Scheduler.completed) : Scheduler.artifact =
  let model = String.lowercase_ascii c.Scheduler.c_model in
  let of_model =
    List.filter
      (fun (a : Scheduler.artifact) ->
        a.Scheduler.art_batch = 1
        && String.lowercase_ascii a.Scheduler.art_model = model)
      artifacts
  in
  match c.Scheduler.c_phase with
  | Scheduler.Single | Scheduler.Prefill ->
      List.find (fun (a : Scheduler.artifact) -> a.Scheduler.art_pos = 0) of_model
  | Scheduler.Decode t -> (
      let buckets =
        List.filter (fun (a : Scheduler.artifact) -> a.Scheduler.art_pos > 0) of_model
        |> List.sort (fun (a : Scheduler.artifact) b ->
               compare a.Scheduler.art_pos b.Scheduler.art_pos)
      in
      let cache = gen_prompt + t - 1 in
      match
        List.find_opt
          (fun (a : Scheduler.artifact) -> a.Scheduler.art_pos >= cache)
          buckets
      with
      | Some a -> a
      | None -> List.nth buckets (List.length buckets - 1))

type replay = {
  rp_wall_s : float;
  rp_streams : int;
  rp_events : int;  (** occupancy intervals the engine recorded *)
  rp_exact : bool;  (** every stream finished exactly when the scheduler's did *)
}

(** Re-run an unbatched [Scheduler.run] outcome through {!Sim.Multi} alone:
    every completion's stream is launched in [c_stream] order at its
    [c_dispatch_us] with the same profiles and member count, and must
    finish at exactly [c_finish_us]. *)
let replay (dev : Device.t) ~artifacts ~gen_prompt (o : Scheduler.outcome) :
    replay =
  let cs =
    List.sort
      (fun (a : Scheduler.completed) b ->
        compare a.Scheduler.c_stream b.Scheduler.c_stream)
      o.Scheduler.o_completed
  in
  let profiles =
    List.map
      (fun c -> (artifact_for ~artifacts ~gen_prompt c).Scheduler.art_profiles)
      cs
  in
  let t0 = now () in
  let m = Sim.Multi.create dev in
  let rec reach t =
    match Sim.Multi.advance m ~until:t with
    | `Reached | `Idle -> ()
    | `Completed _ -> reach t
    | `Stalled _ -> failwith "replay: engine stalled"
  in
  let streams =
    List.map2
      (fun (c : Scheduler.completed) profs ->
        reach c.Scheduler.c_dispatch_us;
        (c, Sim.Multi.launch m ~members:c.Scheduler.c_batch profs))
      cs profiles
  in
  Sim.Multi.drain m;
  let wall = now () -. t0 in
  {
    rp_wall_s = wall;
    rp_streams = List.length streams;
    rp_events = List.length (Sim.Multi.samples m);
    rp_exact =
      List.for_all
        (fun ((c : Scheduler.completed), (st : Sim.Multi.stream)) ->
          st.Sim.Multi.st_id = c.Scheduler.c_stream
          && st.Sim.Multi.st_finish_us = Some c.Scheduler.c_finish_us)
        streams;
  }
