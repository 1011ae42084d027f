(** Kernel IR: the instruction-stream abstraction the simulator executes.

    A compiled program is an ordered list of kernels; a kernel is an ordered
    list of stages (one per fused TE group region, matching the
    [Fn_TE_Subprogram] structure of Fig. 2's step 5); a stage carries the
    aggregate instruction counts of all its thread blocks.  Byte/flop totals
    are grid-wide, which is the right granularity for a throughput model.

    Memory instructions optionally carry the name of the tensor they move
    ([tensor]): the emitter tags every load/store it derives from the TE
    graph, and the cross-kernel dataflow verifier ({!Dataflow}) uses the
    tags to prove producer/consumer consistency over the whole program.
    Untagged ([None]) traffic — e.g. the schedule-implied tiling re-reads,
    which aggregate several tensors — is exempt from per-tensor checks. *)

type instr =
  | Ldg of { bytes : int; tensor : string option }
      (** load from DRAM (first touch of a tensor) *)
  | Ldl2 of { bytes : int; tensor : string option }
      (** load of data resident in L2 (re-read of an on-device tensor) *)
  | Lds of { bytes : int; tensor : string option }
      (** shared-memory load (reuse hits of the §6.5 software cache) *)
  | Stg of { bytes : int; tensor : string option }
      (** store to DRAM *)
  | Mma of { flops : int }
      (** tensor-core half-precision multiply-accumulate (HMMA) *)
  | Fma of { flops : int }
      (** CUDA-core FP32 multiply-add *)
  | Sfu of { ops : int }
      (** transcendental ops (exp, tanh, rsqrt, ...) *)
  | Atomic_add of { bytes : int; tensor : string option }
      (** global-memory atomic reduction traffic *)
  | Grid_sync
      (** cooperative-groups grid synchronization *)
  | Block_sync
      (** __syncthreads-level barrier (cheap) *)

(* tagged-construction helpers: [ldg ~tensor:"x" 1024] *)
let ldg ?tensor bytes = Ldg { bytes; tensor }
let ldl2 ?tensor bytes = Ldl2 { bytes; tensor }
let lds ?tensor bytes = Lds { bytes; tensor }
let stg ?tensor bytes = Stg { bytes; tensor }
let atomic_add ?tensor bytes = Atomic_add { bytes; tensor }

(** The tensor a memory instruction moves, when the emitter tagged it. *)
let instr_tensor = function
  | Ldg { tensor; _ } | Ldl2 { tensor; _ } | Lds { tensor; _ }
  | Stg { tensor; _ } | Atomic_add { tensor; _ } ->
      tensor
  | Mma _ | Fma _ | Sfu _ | Grid_sync | Block_sync -> None

type stage = {
  label : string;       (** which TE(s) this stage implements *)
  pipelined : bool;     (** §6.5 instruction-level load/compute overlap *)
  compute_eff : float;  (** achieved fraction of pipeline peak *)
  mem_eff : float;      (** achieved fraction of DRAM bandwidth *)
  sgrid : int;          (** thread blocks active in this stage (0: whole kernel) *)
  produces : string list;
      (** outputs of the TEs this stage computes — including tensors that
          stay in registers/shared memory and never touch a memory
          instruction; the dataflow verifier's definition of "on device" *)
  instrs : instr list;
}

type kernel = {
  kname : string;
  grid_blocks : int;
  threads_per_block : int;
  smem_per_block : int;   (** bytes *)
  regs_per_thread : int;
  library_call : bool;    (** opaque vendor-library kernel (cuBLAS-style) *)
  stages : stage list;
}

type prog = { pname : string; kernels : kernel list }

(** {2 Persistent task graphs (mega-kernelization)}

    A [taskgraph] is the persistent-worker alternative to {!prog}: the whole
    program becomes ONE device launch whose per-SM workers drain a graph of
    tasks.  Each task is a self-contained unit of work described by a
    {!kernel} value (grid shape, resources, instruction stages); [t_deps]
    lists the indices of earlier tasks that must retire before the task may
    start.  Edges replace both the serial launch queue (independent tasks may
    overlap) and intra-kernel [Grid_sync] barriers (a cooperative kernel is
    lowered to one task per stage, chained by edges).  Lowering from a
    compiled {!prog} lives in {!module:Megakernel}. *)

type task = {
  t_kernel : kernel;  (** the work: launch shape + instruction stages *)
  t_deps : int list;  (** indices (< own index) of prerequisite tasks *)
}

type taskgraph = {
  tg_name : string;
  tg_kernels : int;  (** kernel count of the source multi-kernel program *)
  tg_tasks : task array;
}

let num_tasks (tg : taskgraph) = Array.length tg.tg_tasks
let num_edges (tg : taskgraph) =
  Array.fold_left (fun acc t -> acc + List.length t.t_deps) 0 tg.tg_tasks

(** Launches the persistent kernel saves over the multi-kernel program. *)
let launches_elided (tg : taskgraph) = max 0 (tg.tg_kernels - 1)

let usage (k : kernel) : Occupancy.usage =
  {
    Occupancy.threads_per_block = k.threads_per_block;
    smem_per_block = k.smem_per_block;
    regs_per_thread = k.regs_per_thread;
  }

let stage ?(pipelined = false) ?(compute_eff = 0.7) ?(mem_eff = 0.85)
    ?(sgrid = 0) ?(produces = []) ~label instrs =
  { label; pipelined; compute_eff; mem_eff; sgrid; produces; instrs }

let kernel ?(threads_per_block = 256) ?(smem_per_block = 48 * 1024)
    ?(regs_per_thread = 64) ?(library_call = false) ~name ~grid_blocks stages =
  {
    kname = name;
    grid_blocks;
    threads_per_block;
    smem_per_block;
    regs_per_thread;
    library_call;
    stages;
  }

let num_grid_syncs (k : kernel) =
  List.fold_left
    (fun acc s ->
      acc
      + List.length (List.filter (function Grid_sync -> true | _ -> false) s.instrs))
    0 k.stages

let pp_tag ppf = function
  | None -> ()
  | Some t -> Fmt.pf ppf "<%s>" t

let pp_instr ppf = function
  | Ldg { bytes; tensor } -> Fmt.pf ppf "ldg%a %dB" pp_tag tensor bytes
  | Ldl2 { bytes; tensor } -> Fmt.pf ppf "ldl2%a %dB" pp_tag tensor bytes
  | Lds { bytes; tensor } -> Fmt.pf ppf "lds%a %dB" pp_tag tensor bytes
  | Stg { bytes; tensor } -> Fmt.pf ppf "stg%a %dB" pp_tag tensor bytes
  | Mma { flops } -> Fmt.pf ppf "mma %d" flops
  | Fma { flops } -> Fmt.pf ppf "fma %d" flops
  | Sfu { ops } -> Fmt.pf ppf "sfu %d" ops
  | Atomic_add { bytes; tensor } ->
      Fmt.pf ppf "atomic%a %dB" pp_tag tensor bytes
  | Grid_sync -> Fmt.string ppf "grid.sync"
  | Block_sync -> Fmt.string ppf "block.sync"

let pp_kernel ppf k =
  Fmt.pf ppf "@[<v2>kernel %s <<<%d, %d>>> smem=%dB regs=%d%s:@,"
    k.kname k.grid_blocks k.threads_per_block k.smem_per_block
    k.regs_per_thread (if k.library_call then " [lib]" else "");
  List.iter
    (fun s ->
      Fmt.pf ppf "stage %s%s: %a@," s.label
        (if s.pipelined then " [pipelined]" else "")
        Fmt.(list ~sep:(any "; ") pp_instr)
        s.instrs)
    k.stages;
  Fmt.pf ppf "@]"

let pp_taskgraph ppf (tg : taskgraph) =
  Fmt.pf ppf "@[<v2>taskgraph %s: %d task(s), %d edge(s), %d launch(es) elided@,"
    tg.tg_name (num_tasks tg) (num_edges tg) (launches_elided tg);
  Array.iteri
    (fun i t ->
      Fmt.pf ppf "task %d %s <<<%d, %d>>> deps=[%a]@," i t.t_kernel.kname
        t.t_kernel.grid_blocks t.t_kernel.threads_per_block
        Fmt.(list ~sep:(any ", ") int)
        t.t_deps)
    tg.tg_tasks;
  Fmt.pf ppf "@]"
