(* Tests for the GPU device model, occupancy calculator and simulator. *)

let dev = Device.a100

let usage ?(threads = 256) ?(smem = 48 * 1024) ?(regs = 64) () =
  { Occupancy.threads_per_block = threads; smem_per_block = smem;
    regs_per_thread = regs }

let test_occupancy_thread_limit () =
  (* 1024-thread blocks: 2 per SM by the 2048-thread limit *)
  Alcotest.(check int) "2 blocks" 2
    (Occupancy.blocks_per_sm dev (usage ~threads:1024 ~smem:0 ~regs:16 ()))

let test_occupancy_smem_limit () =
  (* 96 KiB blocks: 1 per SM on a 164 KiB SM *)
  Alcotest.(check int) "1 block" 1
    (Occupancy.blocks_per_sm dev (usage ~smem:(96 * 1024) ~regs:16 ()));
  Alcotest.(check int) "3 blocks at 48K" 3
    (Occupancy.blocks_per_sm dev (usage ~smem:(48 * 1024) ~regs:16 ()))

let test_occupancy_reg_limit () =
  (* 255 regs x 256 threads = 65280: 1 block per SM *)
  Alcotest.(check int) "reg bound" 1
    (Occupancy.blocks_per_sm dev (usage ~regs:255 ~smem:0 ()))

let test_wave_capacity () =
  let u = usage ~smem:(96 * 1024) ~regs:16 () in
  Alcotest.(check int) "108 blocks per wave" 108
    (Occupancy.max_blocks_per_wave dev u);
  Alcotest.(check int) "3 waves for 300 blocks" 3
    (Occupancy.waves dev u ~grid_blocks:300)

let test_occupancy_fraction () =
  let u = usage ~threads:256 ~smem:0 ~regs:16 () in
  (* 8 blocks x 256 threads = 2048 = 100% *)
  Alcotest.(check (float 1e-6)) "full occupancy" 1.0 (Occupancy.occupancy dev u)

let mk_kernel ?(grid = 108) ?(stages = []) () =
  Kernel_ir.kernel ~name:"k" ~grid_blocks:grid stages

let sim_of stages =
  Sim.run dev { Kernel_ir.pname = "t"; kernels = [ mk_kernel ~stages () ] }

let test_launch_overhead () =
  (* empty kernels cost exactly the launch latency *)
  let r =
    Sim.run dev
      { Kernel_ir.pname = "t";
        kernels = List.init 5 (fun i ->
            Kernel_ir.kernel ~name:(Fmt.str "k%d" i) ~grid_blocks:108 []) }
  in
  Alcotest.(check int) "5 launches" 5 r.Sim.total.Counters.kernel_launches;
  Alcotest.(check (float 1e-6)) "10us total"
    (5. *. dev.Device.kernel_launch_us)
    r.Sim.total.Counters.time_us

let test_memory_bound_stage () =
  (* 155.5 MB at 1555 GB/s * 0.85 eff = ~117.6 us *)
  let bytes = 155_500_000 in
  let r =
    sim_of [ Kernel_ir.stage ~label:"ld" [ Kernel_ir.ldg bytes ] ]
  in
  let t = r.Sim.total.Counters.time_us -. dev.Device.kernel_launch_us in
  Alcotest.(check bool) "within 5% of bandwidth model" true
    (Float.abs (t -. 117.6) < 6.);
  Alcotest.(check int) "bytes counted" bytes
    r.Sim.total.Counters.dram_read_bytes

let test_compute_bound_stage () =
  (* 1e9 FMA flops at 19.5 TFLOPS x 0.7 = 73 us *)
  let r =
    sim_of
      [ Kernel_ir.stage ~label:"fma" ~compute_eff:0.7
          [ Kernel_ir.Fma { flops = 1_000_000_000 } ] ]
  in
  let t = r.Sim.total.Counters.time_us -. dev.Device.kernel_launch_us in
  Alcotest.(check bool) "~73us" true (Float.abs (t -. 73.3) < 4.)

let test_tensor_core_faster_than_fma () =
  let flops = 1_000_000_000 in
  let t_mma =
    (sim_of [ Kernel_ir.stage ~label:"m" [ Kernel_ir.Mma { flops } ] ]).Sim.total
      .Counters.time_us
  in
  let t_fma =
    (sim_of [ Kernel_ir.stage ~label:"f" [ Kernel_ir.Fma { flops } ] ]).Sim.total
      .Counters.time_us
  in
  Alcotest.(check bool) "mma much faster" true (t_mma *. 4. < t_fma)

let test_pipelining_overlaps () =
  let instrs =
    [ Kernel_ir.ldg 50_000_000; Kernel_ir.Mma { flops = 10_000_000_000 } ]
  in
  let t_plain =
    (sim_of [ Kernel_ir.stage ~label:"s" ~pipelined:false instrs ]).Sim.total
      .Counters.time_us
  in
  let t_pipe =
    (sim_of [ Kernel_ir.stage ~label:"s" ~pipelined:true instrs ]).Sim.total
      .Counters.time_us
  in
  Alcotest.(check bool) "pipelining helps" true (t_pipe < t_plain);
  (* and can never beat the slower of the two resources *)
  let lower_bound = 50_000_000. /. (1555. *. 0.85 *. 1e3) in
  Alcotest.(check bool) "bounded below" true
    (t_pipe -. dev.Device.kernel_launch_us >= lower_bound -. 1e-6)

let test_grid_sync_cost () =
  let r =
    sim_of
      [ Kernel_ir.stage ~label:"s" [ Kernel_ir.Grid_sync; Kernel_ir.Grid_sync ] ]
  in
  Alcotest.(check int) "2 syncs" 2 r.Sim.total.Counters.grid_syncs;
  Alcotest.(check bool) "costs ~2us + floor" true
    (r.Sim.total.Counters.time_us -. dev.Device.kernel_launch_us >= 2.0)

let test_atomic_slower_than_store () =
  let bytes = 10_000_000 in
  let t_atomic =
    (sim_of [ Kernel_ir.stage ~label:"a" [ Kernel_ir.atomic_add bytes ] ])
      .Sim.total.Counters.time_us
  in
  let t_store =
    (sim_of [ Kernel_ir.stage ~label:"s" [ Kernel_ir.stg bytes ] ])
      .Sim.total.Counters.time_us
  in
  Alcotest.(check bool) "atomics slower" true (t_atomic > t_store)

let test_l2_faster_than_dram () =
  let bytes = 100_000_000 in
  let t_l2 =
    (sim_of [ Kernel_ir.stage ~label:"l" [ Kernel_ir.ldl2 bytes ] ])
      .Sim.total.Counters.time_us
  in
  let t_dram =
    (sim_of [ Kernel_ir.stage ~label:"d" [ Kernel_ir.ldg bytes ] ])
      .Sim.total.Counters.time_us
  in
  Alcotest.(check bool) "l2 faster" true (t_l2 < t_dram)

let test_under_occupancy_penalty () =
  let flops = 1_000_000_000 in
  let run grid =
    (Sim.run dev
       { Kernel_ir.pname = "t";
         kernels =
           [ Kernel_ir.kernel ~name:"k" ~grid_blocks:grid
               [ Kernel_ir.stage ~label:"s" ~sgrid:grid
                   [ Kernel_ir.Fma { flops } ] ] ] })
      .Sim.total.Counters.time_us
  in
  let t_full = run 108 and t_tenth = run 10 in
  Alcotest.(check bool) "10-block grid ~10x slower" true
    (t_tenth > t_full *. 5.)

let test_library_call_ignores_occupancy () =
  let flops = 1_000_000_000 in
  let run lib =
    (Sim.run dev
       { Kernel_ir.pname = "t";
         kernels =
           [ Kernel_ir.kernel ~name:"k" ~grid_blocks:4 ~library_call:lib
               [ Kernel_ir.stage ~label:"s" ~sgrid:4
                   [ Kernel_ir.Fma { flops } ] ] ] })
      .Sim.total.Counters.time_us
  in
  Alcotest.(check bool) "library unaffected by tiny grid" true
    (run true < run false /. 4.)

let test_validate_prog_coop () =
  (* a grid-syncing kernel with more blocks than one wave is rejected *)
  let k =
    Kernel_ir.kernel ~name:"bad" ~grid_blocks:100_000
      ~smem_per_block:(96 * 1024)
      [ Kernel_ir.stage ~label:"s" [ Kernel_ir.Grid_sync ] ]
  in
  Alcotest.(check bool) "invalid" true
    (Result.is_error (Sim.validate_prog dev { Kernel_ir.pname = "t"; kernels = [ k ] }));
  let ok =
    Kernel_ir.kernel ~name:"ok" ~grid_blocks:50 ~smem_per_block:(48 * 1024)
      [ Kernel_ir.stage ~label:"s" [ Kernel_ir.Grid_sync ] ]
  in
  Alcotest.(check bool) "valid" true
    (Result.is_ok (Sim.validate_prog dev { Kernel_ir.pname = "t"; kernels = [ ok ] }))

let test_utilization_counters () =
  let r =
    sim_of
      [ Kernel_ir.stage ~label:"s"
          [ Kernel_ir.ldg 100_000_000; Kernel_ir.Fma { flops = 1_000_000 } ] ]
  in
  let lsu = Counters.lsu_utilization r.Sim.total in
  Alcotest.(check bool) "LSU utilization in (0,1]" true (lsu > 0. && lsu <= 1.);
  Alcotest.(check bool) "LSU dominates FMA here" true
    (lsu > Counters.fma_utilization r.Sim.total)

let qcheck_more_traffic_never_faster =
  QCheck.Test.make ~name:"monotone: more DRAM traffic is never faster"
    ~count:100
    QCheck.(pair (int_range 1 1_000_000) (int_range 0 1_000_000))
    (fun (base, extra) ->
      let t b =
        (sim_of [ Kernel_ir.stage ~label:"s" [ Kernel_ir.ldg b ] ])
          .Sim.total.Counters.time_us
      in
      t (base + extra) >= t base -. 1e-9)

(* ---- generated programs: one stage pass feeds both solo and replay --- *)

let gen_instr =
  QCheck.Gen.(
    let bytes = int_range 0 50_000_000 and work = int_range 0 2_000_000_000 in
    oneof
      [
        map (fun b -> Kernel_ir.ldg b) bytes;
        map (fun b -> Kernel_ir.ldl2 b) bytes;
        map (fun b -> Kernel_ir.lds b) bytes;
        map (fun b -> Kernel_ir.stg b) bytes;
        map (fun b -> Kernel_ir.atomic_add b) bytes;
        map (fun flops -> Kernel_ir.Mma { flops }) work;
        map (fun flops -> Kernel_ir.Fma { flops }) work;
        map (fun ops -> Kernel_ir.Sfu { ops }) work;
        return Kernel_ir.Grid_sync;
        return Kernel_ir.Block_sync;
      ])

(* a kernel with [nstages] random stages, grid and resources *)
let gen_kernel ~name nstages =
  QCheck.Gen.(
    let* grid = int_range 1 600 in
    let* threads = oneofl [ 64; 128; 256; 512; 1024 ] in
    let* smem = oneofl [ 0; 16 * 1024; 48 * 1024; 96 * 1024 ] in
    let* library_call = frequencyl [ (1, true); (4, false) ] in
    let+ stages =
      list_size nstages
        (map4
           (fun instrs pipelined sgrid compute_eff ->
             Kernel_ir.stage ~label:"s" ~pipelined ~sgrid ~compute_eff instrs)
           (list_size (int_range 0 4) gen_instr)
           bool (int_range 0 grid) (float_range 0.2 1.0))
    in
    Kernel_ir.kernel ~name ~grid_blocks:grid ~threads_per_block:threads
      ~smem_per_block:smem ~library_call stages)

let arb_prog =
  QCheck.make
    ~print:(fun (p : Kernel_ir.prog) ->
      Fmt.str "%a" Fmt.(list Kernel_ir.pp_kernel) p.Kernel_ir.kernels)
    QCheck.Gen.(
      let* n = int_range 1 6 in
      let+ kernels =
        flatten_l
          (List.init n (fun i ->
               gen_kernel ~name:(Fmt.str "k%d" i) (int_range 0 4)))
      in
      { Kernel_ir.pname = "gen"; kernels })

let replay_finish (profiles : Sim.kernel_profile list) =
  let eng = Sim.Multi.create dev in
  let s = Sim.Multi.launch eng profiles in
  Sim.Multi.drain eng;
  s.Sim.Multi.st_finish_us

let qcheck_solo_equals_one_stream =
  QCheck.Test.make ~name:"solo time = one-stream replay, bit for bit"
    ~count:200 arb_prog (fun p ->
      let r = Sim.run dev p in
      replay_finish r.Sim.profiles = Some r.Sim.total.Counters.time_us)

let qcheck_profile_solo_is_kernel_time =
  QCheck.Test.make ~name:"profile solo time = kernel counter time"
    ~count:200 arb_prog (fun p ->
      let r = Sim.run dev p in
      List.for_all2
        (fun (kp : Sim.kernel_profile) (kr : Sim.kernel_result) ->
          kp.Sim.kp_solo_us = kr.Sim.kcounters.Counters.time_us)
        r.Sim.profiles r.Sim.per_kernel)

(* random DAGs: every dep points at a lower index, a quarter of the tasks
   carry no stages *)
let arb_taskgraph =
  QCheck.make
    ~print:(Fmt.to_to_string Kernel_ir.pp_taskgraph)
    QCheck.Gen.(
      let* n = int_range 1 8 in
      let+ tasks =
        flatten_l
          (List.init n (fun i ->
               let* edge = list_repeat i (frequencyl [ (1, true); (2, false) ]) in
               let+ k = gen_kernel ~name:(Fmt.str "t%d" i) (int_range 0 3) in
               let deps =
                 List.concat
                   (List.mapi (fun d on -> if on then [ d ] else []) edge)
               in
               { Kernel_ir.t_kernel = k; t_deps = deps }))
      in
      { Kernel_ir.tg_name = "gen"; tg_kernels = n;
        tg_tasks = Array.of_list tasks })

let qcheck_mega_one_launch =
  QCheck.Test.make ~name:"run_mega terminates with one launch" ~count:200
    arb_taskgraph (fun tg ->
      (Sim.run_mega dev tg).Sim.total.Counters.kernel_launches = 1)

(* contention only ever stretches a task, so the wall clock can never beat
   launch + the longest chain of solo task times; a task admitted before
   its dependencies retired would break this by whole stages, while the
   1e-12 slack only absorbs rounding (segment durations are differences of
   absolute engine times) *)
let qcheck_mega_respects_dependencies =
  QCheck.Test.make ~name:"run_mega >= launch + longest dependency chain"
    ~count:200 arb_taskgraph (fun tg ->
      let r = Sim.run_mega dev tg in
      let solo = Array.of_list r.Sim.per_kernel in
      let chain = Array.make (Array.length solo) 0. in
      Array.iteri
        (fun i (t : Kernel_ir.task) ->
          chain.(i) <-
            solo.(i).Sim.kcounters.Counters.time_us
            +. List.fold_left
                 (fun a d -> Float.max a chain.(d))
                 0. t.Kernel_ir.t_deps)
        tg.Kernel_ir.tg_tasks;
      let bound =
        dev.Device.kernel_launch_us +. Array.fold_left Float.max 0. chain
      in
      r.Sim.total.Counters.time_us >= bound *. (1. -. 1e-12))

let suite =
  [
    Alcotest.test_case "occupancy thread limit" `Quick test_occupancy_thread_limit;
    Alcotest.test_case "occupancy smem limit" `Quick test_occupancy_smem_limit;
    Alcotest.test_case "occupancy reg limit" `Quick test_occupancy_reg_limit;
    Alcotest.test_case "wave capacity" `Quick test_wave_capacity;
    Alcotest.test_case "occupancy fraction" `Quick test_occupancy_fraction;
    Alcotest.test_case "launch overhead" `Quick test_launch_overhead;
    Alcotest.test_case "memory bound stage" `Quick test_memory_bound_stage;
    Alcotest.test_case "compute bound stage" `Quick test_compute_bound_stage;
    Alcotest.test_case "tensor core vs fma" `Quick test_tensor_core_faster_than_fma;
    Alcotest.test_case "pipelining overlaps" `Quick test_pipelining_overlaps;
    Alcotest.test_case "grid sync cost" `Quick test_grid_sync_cost;
    Alcotest.test_case "atomic slower than store" `Quick test_atomic_slower_than_store;
    Alcotest.test_case "l2 faster than dram" `Quick test_l2_faster_than_dram;
    Alcotest.test_case "under-occupancy penalty" `Quick test_under_occupancy_penalty;
    Alcotest.test_case "library ignores occupancy" `Quick
      test_library_call_ignores_occupancy;
    Alcotest.test_case "validate cooperative" `Quick test_validate_prog_coop;
    Alcotest.test_case "utilization counters" `Quick test_utilization_counters;
    QCheck_alcotest.to_alcotest qcheck_more_traffic_never_faster;
    QCheck_alcotest.to_alcotest qcheck_solo_equals_one_stream;
    QCheck_alcotest.to_alcotest qcheck_profile_solo_is_kernel_time;
    QCheck_alcotest.to_alcotest qcheck_mega_one_launch;
    QCheck_alcotest.to_alcotest qcheck_mega_respects_dependencies;
  ]
