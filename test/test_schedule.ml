(* Tests for the schedule layer: resource estimation, tensor-core
   eligibility, the Ansor-like search, and the partitioner. *)

let f32 = Dtype.F32
let dev = Device.a100
let input name shape = (name, { Program.shape; dtype = f32 })

let gemm_program ?(m = 256) ?(n = 256) ?(k = 256) () =
  let a = input "a" [| m; k |] and b = input "b" [| k; n |] in
  let g = Builder.matmul ~tag:"matmul" ~name:"g" ~m ~n ~k "a" "b" in
  (Program.make ~inputs:[ a; b ] ~tes:[ g ] ~outputs:[ "g" ], g)

let test_grid_blocks () =
  let _, te = gemm_program () in
  let s = { (Sched.default_elementwise te) with Sched.tile = [| 64; 64 |] } in
  Alcotest.(check int) "16 blocks" 16 (Sched.grid_blocks te s)

let test_grid_blocks_ceil () =
  let _, te = gemm_program ~m:100 ~n:60 () in
  let s = { (Sched.default_elementwise te) with Sched.tile = [| 64; 64 |] } in
  (* ceil(100/64) * ceil(60/64) = 2 * 1 *)
  Alcotest.(check int) "ceil division" 2 (Sched.grid_blocks te s)

let test_input_tile_elems_gemm () =
  let _, te = gemm_program () in
  let s =
    { (Sched.default_elementwise te) with
      Sched.tile = [| 64; 32 |]; rtile = [| 16 |] }
  in
  (* A[i, rk]: vars {i, rk} -> 64*16; B[rk, j]: {rk, j} -> 16*32 *)
  (match Te.accesses te with
  | [ (_, idx_a); (_, idx_b) ] ->
      Alcotest.(check int) "A tile" 1024 (Sched.input_tile_elems s idx_a);
      Alcotest.(check int) "B tile" 512 (Sched.input_tile_elems s idx_b)
  | _ -> Alcotest.fail "expected two accesses")

let test_input_tile_elems_capped () =
  let _, te = gemm_program () in
  let s =
    { (Sched.default_elementwise te) with
      Sched.tile = [| 128; 128 |]; rtile = [| 64 |] }
  in
  (match Te.accesses te with
  | [ (_, idx_a); _ ] ->
      Alcotest.(check int) "capped at numel" 100
        (Sched.input_tile_elems ~numel:100 s idx_a)
  | _ -> Alcotest.fail "expected two accesses")

let test_smem_select_takes_max_branch () =
  (* a horizontally merged body must not double-count branch inputs *)
  let p =
    let a1 = input "a1" [| 4; 8 |] and b1 = input "b1" [| 8; 16 |] in
    let a2 = input "a2" [| 4; 8 |] and b2 = input "b2" [| 8; 16 |] in
    let c1 = Builder.matmul ~name:"c1" ~m:4 ~n:16 ~k:8 "a1" "b1" in
    let c2 = Builder.matmul ~name:"c2" ~m:4 ~n:16 ~k:8 "a2" "b2" in
    let u1 = Builder.unary ~name:"u1" ~shape:[| 4; 16 |] Expr.Relu "c1" in
    let u2 = Builder.unary ~name:"u2" ~shape:[| 4; 16 |] Expr.Relu "c2" in
    Program.make ~inputs:[ a1; b1; a2; b2 ] ~tes:[ c1; c2; u1; u2 ]
      ~outputs:[ "u1"; "u2" ]
  in
  let merged, _ = Horizontal.apply p in
  let te_plain = Program.find_te_exn p "c1" in
  let te_merged = Program.find_te_exn merged "c1_hz" in
  let s te = { (Sched.default_elementwise te) with
               Sched.tile = [| 4; 16 |]; rtile = [| 8 |];
               cache_read_smem = true } in
  Alcotest.(check int) "merged smem = single smem"
    (Sched.smem_bytes p te_plain (s te_plain))
    (Sched.smem_bytes merged te_merged (s te_merged))

let test_tensor_core_eligibility () =
  let _, gemm = gemm_program () in
  Alcotest.(check bool) "gemm eligible" true (Sched.tensor_core_eligible gemm);
  let gemv = Builder.gemv ~name:"y" ~m:256 ~k:256 "w" "x" in
  Alcotest.(check bool) "gemv not eligible" false
    (Sched.tensor_core_eligible gemv);
  let ew = Builder.unary ~name:"e" ~shape:[| 8; 8 |] Expr.Relu "x" in
  Alcotest.(check bool) "elementwise not eligible" false
    (Sched.tensor_core_eligible ew);
  let reduce = Builder.reduce_last ~name:"r" ~m:64 ~k:64 Te.Max "x" in
  Alcotest.(check bool) "max-reduce not eligible" false
    (Sched.tensor_core_eligible reduce)

let test_ansor_feasible_schedules () =
  let p, te = gemm_program () in
  let s = Ansor.schedule_te dev p te in
  let u = Sched.usage p te s in
  Alcotest.(check bool) "fits an SM" true
    (u.Occupancy.smem_per_block <= dev.Device.max_smem_per_block
    && Occupancy.blocks_per_sm dev u >= 1);
  Alcotest.(check bool) "uses tensor core" true s.Sched.use_tensor_core;
  Alcotest.(check bool) "positive efficiency" true (s.Sched.compute_eff > 0.)

let test_ansor_prefers_occupancy () =
  (* on a small GEMM, the search must not pick the degenerate 1-block tile *)
  let p, te = gemm_program ~m:256 ~n:256 ~k:64 () in
  let s = Ansor.schedule_te dev p te in
  Alcotest.(check bool) "more than one block" true (Sched.grid_blocks te s > 1)

let test_tile_candidates_never_empty () =
  (* regression: dims smaller than every tile option used to filter to [],
     which emptied the candidate cross-product and silently fell back to
     the grid-1 elementwise schedule — fatal for single-token decode
     shapes like (1, hidden) *)
  List.iter
    (fun d ->
      let cs = Ansor.tile_candidates d in
      Alcotest.(check bool) (Fmt.str "non-empty for d=%d" d) true (cs <> []);
      List.iter
        (fun t ->
          Alcotest.(check bool)
            (Fmt.str "tile %d legal for d=%d" t d)
            true
            (t >= 1 && t <= max 1 d))
        cs)
    [ 1; 2; 7; 8; 9; 16; 100; 512 ]

let test_ansor_single_row_gemm_gets_grid () =
  (* the decode shape: (1, hidden) x (hidden, hidden).  With one output
     row the grid must come from an rsplit of the reduction, not collapse
     to a single block *)
  let p, te = gemm_program ~m:1 ~n:512 ~k:512 () in
  let s = Ansor.schedule_te dev p te in
  Alcotest.(check bool) "rsplit-driven grid" true (Sched.grid_blocks te s > 1);
  Alcotest.(check bool) "rsplit chosen" true (s.Sched.rsplit > 1)

let test_schedule_program_covers_all () =
  let g = Bert.create ~cfg:Bert.tiny () in
  let p = Lower.run g in
  let tbl = Ansor.schedule_program dev p in
  List.iter
    (fun (te : Te.t) ->
      Alcotest.(check bool) ("schedule for " ^ te.Te.name) true
        (Hashtbl.mem tbl te.Te.name))
    p.Program.tes

let test_schedule_memoization_consistent () =
  (* identical layers get identical schedules (modulo te_name) *)
  let g = Bert.create ~cfg:{ Bert.tiny with Bert.layers = 2 } () in
  let p = Lower.run g in
  let tbl = Ansor.schedule_program dev p in
  let s0 = Hashtbl.find tbl "l0.ffn1" and s1 = Hashtbl.find tbl "l1.ffn1" in
  Alcotest.(check bool) "same tiles" true (s0.Sched.tile = s1.Sched.tile)

(* ------------------ partition ------------------ *)

let analyze_and_partition p =
  let an = Analysis.run p in
  let scheds = Ansor.schedule_program dev p in
  (Partition.run dev an scheds, an)

let test_partition_covers_program () =
  let p = Lower.run (Bert.create ~cfg:Bert.tiny ()) in
  let part, _ = analyze_and_partition p in
  Alcotest.(check bool) "valid cover" true
    (Result.is_ok (Partition.validate part p))

let test_partition_small_program_single () =
  let p, _ = gemm_program ~m:64 ~n:64 ~k:64 () in
  let part, _ = analyze_and_partition p in
  Alcotest.(check int) "one subprogram" 1 (Partition.num_subprograms part)

let test_partition_fig2_style_split () =
  (* an oversized TE (grid beyond cooperative capacity) must split out,
     like TE4 in Fig. 2 *)
  let a = input "a" [| 64; 64 |] and b = input "b" [| 64; 64 |] in
  let w = input "w" [| 64; 65536 |] in
  let g1 = Builder.matmul ~tag:"matmul" ~name:"g1" ~m:64 ~n:64 ~k:64 "a" "b" in
  let big =
    Builder.matmul ~tag:"matmul" ~name:"big" ~m:64 ~n:65536 ~k:64 "g1" "w"
  in
  let p = Program.make ~inputs:[ a; b; w ] ~tes:[ g1; big ] ~outputs:[ "big" ] in
  let part, _ = analyze_and_partition p in
  Alcotest.(check bool) "split happened" true
    (Partition.num_subprograms part >= 2)

let test_partition_coop_constraint_holds () =
  (* every cooperative subprogram satisfies the §5.4 constraint by
     construction: emitting it and validating against the device passes *)
  let p = Lower.run (Bert.create ~cfg:Bert.tiny ()) in
  let an = Analysis.run p in
  let scheds = Ansor.schedule_program dev p in
  let part = Partition.run dev an scheds in
  let groups = List.map Emit.group_of_subprogram part.Partition.subprograms in
  let prog = Emit.emit dev p an scheds Emit.default_options groups in
  Alcotest.(check bool) "cooperative launches fit" true
    (Result.is_ok (Sim.validate_prog dev prog))

let test_partition_noncoop_absorbs_epilogues () =
  (* a huge elementwise-only consumer after an oversized reduce stays in
     the same (non-cooperative) subprogram *)
  let a = input "a" [| 512; 4096 |] and b = input "b" [| 4096; 4096 |] in
  let g = Builder.matmul ~tag:"matmul" ~name:"g" ~m:512 ~n:4096 ~k:4096 "a" "b" in
  let r = Builder.unary ~name:"r" ~shape:[| 512; 4096 |] Expr.Relu "g" in
  let p = Program.make ~inputs:[ a; b ] ~tes:[ g; r ] ~outputs:[ "r" ] in
  let part, _ = analyze_and_partition p in
  match part.Partition.subprograms with
  | [ sp ] ->
      Alcotest.(check (list string)) "both TEs together" [ "g"; "r" ]
        (Partition.te_names sp)
  | l -> Alcotest.failf "expected 1 subprogram, got %d" (List.length l)

let suite =
  [
    Alcotest.test_case "grid blocks" `Quick test_grid_blocks;
    Alcotest.test_case "grid blocks ceil" `Quick test_grid_blocks_ceil;
    Alcotest.test_case "input tile elems" `Quick test_input_tile_elems_gemm;
    Alcotest.test_case "input tile capped" `Quick test_input_tile_elems_capped;
    Alcotest.test_case "smem select max branch" `Quick
      test_smem_select_takes_max_branch;
    Alcotest.test_case "tensor core eligibility" `Quick
      test_tensor_core_eligibility;
    Alcotest.test_case "ansor feasible" `Quick test_ansor_feasible_schedules;
    Alcotest.test_case "ansor occupancy" `Quick test_ansor_prefers_occupancy;
    Alcotest.test_case "tile candidates never empty" `Quick
      test_tile_candidates_never_empty;
    Alcotest.test_case "ansor single-row gemm grid" `Quick
      test_ansor_single_row_gemm_gets_grid;
    Alcotest.test_case "schedule covers all" `Quick test_schedule_program_covers_all;
    Alcotest.test_case "schedule memoization" `Quick
      test_schedule_memoization_consistent;
    Alcotest.test_case "partition covers" `Quick test_partition_covers_program;
    Alcotest.test_case "partition single" `Quick test_partition_small_program_single;
    Alcotest.test_case "partition fig2 split" `Quick test_partition_fig2_style_split;
    Alcotest.test_case "partition coop constraint" `Quick
      test_partition_coop_constraint_holds;
    Alcotest.test_case "partition noncoop epilogue" `Quick
      test_partition_noncoop_absorbs_epilogues;
  ]
