(* Benchmark harness entry point.

   `dune exec bench/main.exe` regenerates every table and figure of the
   paper's evaluation and then runs the compile, serving, mega-kernel and
   decode benchmarks.  Pass a section name to run only that section:

     dune exec bench/main.exe -- table1 table3 table4 table5 fig6 table6
     dune exec bench/main.exe -- overhead compile-perf
*)

let sections : (string * (unit -> unit)) list =
  [
    ("table1", Tables.table1);
    ("table3", Tables.table3);
    ("table4", Tables.table4);
    ("table5", Tables.table5);
    ("fig6", Tables.fig6);
    ("table6", Tables.table6);
    ("overhead", Tables.overhead);
    ("ablation", Ablation.run);
    ("compile-perf", Compile_perf.run);
    ("compile-perf-smoke", Compile_perf.smoke);
    ("serve-perf", Serve_perf.run);
    ("serve-perf-smoke", Serve_perf.smoke);
    ("serve-chaos", Serve_chaos.run);
    ("serve-chaos-smoke", Serve_chaos.smoke);
    ("mega-perf", Mega_perf.run);
    ("mega-perf-smoke", Mega_perf.smoke);
    ("decode-perf", Decode_perf.run);
    ("decode-perf-smoke", Decode_perf.smoke);
  ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  (* --strict-bench: exit non-zero if any model compiled degraded, so CI
     evaluation runs fail loudly instead of publishing tables measured on
     degraded kernels *)
  let strict = List.mem "--strict-bench" args in
  let args = List.filter (fun a -> a <> "--strict-bench") args in
  let chosen = if args = [] then List.map fst sections else args in
  Fmt.pr "Souffle reproduction benchmark harness — device: %a@." Device.pp
    Tables.dev;
  List.iter
    (fun name ->
      match List.assoc_opt name sections with
      | Some f -> f ()
      | None ->
          Fmt.epr "unknown section %s (available: %s)@." name
            (String.concat ", " (List.map fst sections)))
    chosen;
  Tables.section "Compilation health";
  Fmt.pr "  %a@." Runlog.pp Tables.runlog;
  let code = Runlog.exit_code ~strict Tables.runlog in
  if code <> 0 then
    Fmt.epr "strict-bench: failing the run over degraded compilations@.";
  exit code
