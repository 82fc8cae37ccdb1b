(* The paper's §5 extension: "we have obtained good instruction cache
   performance after inline expansion ... it greatly reduces the mapping
   conflict in instruction caches with small set-associativities."

   This example runs one call-intensive benchmark before and after
   inlining with the interpreter driving a set-associative cache model,
   across cache sizes.

   Run with:  dune exec examples/icache_study.exe *)

module Icache = Impact_icache.Icache
module Machine = Impact_interp.Machine
module Benchmark = Impact_bench_progs.Benchmark

let () =
  let bench = Impact_bench_progs.Suite.find "compress" in
  let prog = Impact_il.Lower.lower_source bench.Benchmark.source in
  let inputs = bench.Benchmark.inputs () in
  let { Impact_profile.Profiler.profile; _ } =
    Impact_profile.Profiler.profile prog ~inputs
  in
  let report = Impact_core.Inliner.run prog profile in
  let input = List.hd inputs in
  Printf.printf "%s: miss rates before/after inline expansion\n\n"
    bench.Benchmark.name;
  Printf.printf "%-30s %12s %12s\n" "cache" "before" "after";
  List.iter
    (fun (size, assoc) ->
      let measure p =
        let cache = Icache.create ~size ~assoc ~line_size:16 () in
        ignore (Machine.run_reference ~icache:cache p ~input);
        100. *. Icache.miss_rate cache
      in
      let cache = Icache.create ~size ~assoc ~line_size:16 () in
      Printf.printf "%-30s %11.3f%% %11.3f%%\n" (Icache.describe cache)
        (measure prog)
        (measure report.Impact_core.Inliner.program))
    [ (512, 1); (1024, 1); (2048, 1); (4096, 1); (1024, 2); (2048, 2) ]
