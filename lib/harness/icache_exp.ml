module Icache = Impact_icache.Icache
module Machine = Impact_interp.Machine
module Profiler = Impact_profile.Profiler
module Inliner = Impact_core.Inliner
module Benchmark = Impact_bench_progs.Benchmark

type row = {
  bench_name : string;
  cache_desc : string;
  miss_before : float;
  miss_after : float;
}

let configurations =
  [
    (fun () -> Icache.create ~size:1024 ~assoc:1 ~line_size:16 ());
    (fun () -> Icache.create ~size:2048 ~assoc:1 ~line_size:16 ());
    (fun () -> Icache.create ~size:4096 ~assoc:1 ~line_size:16 ());
    (fun () -> Icache.create ~size:2048 ~assoc:2 ~line_size:16 ());
  ]

let miss_percent prog input make_cache =
  let cache = make_cache () in
  let (_ : Machine.outcome) = Machine.run_reference ~icache:cache prog ~input in
  100. *. Icache.miss_rate cache

let measure ?(config = Impact_core.Config.default) (bench : Benchmark.t) =
  let prog = Impact_il.Lower.lower_source bench.Benchmark.source in
  let _ = Impact_opt.Driver.pre_inline prog in
  let inputs = bench.Benchmark.inputs () in
  let { Profiler.profile; _ } = Profiler.profile prog ~inputs in
  let report = Inliner.run ~config prog profile in
  let input = List.hd inputs in
  List.map
    (fun make_cache ->
      {
        bench_name = bench.Benchmark.name;
        cache_desc = Icache.describe (make_cache ());
        miss_before = miss_percent prog input make_cache;
        miss_after = miss_percent report.Inliner.program input make_cache;
      })
    configurations

let run_suite () = List.concat_map measure Impact_bench_progs.Suite.all

let render rows =
  let body =
    List.map
      (fun r ->
        [
          r.bench_name;
          r.cache_desc;
          Printf.sprintf "%.2f%%" r.miss_before;
          Printf.sprintf "%.2f%%" r.miss_after;
          (if r.miss_after < r.miss_before -. 0.005 then "better"
           else if r.miss_before < r.miss_after -. 0.005 then "worse"
           else "same");
        ])
      rows
  in
  Tables.render
    ~title:
      "Extension (paper §5): instruction-cache miss rate before/after inlining."
    ~header:[ "benchmark"; "cache"; "miss before"; "miss after"; "effect" ]
    ~aligns:[ Left; Left; Right; Right; Left ]
    body
