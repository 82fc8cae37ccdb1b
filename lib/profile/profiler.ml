module Machine = Impact_interp.Machine
module Counters = Impact_interp.Counters
module Pool = Impact_support.Pool

type coverage = {
  requested : Coverage.mode;
  effective : Coverage.mode;
  total_sites : int;
  counted_sites : int;
}

type result = {
  profile : Profile.t;
  runs : Machine.outcome list;
  failures : (int * exn) list;
  coverage : coverage;
}

let rec profile ?budget ?fuel ?obs ?engine ?(jobs = 1) ?clamp ?probe
    ?(keep_outputs = true) ?(tolerant = false) ?on_retry
    ?(mode = Coverage.Full) (prog : Impact_il.Il.program) ~inputs =
  if inputs = [] then invalid_arg "Profiler.profile: no inputs";
  (* One instrumentation plan for the whole call: immutable after
     construction, so the pool domains share it read-only — never a
     per-run allocation (the pool tests assert this). *)
  let plan = Coverage.build prog mode in
  (* One decode cache for the whole call: every input runs the same
     frozen program under the same plan, so each domain decodes each
     function at most once across the sweep (see
     {!Impact_interp.Threaded.cache}). *)
  let cache = Impact_interp.Threaded.cache () in
  let one input =
    let o =
      Machine.run ?budget ?fuel ?obs ?engine ~cache ?plan:plan.Coverage.iplan
        prog ~input
    in
    (* [output_digest] keeps output comparison possible after the text
       itself is dropped. *)
    if keep_outputs then o else { o with Machine.output = "" }
  in
  (* The pool preserves input order, so the profile and the run list are
     identical whatever [jobs] is. *)
  let runs, failures =
    if not tolerant then (Pool.map_list ~jobs ?clamp ?probe one inputs, [])
    else begin
      (* Degraded mode: every run yields a result; a failing run is
         retried once (deterministically, same domain) and then reported
         instead of raised, so one bad input cannot sink the profile. *)
      let outcomes =
        Pool.map_list_results ~jobs ?clamp ?probe ~retry:true ?on_retry one
          inputs
      in
      let runs, failures, _ =
        List.fold_left
          (fun (runs, failures, i) r ->
            match r with
            | Ok o -> (o :: runs, failures, i + 1)
            | Error e -> (runs, (i, e) :: failures, i + 1))
          ([], [], 0) outcomes
      in
      (List.rev runs, List.rev failures)
    end
  in
  if runs = [] then begin
    match failures with
    | (_, e) :: _ -> raise e
    | [] -> invalid_arg "Profiler.profile: no inputs"
  end;
  if Coverage.poisoned plan then begin
    (* Some run took an indirect call to a function whose in-arc the
       plan elided (a fabricated integer address): inference would not
       be exact, so redo the sweep fully instrumented.  Deterministic
       programs hit this on the first sweep or never. *)
    let r =
      profile ?budget ?fuel ?obs ?engine ~jobs ?clamp ?probe ~keep_outputs
        ~tolerant ?on_retry ~mode:Coverage.Full prog ~inputs
    in
    { r with coverage = { r.coverage with requested = mode } }
  end
  else begin
    let acc =
      Counters.create
        ~nfuncs:(Array.length prog.Impact_il.Il.funcs)
        ~nsites:prog.Impact_il.Il.next_site
    in
    List.iter
      (fun (o : Machine.outcome) -> Counters.add_into acc o.Machine.counters)
      runs;
    let nruns = List.length runs in
    Inference.apply plan ~nruns acc;
    let max_stacks =
      List.map (fun (o : Machine.outcome) -> o.Machine.max_stack) runs
    in
    {
      profile = Profile.of_counters ~nruns ~max_stacks acc;
      runs;
      failures;
      coverage =
        {
          requested = mode;
          effective = mode;
          total_sites = plan.Coverage.total_sites;
          counted_sites = plan.Coverage.counted_sites;
        };
    }
  end
