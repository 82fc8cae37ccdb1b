module Machine = Impact_interp.Machine
module Counters = Impact_interp.Counters
module Pool = Impact_support.Pool

type result = {
  profile : Profile.t;
  runs : Machine.outcome list;
  failures : (int * exn) list;
}

let profile ?budget ?obs ?engine ?(jobs = 1) ?(keep_outputs = true) ?(tolerant = false) ?on_retry
    (prog : Impact_il.Il.program) ~inputs =
  if inputs = [] then invalid_arg "Profiler.profile: no inputs";
  (* One decode cache for the whole call: every input runs the same
     frozen program, so each domain decodes each function at most once
     across the sweep (see {!Impact_interp.Threaded.cache}). *)
  let cache = Impact_interp.Threaded.cache () in
  let one input =
    let o = Machine.run ?budget ?obs ?engine ~cache prog ~input in
    (* [output_digest] keeps output comparison possible after the text
       itself is dropped. *)
    if keep_outputs then o else { o with Machine.output = "" }
  in
  (* The pool preserves input order, so the profile and the run list are
     identical whatever [jobs] is. *)
  let runs, failures =
    if not tolerant then (Pool.map_list ~jobs one inputs, [])
    else begin
      (* Degraded mode: every run yields a result; a failing run is
         retried once (deterministically, same domain) and then reported
         instead of raised, so one bad input cannot sink the profile. *)
      let outcomes =
        Pool.map_list_results ~jobs ~retry:true ?on_retry one inputs
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
  let acc =
    Counters.create
      ~nfuncs:(Array.length prog.Impact_il.Il.funcs)
      ~nsites:prog.Impact_il.Il.next_site
  in
  List.iter
    (fun (o : Machine.outcome) -> Counters.add_into acc o.Machine.counters)
    runs;
  let max_stacks =
    List.map (fun (o : Machine.outcome) -> o.Machine.max_stack) runs
  in
  {
    profile = Profile.of_counters ~nruns:(List.length runs) ~max_stacks acc;
    runs;
    failures;
  }
