module Obs = Impact_obs.Obs
module Sink = Impact_obs.Sink
module Ierr = Impact_support.Ierr

let with_obs (type a) ~format ~trace ~metrics_out ~on_broken (f : Obs.t -> a) : a =
  (* [f]'s own failure, kept apart from the files' I/O errors. *)
  let exception Failed of exn * Printexc.raw_backtrace in
  let exception Broken of a * exn in
  let run sink =
    let obs = Obs.create sink in
    let v = try f obs with e -> raise (Failed (e, Printexc.get_raw_backtrace ())) in
    Obs.finish ?metrics_out obs;
    match Sink.broken sink with None -> v | Some e -> raise (Broken (v, e))
  in
  match (trace, metrics_out) with
  | None, None -> f Obs.null
  | _ -> (
    match
      match (trace, format) with
      | Some path, `Jsonl ->
        Impact_support.Atomic_io.with_file path (fun oc -> run (Sink.jsonl oc))
      | Some path, `Chrome ->
        let sink = Sink.memory () in
        let v = run sink in
        Impact_obs.Trace_export.write_chrome path (Sink.events sink);
        v
      | None, _ -> run (Sink.discard ())
    with
    | v -> v
    | exception Failed (e, bt) -> Printexc.raise_with_backtrace e bt
    | exception Broken (v, e) ->
      on_broken (Errors.classify Ierr.Artifact e);
      v
    | exception e -> raise (Ierr.Error (Errors.classify Ierr.Artifact e)))
