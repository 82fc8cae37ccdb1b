(* Atomic artifact writes: temp file + rename, the same discipline
   Profile_io.save introduced.  Every artifact writer in the tree
   (profiles, traces, metrics snapshots, BENCH_*.json) goes through
   here so an interrupted or faulted run never leaves a truncated file
   at the destination path — either the old contents survive or the
   complete new contents land, nothing in between. *)

let tmp_path path = path ^ ".tmp"

let with_file path write =
  let tmp = tmp_path path in
  let oc = open_out tmp in
  match
    let v = write oc in
    close_out oc;
    Sys.rename tmp path;
    v
  with
  | v -> v
  | exception e ->
    close_out_noerr oc;
    (try Sys.remove tmp with Sys_error _ -> ());
    raise e

let write_string path contents = with_file path (fun oc -> output_string oc contents)
