(** Atomic artifact writes: temp file + rename.

    [with_file path write] opens [path ^ ".tmp"], hands the channel to
    [write], then closes and renames over [path], and returns what
    [write] returned.  If [write], the close or the rename raises, the
    temp file is removed and the destination is untouched — an
    interrupted run never leaves a truncated artifact. *)

val with_file : string -> (out_channel -> 'a) -> 'a

val write_string : string -> string -> unit
(** [write_string path contents] = [with_file path (output_string oc contents)]. *)

val tmp_path : string -> string
(** The temp path used for [path] (exposed so tests can assert no
    leftovers). *)
