(** Textual rendering of IL programs for dumps, tests and the CLI. *)

(** [dump prog] is the program rendered to a string: its globals, its
    string literals, then every live function with a header line and one
    line per instruction.  [Profile_io.program_checksum] is the MD5 of
    these bytes, so the rendering is part of the persisted checksums. *)
val dump : Il.program -> string
