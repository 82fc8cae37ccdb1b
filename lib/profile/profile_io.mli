(** Profile serialisation — the on-disk half of the paper's "IMPACT-I
    Profiler to C Compiler interface", which "allows the profile
    information to be automatically used by the IMPACT-I C Compiler".

    The format is a line-oriented text file:

    {v
    impact-profile v4 <checksum> -
    runs <n>
    totals <ils> <cts> <calls> <returns> <ext_calls> <max_stack>
    func <fid> <weight>      (one line per non-zero node weight)
    site <id> <weight>       (one line per non-zero arc weight)
    vsite <id> <other> <fid>:<weight> ...   (indirect-site value profile)
    v}

    Weights are averages over the run set and may be fractional.  The
    header's [<checksum>] is the {!program_checksum} of the program the
    profile was collected against ([-] when not recorded), so a stale
    profile is detected at load time.

    Writers emit a v4 header only when the profile carries a value
    profile (some indirect site executed); otherwise the v2 header
    ([impact-profile v2 <checksum>]) is kept, which also keeps
    {!profile_checksum} byte-stable for profiles without indirect-call
    data.  Readers also accept the v3 header
    ([impact-profile v3 <checksum> full]) and a v4 mode field of
    [full], both written while profiling had several modes; a header
    naming any other mode ([min], the retired [sampled]) is a typed
    error.  v2/v3 files read back with an empty value profile; v1
    files ([impact-profile 1]) are still read and carry no checksum.

    All failure modes — unreadable file, malformed line,
    negative/overflowing count, unknown section, stale checksum, a
    retired mode — are reported as typed {!Impact_support.Ierr.t} values (stage
    [Profile_io], severity [Degradable], recovery [Fallback_static]),
    never raw exceptions: array sizes requested by the file are bounds-
    checked before allocation.  The one deliberate exception is the
    value profile itself: malformed, truncated or out-of-bounds [vsite]
    data drops the whole value-profile component (devirtualization
    degrades to a no-op) while the rest of the profile still parses.
    Readers/writers carry the
    {!Impact_support.Fault.Profile_read}/[Profile_write] injection
    points. *)

(** [program_checksum prog] is the MD5 (hex) of the program's textual
    dump — the staleness fingerprint recorded in profile headers. *)
val program_checksum : Impact_il.Il.program -> string

(** [profile_checksum p] is the MD5 (hex) of the profile's canonical
    serialisation — the identity of the profile's content, for keying
    artifacts (cached inlining decisions) derived from it. *)
val profile_checksum : Profile.t -> string

(** [to_string ?checksum p] serialises a profile: a v4 header when it
    has value data, the v2 header otherwise.  [?checksum] defaults to
    [-]. *)
val to_string : ?checksum:string -> Profile.t -> string

(** [of_string ?expect_checksum s] parses a serialised profile.  CRLF
    line endings and runs of spaces/tabs between fields are tolerated.
    With [?expect_checksum], a header whose recorded checksum differs
    is rejected as stale (v1 headers and unrecorded [-] checksums pass
    the check).  Never raises: every failure is a typed [Error]. *)
val of_string :
  ?expect_checksum:string ->
  string ->
  (Profile.t, Impact_support.Ierr.t) result

(** [of_string_exn] is {!of_string}, raising {!Impact_support.Ierr.Error}. *)
val of_string_exn : ?expect_checksum:string -> string -> Profile.t

(** [save ?checksum path p] writes [to_string p] to [path]
    atomically: the bytes go to [path ^ ".tmp"] first and are renamed
    over [path], so a crash mid-write never leaves a truncated profile
    behind.
    @raise Impact_support.Ierr.Error when the file cannot be written. *)
val save : ?checksum:string -> string -> Profile.t -> unit

(** [load ?expect_checksum path] reads and parses a profile file.
    Never raises: an unreadable file or malformed content is a typed
    [Error]. *)
val load :
  ?expect_checksum:string ->
  string ->
  (Profile.t, Impact_support.Ierr.t) result

(** [load_exn] is {!load}, raising {!Impact_support.Ierr.Error}. *)
val load_exn : ?expect_checksum:string -> string -> Profile.t
