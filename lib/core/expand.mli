(** Physical inline expansion (§2.4, §3.5).

    Expansion walks the linear sequence; by the time a caller is
    processed every selected callee that precedes it is final, so each
    arc needs exactly one physical expansion — the paper's argument for
    the linear constraint ("among several sequences which offer
    comparable benefits, it is critical that the shortest sequence be
    used").

    Splicing one call site:
    - the callee body is duplicated with registers, labels and frame
      offsets renamed into the caller's namespaces (the symbol-table
      update of the paper);
    - fresh temporaries receive the actual parameters ("new local
      temporary variables may be introduced to buffer the results of the
      actual parameters");
    - the call becomes an unconditional jump to the inlined entry and
      every [ret] becomes a move plus a jump to the continuation — the
      paper's "inlined call/return instructions were replaced with
      unconditional jump instructions into/out of the inlined function
      bodies", which is why control-transfer counts rise slightly while
      call counts fall;
    - duplicated call sites receive fresh site ids, so arc identities
      stay unique program-wide. *)

type report = {
  expansions : (Impact_il.Il.site_id * Impact_il.Il.fid * Impact_il.Il.fid) list;
      (** (site, caller, callee) actually expanded, in execution order *)
  copied_sites :
    (Impact_il.Il.site_id * Impact_il.Il.site_id * Impact_il.Il.site_id) list;
      (** (fresh site, site it was duplicated from, expanded call site
          whose splice created it) — the provenance {!Weights} needs to
          keep arc weights accurate after expansion *)
}

(** [expand_site prog ~caller ~site] splices the callee of call site
    [site] into [caller], streaming the body through a growable buffer
    exactly once.  Returns the fresh-site mapping for the copied body as
    (fresh, original) pairs.
    @raise Invalid_argument if the site is absent or not a direct call. *)
val expand_site :
  Impact_il.Il.program ->
  caller:Impact_il.Il.func ->
  site:Impact_il.Il.site_id ->
  (Impact_il.Il.site_id * Impact_il.Il.site_id) list

(** [expand_all ?obs prog linear selection] performs every selected
    expansion in linear-sequence order with the {e indexed} engine: the
    decisions are indexed per caller up front and each caller body is
    rewritten in a single left-to-right pass that splices every selected
    site as it streams by — O(final body size) per caller, however many
    sites it absorbs.  Produces a program and report byte-identical to
    the original rescan engine, which re-located the next selected site
    and rebuilt the caller after every expansion (the test suite keeps
    that engine as an oracle and enforces the equivalence by a property
    test).  With an enabled [obs] context each physical splice emits one
    ["expand"] event and bumps the [expand.expansions] /
    [expand.copied_sites] counters.

    [?on_caller_error] is the graceful-degradation hook: when given, a
    caller whose rewrite raises is rolled back (namespace counters
    restored, no body installed, its entries dropped from the report)
    and [on_caller_error fid exn] is called instead of propagating — the
    rest of the plan still runs.  Without it (default) the exception
    propagates unchanged. *)
val expand_all :
  ?obs:Impact_obs.Obs.t ->
  ?on_caller_error:(Impact_il.Il.fid -> exn -> unit) ->
  Impact_il.Il.program -> Linearize.t -> Select.t -> report
