(** Statement-level observation glue.

    {!observed} brackets one statement execution: fingerprints the literal
    text ({!Fingerprint}), opens a [stmt.exec] trace span, snapshots the
    engine's own accounting ([Io_stats], lock conflicts/waits, WAL bytes,
    attachment vetoes) before the body runs, diffs it after, and builds one
    {!Dmx_obs.Query_store.exec} record from the totals: folded into the
    store when it is enabled, and attached to the [stmt.exec] span
    ({!Dmx_obs.Query_store.exec_attrs}) so an offline replay folds the
    same record. It emits the [plan.changed] event
    when the store detects a fingerprint's plan hash flipping, and the
    [stmt.slow] event (literal text, plan hash, bound stats) when the
    execution crosses [Event_ring.slow_us]. Inactive — no [Trace] consumer
    subscribed, the query store included — the wrapper is one branch on
    [Trace.enabled ()] and allocates nothing. *)

val observed :
  Dmx_core.Ctx.t ->
  text:string ->
  rows:('a -> int) ->
  (set_plan:(int64 -> unit) -> ('a, 'e) result) ->
  ('a, 'e) result
(** Bracket a statement body. [rows] projects the row count out of a
    success; the body may call [set_plan] once the translated plan's hash
    is known ([Plan_cache] does, the shell's DML arms ignore it).
    Exceptions record as errors and re-raise. *)
