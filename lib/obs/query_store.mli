(** The query store: bounded per-fingerprint cumulative statement
    statistics with plan-change detection.

    Fingerprints are computed by the query layer (this library cannot see
    the parser) and arrive as opaque 64-bit keys; all executions of one
    statement shape share an entry. Each entry accumulates calls, errors,
    rows, a private latency histogram ({!Metrics.unregistered_histogram} —
    per-entry distributions stay out of [dmx_metrics]), buffer-pool and WAL
    deltas, lock pressure, attachment vetoes, and the last few plan hashes
    with first-seen/last-seen stamps.

    Disabled (the default), {!record} is one branch and the caller is
    expected to gate [exec] construction on {!Trace.enabled} — the same
    zero-allocation discipline as [Metrics]/[Trace]. The [exec] record is
    also the [stmt.exec] span's attribute set ({!exec_attrs}), and
    [dmx_prof] folds a trace's spans back through {!record}
    ({!exec_of_span}), so online and offline statistics are one
    aggregation. Enabling subscribes
    the store to {!Trace}, which opens the shared gate [Stmt_obs] reads.
    Enabled by [DMX_QUERYSTORE=1] (capacity [DMX_QUERYSTORE_MAX], default
    128) or {!set_enabled}. At capacity the least-recently-touched entry is evicted
    and counted; the O(capacity) victim scan runs once per {e new}
    fingerprint, never per execution. *)

val enabled : unit -> bool

val set_enabled : bool -> unit
(** Enabling also enables [Metrics] (the store's histograms observe through
    the metrics gate — statement stats without counters would be blind). *)

val set_capacity : int -> unit
(** Ignored unless positive. Existing entries are not trimmed until the
    next insertion, which evicts least-recently-touched entries until the
    store is below the new capacity. *)

val current_capacity : unit -> int

type plan_use = {
  pu_hash : int64;
  pu_first_seen : float;
  mutable pu_last_seen : float;
}

type entry = {
  e_fp : int64;
  e_text : string;  (** normalized statement text *)
  mutable e_sample : string;  (** last literal text observed *)
  mutable e_calls : int;
  mutable e_errors : int;
  mutable e_rows : int;
  e_latency : Metrics.histogram;
  mutable e_pool_hits : int;
  mutable e_pool_misses : int;
  mutable e_page_reads : int;
  mutable e_wal_bytes : int;
  mutable e_lock_conflicts : int;
  mutable e_lock_waits : int;
  mutable e_vetoes : int;
  e_first_seen : float;
  mutable e_last_seen : float;
  mutable e_plans : plan_use list;  (** newest first, capped at 4 *)
  mutable e_touch : int;
}

type exec = {
  x_fp : int64;
  x_text : string;
  x_sample : string;
  x_ts : float;
      (** start of the [stmt.exec] span (Unix time); stamps first/last
          seen *)
  x_us : float;  (** [us_of_ns] of the measured latency *)
  x_rows : int;
  x_error : bool;
  x_pool_hits : int;
  x_pool_misses : int;
  x_page_reads : int;
  x_wal_bytes : int;
  x_lock_conflicts : int;
  x_lock_waits : int;
  x_vetoes : int;
  x_plan : int64 option;
}

type plan_note =
  | Plan_off
  | Plan_none
  | Plan_first
  | Plan_same
  | Plan_changed of int64
      (** previous hash — the caller, which can see the statement's
          context, emits the [plan.changed] event naming both *)

val record : exec -> plan_note
(** Fold one execution into the store. Constant [Plan_off] (no allocation)
    while disabled. *)

val hex : int64 -> string
(** The 16-digit lowercase hex form of a fingerprint or plan hash, as
    traced, viewed and printed. *)

val us_of_ns : int -> float
(** Latency is measured and traced in integer nanoseconds; this is the one
    conversion to the store's microseconds, so a live observation and its
    replay from a trace are bit-identical. *)

val exec_attrs : exec -> Trace.attrs
(** The [stmt.exec] span's attributes: [fp] (16-digit hex), [text],
    [lat_ns], [plan] (hex, or [""]), and the integer totals [rows],
    [pool_hits], [pool_misses], [page_reads], [wal_bytes],
    [lock_conflicts], [lock_waits], [vetoes]. The literal sample text is
    not traced. *)

val exec_of_span :
  ts:float -> outcome:string option -> Trace.attrs -> exec option
(** Inverse of {!exec_attrs} for a traced span starting at [ts]: [x_error]
    is [outcome <> Some "ok"] and [x_sample] is the normalized text. [None]
    when [fp] or [lat_ns] is missing (traces from before the store owned
    the span's attributes). *)

val entries : unit -> entry list
(** Live entries sorted by fingerprint. The records are the store's own
    (not copies): treat as read-only snapshots for views/shell output. *)

type order = [ `Calls | `Time | `Io ]
(** Statement-table sort keys, heaviest first: call count, total latency,
    or logical I/O (pool hits + misses + page reads). Ties go to the lower
    fingerprint (unsigned, as printed). *)

val pp_statements : ?top:int -> order -> Format.formatter -> unit -> unit
(** The statement table ([show statements], [dmx_prof]): one row per
    entry, the first [top] only when given, then a count/eviction
    footer. *)

val statements_json : ?top:int -> order -> Obs_json.t
(** The same rows as a list of objects keyed by the table's column names:
    [fingerprint], [calls], [errors], [rows], [total_us], [p50_us],
    [p95_us], [io], [wal_bytes], [lock_waits], [vetoes], [plans] (the plan
    history as hex strings, newest first), [statement]. *)

val size : unit -> int
val evicted : unit -> int
val recorded : unit -> int

val reset : unit -> unit
(** Drop all entries and zero the eviction/recorded totals. *)

val probe : unit -> (string * int) list
(** Aggregate health — [stmt.fingerprints]/[stmt.recorded]/[stmt.evicted];
    registered as the ["query_store"] metrics probe at load time. *)
