(** Offline analysis of the JSON-Lines traces written by [Trace].

    [dmx_prof.exe] (and the golden tests) load a [DMX_TRACE_FILE] capture
    and answer the latency questions the raw log cannot: which root span
    dominated, what does each relation's and attachment type's latency
    distribution look like, and which (transaction, lock) pairs conflicted.

    Those tables have no online counterpart; their quantiles are
    {e nearest-rank} over the raw span samples — exact and deterministic,
    unlike the online bucketed [Metrics.quantile]. Statements are not
    aggregated here: {!replay_statements} feeds the [stmt.exec] spans to
    {!Query_store}, whose bucketed quantiles the live views also report. *)

type kind = Span | Event | Truncated

type record = {
  r_ts : float;
  r_kind : kind;
  r_id : int;
  r_parent : int;
  r_txn : int;
  r_name : string;
  r_us : float;  (** 0 for events *)
  r_outcome : string option;
  r_attrs : (string * Obs_json.t) list;
}

val parse_line : string -> (record, string) result

val load_file : string -> record list * string list
(** Records in file order plus per-line parse errors (blank lines are
    skipped). A path that cannot be opened or read yields one error and the
    records read so far; nothing is raised. *)

type node = { n_rec : record; mutable n_kids : node list }

val forest : record list -> node list
(** Spans re-nested by parent id. Roots (parent 0 or unknown — the parent
    span may have been truncated away) and siblings are sorted slowest
    first. *)

val critical_path : record list -> record list
(** From the slowest root span, follow the heaviest child at every level. *)

val top_spans : ?n:int -> record list -> record list

val quantile : float list -> float -> float option
(** Nearest-rank quantile of raw samples; [None] on an empty list. *)

type group_stats = {
  g_key : string;
  g_count : int;
  g_vetoes : int;
  g_p50 : float;
  g_p95 : float;
  g_p99 : float;
}

val per_relation : record list -> group_stats list
(** [relation.*] spans grouped by their [rel] attribute, sorted by key. *)

val per_attachment : record list -> group_stats list
(** [attach.*] spans grouped by their [attachment] attribute. *)

val replay_statements : record list -> unit
(** Fold every [stmt.exec] span into {!Query_store} through
    {!Query_store.exec_of_span} and {!Query_store.record} — the same
    aggregation the live store runs, so the offline statement table is the
    online one. The caller sets the store up (reset, capacity, enabled);
    spans without the store's attributes (older traces) are skipped. *)

type contention = {
  c_waiter : int;
  c_holder : int;
  c_resource : string;
  c_mode : string;
  c_count : int;
}

val lock_contention : record list -> contention list
(** Aggregated from [lock.conflict] events: one row per
    (waiter transaction, holding transaction, resource, mode). *)

type victim = { v_txn : int; v_cycle : int list }

val deadlock_victims : record list -> victim list

val truncated : record list -> bool
(** True when the capture hit the [DMX_TRACE_MAX_MB] cap. *)

val pp_report : ?top:int -> Format.formatter -> record list -> unit
(** The full text report: summary line, critical path, top-N spans,
    per-relation and per-attachment quantile tables, lock contention,
    deadlock victims. *)

val to_json : ?top:int -> record list -> Obs_json.t
(** The same report as one JSON object ([dmx_prof --json]): keys [summary],
    [critical_path], [top_spans], [per_relation], [per_attachment],
    [lock_contention], [deadlock_victims] — stable for CI diffing. *)
