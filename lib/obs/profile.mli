(** Per-transaction latency attribution keyed by (vector, slot id).

    The paper's extension architecture routes every data operation through
    procedure vectors (storage methods) and attachment side-effects; this
    module answers "where did the transaction's wall-clock go?". It is a
    {!Trace} consumer: every closed span is charged to an attribution table
    keyed by transaction id and the span's {!kind}. The span stack supplies
    {e self} time (duration minus direct children), so a storage-method
    span's self time excludes the WAL append it triggered, an attachment
    span's excludes the buffer-pool fill under it, and the self times of one
    transaction add up to its root span's duration.

    Unsubscribed (the default) it costs nothing beyond the shared
    [Trace.enabled] branch. Enable with [DMX_PROFILE=1] or {!set_enabled}. *)

type kind = Trace.key =
  | Smethod of int  (** storage-method vector, slot = registry id *)
  | Attachment of int  (** attachment-type vector, slot = registry id *)
  | Lock  (** lock-table acquire *)
  | Wal  (** log append and flush *)
  | Bp  (** buffer-pool miss fill *)
  | Span of string  (** any other named span *)

val enabled : unit -> bool
val set_enabled : bool -> unit
(** Subscribe or unsubscribe the profiler from {!Trace}. *)

val set_key_namer : (kind -> string option) -> unit
(** Resolve slot ids to names ([Services.setup] installs a namer backed by
    the registry); [None] falls back to ["smethod:#3"]-style labels. *)

type row = {
  r_name : string;
  r_calls : int;
  r_total_us : float;
  r_self_us : float;  (** total minus time spent in direct child spans *)
  r_vetoes : int;
  r_errors : int;
}

val report : unit -> row list
(** All transactions merged, sorted by self time descending. *)

val txn_report : int -> row list
val txids : unit -> int list

val reset : unit -> unit
(** Drop the attribution table. *)

val pp_report : Format.formatter -> unit -> unit
(** The [show profile] rendering: the merged table, then one per
    transaction. *)
