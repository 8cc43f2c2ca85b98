(** The one span stack, and the one gate every instrumented site reads.

    The paper's defining mechanism — attachments "invoked indirectly, as side
    effects of relation modifications" — is invisible control flow; this
    module makes it visible. Every instrumented site either opens a {e span}
    (a bracketed region with a duration and an outcome) or emits an {e event}
    (an instant point). At close the stack computes the span's duration and
    its self time (duration minus its direct children) once, and hands the
    closed span to every subscribed {!consumer}:

    - the JSON-lines sink ({!set_enabled}, [DMX_TRACE]), one object per line:
    {v
    {"ts":…,"ev":"span","id":7,"parent":6,"txn":3,"name":"attach.insert",
     "us":12.4,"outcome":"veto","attrs":{"attachment":"check",…}}
    v}
    - [Profile], which charges the span to its [(txid, key)] row;
    - [Event_ring], the in-memory recent-events buffer;
    - [Query_store], whose subscription opens [Stmt_obs]'s statement path.

    Parenting follows dynamic nesting: the substrate executes one generic
    -interface operation at a time, so the innermost open span is the parent
    of whatever happens next, and every record also carries its transaction
    id so a consumer can regroup interleaved transactions. Spans close
    children first (as in Chrome trace logs).

    With no consumer subscribed (the default) every entry point is a single
    branch and allocates nothing. *)

(** The attribution key a span is charged under in [Profile]: a
    procedure-vector slot, one of the common services, or — when a site
    gives no key — the span's own name. *)
type key =
  | Smethod of int  (** storage-method vector, slot = registry id *)
  | Attachment of int  (** attachment-type vector, slot = registry id *)
  | Lock  (** lock-table acquire *)
  | Wal  (** log append and flush *)
  | Bp  (** buffer-pool miss fill *)
  | Span of string  (** any other named region *)

type attrs = (string * Obs_json.t) list

type span = private {
  id : int;
  parent : int;  (** 0 for a root *)
  name : string;
  txid : int;
  key : key;
  start : float;  (** wall-clock seconds *)
  instant : bool;  (** an {!event}: no duration, no outcome *)
  attrs : unit -> attrs;  (** forced only by the JSON sink *)
  mutable child_us : float;  (** time spent in direct children *)
  mutable us : float;  (** duration, set at close *)
  mutable self_us : float;  (** [us - child_us], set at close *)
  mutable outcome : string;  (** ["ok"] / ["veto"] / ["error"] / ["exn"] … *)
  mutable exit_attrs : unit -> attrs;
}

type consumer = span -> unit
(** Called with every closed span and every event, in subscription order. *)

val enabled : unit -> bool
(** True iff at least one consumer is subscribed. *)

val set_subscribed : consumer -> bool -> unit
(** Subscribe or unsubscribe [c] (by physical equality). Each consumer's
    own [set_enabled] is this call. *)

val subscribed : consumer -> bool

val subscribe_from_env : string -> consumer -> unit
(** Subscribe when the variable is ["1"], ["true"], ["yes"] or ["on"]. *)

val set_enabled : bool -> unit
(** Subscribes the JSON-lines sink. Turning it on also enables the metrics
    registry; turning it off flushes any buffered file sink. *)

val set_sink : (string -> unit) -> unit
(** Route JSON lines to a custom consumer (tests, the shell). *)

val open_file_sink : string -> unit
(** Route JSON lines to [path] (append mode). The sink buffers writes —
    flushed by {!flush_sink}, on [set_enabled false], and at process exit —
    and honors the [DMX_TRACE_MAX_MB] cap (read when the sink opens): the
    first line that would exceed the budget is replaced with a single
    [{"ev":"truncated",…}] marker and subsequent lines are dropped. The
    default [DMX_TRACE_FILE] sink uses the same machinery. *)

val flush_sink : unit -> unit
(** Flush every open file sink. *)

val truncated : unit -> bool
(** True once any open file sink has hit its [DMX_TRACE_MAX_MB] budget and
    started dropping lines. Exposed (with [Event_ring.dropped]) through the
    ["telemetry_loss"] metrics probe so operators can tell when telemetry
    itself is lossy. *)

val use_default_sink : unit -> unit
(** Back to [DMX_TRACE_FILE] (append) or stderr. *)

val enter : ?key:key -> ?attrs:(unit -> attrs) -> txid:int -> string -> span
(** Open a span. A negative [txid] inherits the enclosing span's (0 at the
    root). Disabled, this returns a preallocated null span and the matching
    {!exit_span} is a no-op; pass only constant keys on paths that must not
    allocate. *)

val exit_span : ?outcome:string -> ?attrs:(unit -> attrs) -> span -> unit
(** Close the span and publish it. [outcome] defaults to ["ok"];
    instrumented dispatch sites use ["veto"], ["error"] and ["exn"].
    [Profile] counts ["veto"] as a veto and any other non-["ok"] outcome as
    an error. *)

val event : ?txid:int -> ?attrs:(unit -> attrs) -> string -> unit
(** Publish an instant record parented on the innermost open span. When
    [txid] is omitted the enclosing span's transaction id is inherited. *)

val with_span :
  ?key:key -> ?attrs:(unit -> attrs) -> ?txid:int -> string ->
  (unit -> 'a) -> 'a
(** Bracket [f] in a span; an escaping exception closes it with outcome
    ["exn"] and re-raises. *)

val txn_root : string
(** ["txn"], the name of the span [Services.with_txn] opens around a whole
    transaction (begin, body, commit or abort). *)

val depth : unit -> int
(** Number of open spans inside the innermost {!txn_root} span (all of them
    outside one) — 0 at every operation boundary of a transaction (the
    sanitizer enforces this, see [Invariant.check_span_balance]). *)

val emitted : unit -> int
(** Total records written to the JSON sink since start (or
    {!reset_for_testing}). *)

val reset_for_testing : unit -> unit
(** Clear the span stack and counters. Tests only. *)
