(** Fixed-size in-memory engine event ring.

    The ring keeps the last [capacity] span closes and instant events emitted
    through {!Trace} so the engine can answer "what just happened" without a
    trace file: the [dmx_events] system view snapshots it, and the shell can
    watch it live. Storage is a preallocated circular buffer — once full, the
    oldest entry is overwritten (see {!dropped} for how many were lost).

    The ring is a {!Trace} consumer: enabling it ([DMX_EVENTS=1] or
    {!set_enabled}) subscribes it, which opens the shared [Trace.enabled]
    gate so the existing emission points fire. Unsubscribed (the default)
    it costs nothing; nothing here takes a lock ("lock-free when off").
    Entries whose duration reaches the slow-operation threshold
    ([DMX_SLOW_US], default 10000) are tagged slow. *)

type kind = Span | Event

type entry = {
  e_seq : int;  (** monotonically increasing record number, from 1 *)
  e_ts : float;  (** wall-clock seconds at record time *)
  e_kind : kind;
  e_name : string;
  e_txid : int;
  e_us : float;  (** span duration; 0 for instant events *)
  e_outcome : string;  (** ["ok"] / ["veto"] / ["error"] / ["exn"]; [""] for events *)
  e_slow : bool;  (** [e_us >= slow threshold] *)
}

val enabled : unit -> bool
val set_enabled : bool -> unit

val capacity : unit -> int
(** Ring size in entries; [DMX_EVENT_RING] (default 512). *)

val set_capacity : int -> unit
(** Resize the ring; clears all entries. Values below 1 are clamped to 1. *)

val slow_us : unit -> float
val set_slow_us : float -> unit
(** Threshold in microseconds; spans at least this long are tagged slow.
    [0.] disables tagging. *)

val record :
  kind:kind -> name:string -> txid:int -> us:float -> outcome:string -> unit
(** Append one entry (overwriting the oldest when full). Single branch and
    no allocation when disabled. *)

val snapshot : unit -> entry list
(** Current contents, oldest first. Allocates a fresh list — safe to consume
    while recording continues. *)

val total : unit -> int
(** Entries ever recorded since start (or {!reset}). *)

val dropped : unit -> int
(** Entries lost to overwriting: [total () - length (snapshot ())]. *)

val reset : unit -> unit
(** Clear entries and counters; keeps enabled state, capacity, threshold. *)
