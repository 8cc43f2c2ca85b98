(** The common-services execution context.

    Every generic-interface call receives a [Ctx.t]: the calling transaction
    plus handles to the common services — recovery log, lock manager, buffer
    pool, catalog. Extensions are "embedded in the database management system
    execution environment and ... make use of certain common services" (paper
    p. 223); this record is that environment. *)

open Dmx_wal

type t = {
  txn : Dmx_txn.Txn.t;
  txn_mgr : Dmx_txn.Txn_mgr.t;
  bp : Dmx_page.Buffer_pool.t;  (** shared pool for recoverable page storage *)
  catalog : Dmx_catalog.Catalog.t;
  locks : Dmx_lock.Lock_table.t;
}

val make :
  txn:Dmx_txn.Txn.t -> txn_mgr:Dmx_txn.Txn_mgr.t ->
  bp:Dmx_page.Buffer_pool.t -> catalog:Dmx_catalog.Catalog.t -> t

val log : t -> source:Log_record.source -> rel_id:int -> data:string ->
  Log_record.lsn
(** Common logging service: append an undoable-operation record for this
    transaction. *)

val log_many : t -> source:Log_record.source -> rel_id:int ->
  datas:string list -> Log_record.lsn list
(** Batched {!log}: one append per payload, issued contiguously — the bulk
    modification paths log a whole batch through this entry point. *)

val set_attachment_slot :
  t -> rel_id:int -> slot:int -> old_desc:string option -> string option ->
  unit
(** Common catalog service: replace one attachment slot of a relation's
    descriptor, logging the [Set_attachment] undo record (carrying
    [old_desc]) before the change. DDL and the attachment types that install
    mirror instances on another relation all go through here. *)

val lock :
  t -> mode:Dmx_lock.Lock_mode.t -> Dmx_lock.Lock_table.resource ->
  (unit, Error.t) result
(** Common locking service under the no-wait policy: a conflict is surfaced as
    [Lock_conflict] and the caller aborts (DESIGN.md §3 explains why blocking
    is simulated, not preemptive). *)

val trace_event : t -> ?attrs:(string * Dmx_obs.Obs_json.t) list -> string ->
  unit
(** Common observability service: emit a point event tagged with the calling
    transaction. No-op (one branch) unless [Dmx_obs.Trace.enabled ()]. *)

val with_span : t -> ?attrs:(string * Dmx_obs.Obs_json.t) list -> string ->
  (unit -> ('a, Error.t) result) -> ('a, Error.t) result
(** Common observability service: bracket [f] in a trace span tagged with the
    calling transaction. The outcome is derived from the result — [ok],
    [veto] ({!Error.Veto}), [error] (other [Error.t]), or [exn] (re-raised).
    The span is charged to its own name in the profile. With no trace
    consumer subscribed this is exactly [f ()]. *)

val defer : t -> Dmx_txn.Txn.event -> (unit -> unit) -> unit
(** Deferred-action queue service. *)

val register_scan : t -> Dmx_txn.Txn.scan_reg -> int
val unregister_scan : t -> int -> unit
