(** Direct generic operations on relations — the two-step modification
    dispatch.

    "The execution of relation modification operations proceeds in two steps.
    The first step, using the storage method identifier from the relation
    descriptor, calls the appropriate storage method modification routine via
    the storage method operation vectors. After completing the storage method
    operation, the extensions attached to the relation are invoked via the
    attached procedures vectors" (paper p. 225).

    Attachment types are invoked in ascending type id, once each, servicing
    all of their instances. Any attachment (or the storage method itself) can
    abort the operation; the common system then uses the log to undo the
    partial effects — implemented here as an internal savepoint per operation
    plus partial rollback on veto. Attached procedures may themselves call
    back into this module (cascading modifications); savepoint names are
    nesting-safe. *)

open Dmx_value
open Dmx_catalog

val insert :
  Ctx.t -> Descriptor.t -> Record.t -> (Record_key.t, Error.t) result

val insert_many :
  Ctx.t -> Descriptor.t -> Record.t array ->
  (Record_key.t array, Error.t) result
(** Bulk insert through the same two-step dispatch, with per-batch instead of
    per-record overhead: one validation pass, one relation lock, one internal
    savepoint, one span/profile bracket, then the storage method and each
    attachment type once per batch via the optional batch vector entries
    (default: loop the per-record slot). Atomic — on the first error or veto
    the whole batch is rolled back and nothing is inserted. Note the deferred
    visibility inside a batch: attachments observe the batch after all its
    records reached storage, so e.g. a referential-integrity parent and its
    child may arrive in the same batch in either order. *)

val update :
  Ctx.t -> Descriptor.t -> Record_key.t -> Record.t ->
  (Record_key.t, Error.t) result

val delete : Ctx.t -> Descriptor.t -> Record_key.t -> (Record.t, Error.t) result

val fetch :
  Ctx.t -> Descriptor.t -> Record_key.t -> ?fields:int array -> unit ->
  (Record.t option, Error.t) result
(** Direct-by-key access through the storage method (access path 0). *)

val scan_batch :
  Ctx.t -> Descriptor.t -> ?lo:Intf.key_bound -> ?hi:Intf.key_bound ->
  ?filter:Dmx_expr.Expr.t -> unit -> (Intf.run_scan, Error.t) result
(** Key-sequential access through the storage method, a run at a time. The
    returned scan is registered with the transaction: closed at
    termination, position captured at savepoints, restored after partial
    rollback. *)

val scan :
  Ctx.t -> Descriptor.t -> ?lo:Intf.key_bound -> ?hi:Intf.key_bound ->
  ?filter:Dmx_expr.Expr.t -> unit -> (Intf.record_scan, Error.t) result
(** The same scan as {!scan_batch}, seen a record at a time through
    {!Scan_help.records}. The view, not the runs under it, is what the
    transaction registers, so a savepoint restores to the exact record. *)

val lookup :
  Ctx.t -> Descriptor.t -> attachment_id:int -> instance:int ->
  key:Value.t array -> (Record_key.t list, Error.t) result
(** Direct-by-key access via an access-path attachment: input key to record
    keys. *)

val attachment_scan :
  Ctx.t -> Descriptor.t -> attachment_id:int -> instance:int ->
  ?lo:Intf.key_bound -> ?hi:Intf.key_bound -> unit ->
  (Intf.key_scan, Error.t) result

val record_count : Ctx.t -> Descriptor.t -> (int, Error.t) result

val dispatch_stats : unit -> int * int
(** (storage-method calls, attached-procedure calls) since start — lets
    benches show the tuple-at-a-time call volume the paper worries about. *)
