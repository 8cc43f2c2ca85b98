(** Extension registration and procedure vectors.

    "For each direct or indirect generic operation, there is a vector of
    addresses for the procedures that implement the corresponding operation
    ... Storage method and attachment internal identifiers are small integers
    that serve as indexes into the vectors of procedures" (paper p. 224).

    Extensions are bound "at the factory": registration happens at program
    start, before the database opens; {!freeze} is called by the open path and
    later registration raises. Identifiers are assigned in registration order
    and are persisted in catalogs, so a deployment must register its
    extensions in a stable order — the moral equivalent of relinking the DBMS.

    Besides the module handles, the registry materialises per-operation
    procedure vectors ({!Vec}); dispatching a relation modification costs one
    array index per operation. *)

open Dmx_value
open Dmx_catalog

val max_storage_methods : int

val register_storage_method : (module Intf.STORAGE_METHOD) -> int
(** Returns the assigned storage-method id. Raises [Invalid_argument] on
    duplicate names, a full vector, or after {!freeze}. *)

val register_attachment : (module Intf.ATTACHMENT) -> int
(** Attachment type ids also index the relation descriptor's slots, so at most
    {!Descriptor.max_attachment_types} types exist. *)

val set_sm_insert_batch :
  int ->
  (Ctx.t -> Descriptor.t -> Record.t array ->
   (Record_key.t array, Error.t) result) ->
  unit
(** Override the optional bulk-insert entry of a storage method's procedure
    vector. Without an override the entry loops the per-record [sm_insert]
    slot, so registering one is purely an optimization. Raises after
    {!freeze} or for an out-of-range id. *)

val set_at_insert_batch :
  int ->
  (Ctx.t -> Descriptor.t -> slot:string -> (Record_key.t * Record.t) array ->
   (unit, Error.t) result) ->
  unit
(** Same for an attachment type's bulk [on_insert] entry. *)

val freeze : unit -> unit
val is_frozen : unit -> bool
val reset_for_testing : unit -> unit
(** Clears all registrations (unit tests only — never in a live system). *)

val storage_method : int -> (module Intf.STORAGE_METHOD)
val attachment : int -> (module Intf.ATTACHMENT)
val storage_method_id : string -> int option
val attachment_id : string -> int option
val storage_method_name : int -> string
val attachment_name : int -> string
val storage_methods : unit -> (int * string) list
val attachments : unit -> (int * string) list

(** The materialised direct-operation and attached-procedure vectors. Entry
    [id] of each array is the registered implementation's routine; unused
    entries raise. *)
module Vec : sig
  val sm_insert :
    (Ctx.t -> Descriptor.t -> Record.t -> (Record_key.t, Error.t) result) array

  val sm_update :
    (Ctx.t -> Descriptor.t -> Record_key.t -> Record.t ->
     (Record_key.t, Error.t) result)
    array

  val sm_delete :
    (Ctx.t -> Descriptor.t -> Record_key.t -> (Record.t, Error.t) result) array

  val at_on_insert :
    (Ctx.t -> Descriptor.t -> slot:string -> Record_key.t -> Record.t ->
     (unit, Error.t) result)
    array

  val at_on_update :
    (Ctx.t -> Descriptor.t -> slot:string -> old_key:Record_key.t ->
     new_key:Record_key.t -> old_record:Record.t -> new_record:Record.t ->
     (unit, Error.t) result)
    array

  val at_on_delete :
    (Ctx.t -> Descriptor.t -> slot:string -> Record_key.t -> Record.t ->
     (unit, Error.t) result)
    array

  (** Optional bulk entries (see {!set_sm_insert_batch} /
      {!set_at_insert_batch}); the default implementations loop the
      per-record slots above. *)

  val sm_insert_batch :
    (Ctx.t -> Descriptor.t -> Record.t array ->
     (Record_key.t array, Error.t) result)
    array

  val at_on_insert_batch :
    (Ctx.t -> Descriptor.t -> slot:string ->
     (Record_key.t * Record.t) array -> (unit, Error.t) result)
    array
end
