(** Shared helpers for attachment implementations.

    A descriptor slot holds *all* instances of one attachment type on a
    relation. The common instance-list service ({!Instances}) owns that
    slot's encoding (each instance: small-integer instance number + name +
    type-specific payload), its DDL bookkeeping and its logged updates, so an
    attachment type supplies only its payload codec ({!PAYLOAD}) and its
    type-specific logic. The scan/key plumbing below is shared by the
    access-path attachments. *)

open Dmx_value
open Dmx_core

type 'a instances = (int * string * 'a) list
(** (instance number, instance name, payload), ascending instance number. *)

(** What an attachment type tells the instance-list service. *)
module type PAYLOAD = sig
  type t
  (** One instance's type-specific payload. *)

  val id : unit -> int
  (** The attachment type's registry id, which is its descriptor slot. *)

  val noun : string
  (** Names an instance in errors: ["index"] gives
      ["index \"pk\" already exists"]. *)

  val enc : Codec.Enc.t -> t -> unit
  val dec : Codec.Dec.t -> t
end

module Instances (P : PAYLOAD) : sig
  val decode : string -> P.t instances
  (** The instance list a slot holds. *)

  val of_desc : Dmx_catalog.Descriptor.t -> P.t instances
  (** The relation's instances of this type ([[]] when its slot is empty). *)

  val each :
    string -> (int -> string -> P.t -> (unit, Error.t) result) ->
    (unit, Error.t) result
  (** [each slot f] decodes [slot] once and runs [f no name inst] over the
      instances in order, stopping at the first [Error] (a veto). *)

  val find_no : slot:string -> int -> P.t option
  val find : Dmx_catalog.Descriptor.t -> name:string -> (int * P.t) option
  (** Instance number and payload by (case-insensitive) name. *)

  val find_desc_no : Dmx_catalog.Descriptor.t -> int -> P.t option
  val names : Dmx_catalog.Descriptor.t -> string list
  val number : Dmx_catalog.Descriptor.t -> name:string -> int option

  val create :
    Dmx_catalog.Descriptor.t -> instance_name:string ->
    Dmx_catalog.Attrlist.spec list -> Dmx_catalog.Attrlist.t ->
    (no:int -> (P.t, Error.t) result) -> (string, Error.t) result
  (** The [create_instance] preamble: validate [attrs] against the specs,
      reject a name already in the slot ([Ddl_error "<noun> %S already
      exists"]), then run [build ~no] with the number the new instance will
      get and append its payload. Returns the new slot. *)

  val drop :
    ?release:(P.t -> unit) -> Dmx_catalog.Descriptor.t ->
    instance_name:string -> (string option, Error.t) result
  (** The [drop_instance] body: [No_such_attachment] for an unknown name,
      else run [release] on the instance's payload and return the slot
      without it ([None] when it was the last). *)

  val for_undo : Ctx.t -> rel_id:int -> int -> P.t option
  (** The [undo] preamble: the relation's current instance by number, if
      the relation and the instance still exist. *)

  val add_mirror :
    Ctx.t -> Dmx_catalog.Descriptor.t -> instance_name:string -> P.t -> unit
  (** Append a mirror instance to another relation's slot (a logged,
      undoable catalog change), for types whose one DDL call installs
      instances on two relations. *)

  val remove_mirror : Ctx.t -> rel_id:int -> instance_name:string -> unit
  (** Remove the mirror instance named [instance_name] from relation
      [rel_id] (logged); nothing when that relation or slot is gone. *)
end

val parse_fields :
  Schema.t -> string -> (int array, string) result
(** Parse a comma-separated field-name list against a schema. *)

val scan_relation :
  Ctx.t -> Dmx_catalog.Descriptor.t ->
  (Record_key.t -> Record.t -> unit) -> unit
(** Iterate every record of a relation through its storage method — used when
    building a new access path from existing records. *)

val encode_reckey_value : Record_key.t -> Value.t
(** Record keys embedded in index entries, as an order-stable string value. *)

val decode_reckey_value : Value.t -> Record_key.t
(** Raises [Error.Internal] on a value {!encode_reckey_value} did not make. *)
