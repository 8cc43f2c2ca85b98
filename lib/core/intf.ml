open Dmx_value
open Dmx_catalog

type key_bound =
  | Incl of Value.t array
  | Excl of Value.t array
  | Unbounded

type record_scan = {
  rs_next : unit -> (Record_key.t * Record.t) option;
  rs_close : unit -> unit;
  rs_capture : unit -> (unit -> unit);
}

type record_run = (Record_key.t * Record.t) array

type run_scan = {
  rn_next : unit -> record_run option;
  rn_close : unit -> unit;
  rn_capture : unit -> (unit -> unit);
}

type key_scan = {
  ks_next : unit -> Record_key.t option;
  ks_close : unit -> unit;
  ks_capture : unit -> (unit -> unit);
}

type access_candidate = {
  ac_instance : int;
  ac_estimate : Cost.estimate;
  ac_key_fields : int array option;
  ac_spatial_rect : Dmx_expr.Expr.t array option;
}

module type STORAGE_METHOD = sig
  val name : string
  val attr_specs : Attrlist.spec list

  val create :
    Ctx.t -> rel_id:int -> Schema.t -> Attrlist.t -> (string, Error.t) result

  val destroy : Ctx.t -> rel_id:int -> smethod_desc:string -> unit

  val insert :
    Ctx.t -> Descriptor.t -> Record.t -> (Record_key.t, Error.t) result

  val update :
    Ctx.t -> Descriptor.t -> Record_key.t -> Record.t ->
    (Record_key.t, Error.t) result

  val delete :
    Ctx.t -> Descriptor.t -> Record_key.t -> (Record.t, Error.t) result

  val fetch :
    Ctx.t -> Descriptor.t -> Record_key.t -> ?fields:int array -> unit ->
    Record.t option

  val scan :
    Ctx.t -> Descriptor.t -> ?lo:key_bound -> ?hi:key_bound ->
    ?filter:Dmx_expr.Expr.t -> unit -> run_scan

  val key_fields : Descriptor.t -> int array option
  val record_count : Ctx.t -> Descriptor.t -> int

  val estimate_scan :
    Ctx.t -> Descriptor.t -> eligible:Dmx_expr.Expr.t list -> Cost.estimate

  val undo : Ctx.t -> rel_id:int -> data:string -> unit
end

module type ATTACHMENT = sig
  val name : string
  val attr_specs : Attrlist.spec list

  val create_instance :
    Ctx.t -> Descriptor.t -> instance_name:string -> Attrlist.t ->
    (string, Error.t) result

  val drop_instance :
    Ctx.t -> Descriptor.t -> instance_name:string ->
    (string option, Error.t) result

  val on_insert :
    Ctx.t -> Descriptor.t -> slot:string -> Record_key.t -> Record.t ->
    (unit, Error.t) result

  val on_update :
    Ctx.t -> Descriptor.t -> slot:string -> old_key:Record_key.t ->
    new_key:Record_key.t -> old_record:Record.t -> new_record:Record.t ->
    (unit, Error.t) result

  val on_delete :
    Ctx.t -> Descriptor.t -> slot:string -> Record_key.t -> Record.t ->
    (unit, Error.t) result

  val lookup :
    Ctx.t -> Descriptor.t -> slot:string -> instance:int ->
    key:Value.t array -> Record_key.t list

  val scan :
    Ctx.t -> Descriptor.t -> slot:string -> instance:int -> ?lo:key_bound ->
    ?hi:key_bound -> unit -> key_scan option

  val estimate :
    Ctx.t -> Descriptor.t -> slot:string -> eligible:Dmx_expr.Expr.t list ->
    access_candidate list

  val undo : Ctx.t -> rel_id:int -> data:string -> unit
end
