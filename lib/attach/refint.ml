open Dmx_value
open Dmx_core
module Descriptor = Dmx_catalog.Descriptor
module Attrlist = Dmx_catalog.Attrlist
module Catalog = Dmx_catalog.Catalog
module Log_record = Dmx_wal.Log_record
module Expr = Dmx_expr.Expr

let reg_id : int option ref = ref None [@@dmx.global "config-immutable-after-setup"]

let id () =
  match !reg_id with
  | Some id -> id
  | None -> Error.raise_err (Error.Internal "Refint: attachment not registered")

type role = Child | Parent
type policy = Restrict | Cascade

type inst = {
  role : role;
  my_fields : int array;
  other_rel : int;
  other_fields : int array;
  on_delete : policy;
  deferred : bool;
}

let enc_inst e i =
  Codec.Enc.byte e (match i.role with Child -> 0 | Parent -> 1);
  Codec.Enc.list e (fun e f -> Codec.Enc.varint e f) (Array.to_list i.my_fields);
  Codec.Enc.varint e i.other_rel;
  Codec.Enc.list e (fun e f -> Codec.Enc.varint e f)
    (Array.to_list i.other_fields);
  Codec.Enc.byte e (match i.on_delete with Restrict -> 0 | Cascade -> 1);
  Codec.Enc.bool e i.deferred

let dec_inst d =
  let role = match Codec.Dec.byte d with 0 -> Child | _ -> Parent in
  let my_fields = Array.of_list (Codec.Dec.list d Codec.Dec.varint) in
  let other_rel = Codec.Dec.varint d in
  let other_fields = Array.of_list (Codec.Dec.list d Codec.Dec.varint) in
  let on_delete = match Codec.Dec.byte d with 0 -> Restrict | _ -> Cascade in
  let deferred = Codec.Dec.bool d in
  { role; my_fields; other_rel; other_fields; on_delete; deferred }

let insts_of slot = Attach_util.dec_instances dec_inst slot
let slot_of insts = Attach_util.enc_instances enc_inst insts

(* Find records of [rel_id] whose [fields] equal [values]. *)
let find_matching ctx rel_id fields values =
  match Catalog.find_by_id ctx.Ctx.catalog rel_id with
  | None -> []
  | Some desc ->
    let filter =
      Dmx_expr.Analyze.conjoin
        (Array.to_list
           (Array.mapi
              (fun i f -> Expr.Cmp (Eq, Expr.Field f, Expr.Const values.(i)))
              fields))
    in
    let (module M : Intf.STORAGE_METHOD) =
      Registry.storage_method desc.smethod_id
    in
    Scan_help.run_scan_to_list (M.scan ctx desc ?filter ())

let any_null values = Array.exists (fun v -> v = Value.Null) values

let parent_missing ctx inst fk_values =
  find_matching ctx inst.other_rel inst.other_fields fk_values = []

let check_child_now ctx name inst record =
  let fk = Record.project record inst.my_fields in
  if any_null fk then Ok ()
  else if parent_missing ctx inst fk then
    Error
      (Error.veto
         ~attachment:(Fmt.str "referential constraint %S" name)
         (Fmt.str "no parent record with key (%a)"
            Fmt.(array ~sep:(any ",") Value.pp)
            fk))
  else Ok ()

let defer_child_check ctx (desc : Descriptor.t) name inst reckey =
  let (module M : Intf.STORAGE_METHOD) =
    Registry.storage_method desc.smethod_id
  in
  Ctx.defer ctx Dmx_txn.Txn.Before_prepare (fun () ->
      match M.fetch ctx desc reckey () with
      | None -> ()
      | Some record -> begin
        match check_child_now ctx name inst record with
        | Ok () -> ()
        | Error e -> Error.raise_err e
      end)

let ( let* ) = Result.bind

let each_instance slot f =
  let rec loop = function
    | [] -> Ok ()
    | (no, name, inst) :: rest ->
      let* () = f no name inst in
      loop rest
  in
  loop (insts_of slot)

(* Parent-side handling of a parent delete: restrict or cascade to the
   children through the full relation-modification dispatch, so the
   children's own attachments (including further refint parents) run —
   "modifications may cascade in the database" (paper p. 223). *)
let on_parent_delete ctx name inst record =
  let key_vals = Record.project record inst.my_fields in
  if any_null key_vals then Ok ()
  else begin
    let children = find_matching ctx inst.other_rel inst.other_fields key_vals in
    match inst.on_delete with
    | Restrict ->
      if children = [] then Ok ()
      else
        Error
          (Error.veto
             ~attachment:(Fmt.str "referential constraint %S" name)
             (Fmt.str "%d child record(s) reference key (%a)"
                (List.length children)
                Fmt.(array ~sep:(any ",") Value.pp)
                key_vals))
    | Cascade -> begin
      match Catalog.find_by_id ctx.Ctx.catalog inst.other_rel with
      | None -> Ok ()
      | Some child_desc ->
        let rec loop = function
          | [] -> Ok ()
          | (child_key, _) :: rest ->
            let* _old = Relation.delete ctx child_desc child_key in
            loop rest
        in
        loop children
    end
  end

let on_parent_update ctx name inst old_record new_record =
  if Record.compare_on inst.my_fields old_record new_record = 0 then Ok ()
  else begin
    let key_vals = Record.project old_record inst.my_fields in
    if any_null key_vals then Ok ()
    else if find_matching ctx inst.other_rel inst.other_fields key_vals <> []
    then
      Error
        (Error.veto
           ~attachment:(Fmt.str "referential constraint %S" name)
           "cannot modify a referenced parent key")
    else Ok ()
  end

module Impl = struct
  let name = "refint"

  let attr_specs =
    [
      Attrlist.spec ~required:true "fields" Attrlist.A_string;
      Attrlist.spec ~required:true "parent" Attrlist.A_string;
      Attrlist.spec ~required:true "parent_fields" Attrlist.A_string;
      Attrlist.spec "on_delete" Attrlist.A_string;
      Attrlist.spec "deferred" Attrlist.A_bool;
    ]

  (* Called on the child relation; also installs the parent-role instance on
     the parent's descriptor (a logged, undoable catalog change). *)
  let create_instance ctx (child_desc : Descriptor.t) ~instance_name attrs =
    match Attrlist.validate attr_specs attrs with
    | Error e -> Error (Error.Ddl_error e)
    | Ok () -> begin
      let child_insts =
        match Descriptor.attachment_desc child_desc (id ()) with
        | None -> []
        | Some slot -> insts_of slot
      in
      if Attach_util.find_by_name child_insts instance_name <> None then
        Error
          (Error.Ddl_error
             (Fmt.str "constraint %S already exists" instance_name))
      else begin
        match Catalog.find ctx.Ctx.catalog (Option.get (Attrlist.find attrs "parent")) with
        | None ->
          Error
            (Error.No_such_relation (Option.get (Attrlist.find attrs "parent")))
        | Some parent_desc -> begin
          let fk =
            Attach_util.parse_fields child_desc.schema
              (Option.get (Attrlist.find attrs "fields"))
          in
          let pk =
            Attach_util.parse_fields parent_desc.schema
              (Option.get (Attrlist.find attrs "parent_fields"))
          in
          match fk, pk with
          | Error e, _ | _, Error e -> Error (Error.Ddl_error e)
          | Ok fk, Ok pk when Array.length fk <> Array.length pk ->
            Error (Error.Ddl_error "field lists have different lengths")
          | Ok fk, Ok pk ->
            let on_delete =
              match
                Option.map String.lowercase_ascii
                  (Attrlist.find attrs "on_delete")
              with
              | Some "cascade" -> Ok Cascade
              | Some "restrict" | None -> Ok Restrict
              | Some other ->
                Error (Error.Ddl_error (Fmt.str "bad on_delete %S" other))
            in
            begin
              match on_delete with
              | Error e -> Error e
              | Ok on_delete ->
                let deferred =
                  match Attrlist.get_bool attrs "deferred" with
                  | Ok (Some b) -> b
                  | Ok None | Error _ -> false
                in
                let child_inst =
                  {
                    role = Child;
                    my_fields = fk;
                    other_rel = parent_desc.rel_id;
                    other_fields = pk;
                    on_delete;
                    deferred;
                  }
                in
                (* Existing children must have parents. *)
                let orphan = ref None in
                Attach_util.scan_relation ctx child_desc (fun _ record ->
                    if !orphan = None then begin
                      match check_child_now ctx instance_name child_inst record with
                      | Ok () -> ()
                      | Error _ -> orphan := Some record
                    end);
                (match !orphan with
                | Some record ->
                  Error
                    (Error.Constraint_violation
                       (Fmt.str "existing record %a has no parent" Record.pp
                          record))
                | None ->
                  (* Install the parent-role instance (logged catalog op). *)
                  let parent_inst =
                    {
                      role = Parent;
                      my_fields = pk;
                      other_rel = child_desc.rel_id;
                      other_fields = fk;
                      on_delete;
                      deferred = false;
                    }
                  in
                  let parent_slot_old =
                    Descriptor.attachment_desc parent_desc (id ())
                  in
                  let parent_insts =
                    match parent_slot_old with
                    | None -> []
                    | Some slot -> insts_of slot
                  in
                  let pno = Attach_util.next_instance_no parent_insts in
                  let parent_slot_new =
                    Some
                      (slot_of
                         (parent_insts @ [ (pno, instance_name, parent_inst) ]))
                  in
                  ignore
                    (Ctx.log ctx ~source:Log_record.Catalog
                       ~rel_id:parent_desc.rel_id
                       ~data:
                         (Catalog.encode_op
                            (Catalog.Set_attachment
                               {
                                 rel_id = parent_desc.rel_id;
                                 slot = id ();
                                 old_desc = parent_slot_old;
                                 new_desc = parent_slot_new;
                               })));
                  Catalog.set_attachment_slot ctx.Ctx.catalog
                    ~rel_id:parent_desc.rel_id ~slot:(id ()) parent_slot_new;
                  let no = Attach_util.next_instance_no child_insts in
                  Ok
                    (slot_of
                       (child_insts @ [ (no, instance_name, child_inst) ])))
            end
        end
      end
    end

  let drop_instance ctx (desc : Descriptor.t) ~instance_name =
    match Descriptor.attachment_desc desc (id ()) with
    | None -> Error (Error.No_such_attachment instance_name)
    | Some slot -> begin
      let insts = insts_of slot in
      match Attach_util.find_by_name insts instance_name with
      | None -> Error (Error.No_such_attachment instance_name)
      | Some (_, inst) ->
        (* Remove the mirror instance from the other relation too. *)
        (match Catalog.find_by_id ctx.Ctx.catalog inst.other_rel with
        | None -> ()
        | Some other_desc -> begin
          match Descriptor.attachment_desc other_desc (id ()) with
          | None -> ()
          | Some other_slot ->
            let other_insts = insts_of other_slot in
            let remaining =
              Attach_util.remove_by_name other_insts instance_name
            in
            let new_slot =
              if remaining = [] then None else Some (slot_of remaining)
            in
            ignore
              (Ctx.log ctx ~source:Log_record.Catalog
                 ~rel_id:other_desc.rel_id
                 ~data:
                   (Catalog.encode_op
                      (Catalog.Set_attachment
                         {
                           rel_id = other_desc.rel_id;
                           slot = id ();
                           old_desc = Some other_slot;
                           new_desc = new_slot;
                         })));
            Catalog.set_attachment_slot ctx.Ctx.catalog
              ~rel_id:other_desc.rel_id ~slot:(id ()) new_slot
        end);
        let remaining = Attach_util.remove_by_name insts instance_name in
        Ok (if remaining = [] then None else Some (slot_of remaining))
    end

  let on_insert ctx (desc : Descriptor.t) ~slot reckey record =
    each_instance slot (fun _no name inst ->
        match inst.role with
        | Parent -> Ok ()
        | Child ->
          if inst.deferred then begin
            defer_child_check ctx desc name inst reckey;
            Ok ()
          end
          else check_child_now ctx name inst record)

  let on_delete ctx (desc : Descriptor.t) ~slot _reckey record =
    ignore desc;
    each_instance slot (fun _no name inst ->
        match inst.role with
        | Child -> Ok ()
        | Parent -> on_parent_delete ctx name inst record)

  let on_update ctx (desc : Descriptor.t) ~slot ~old_key:_ ~new_key
      ~old_record ~new_record =
    each_instance slot (fun _no name inst ->
        match inst.role with
        | Parent -> on_parent_update ctx name inst old_record new_record
        | Child ->
          if Record.compare_on inst.my_fields old_record new_record = 0 then
            Ok ()
          else if inst.deferred then begin
            defer_child_check ctx desc name inst new_key;
            Ok ()
          end
          else check_child_now ctx name inst new_record)

  let lookup _ctx _desc ~slot:_ ~instance:_ ~key:_ = []
  let scan _ctx _desc ~slot:_ ~instance:_ ?lo:_ ?hi:_ () = None
  let estimate _ctx _desc ~slot:_ ~eligible:_ = []

  let undo _ctx ~rel_id:_ ~data:_ =
    (* Referential actions modify the database only through relation
       operations, which log their own undo; the attachment keeps no state. *)
    ()
end

include Impl

let register () =
  match !reg_id with
  | Some id -> id
  | None ->
    let id = Registry.register_attachment (module Impl : Intf.ATTACHMENT) in
    reg_id := Some id;
    id
