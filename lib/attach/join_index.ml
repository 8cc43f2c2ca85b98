open Dmx_value
open Dmx_core
module Descriptor = Dmx_catalog.Descriptor
module Attrlist = Dmx_catalog.Attrlist
module Catalog = Dmx_catalog.Catalog
module Log_record = Dmx_wal.Log_record
module Btree = Dmx_btree.Btree
module Expr = Dmx_expr.Expr

let reg_id : int option ref = ref None [@@dmx.global "config-immutable-after-setup"]

let id () =
  match !reg_id with
  | Some id -> id
  | None -> Error.raise_err (Error.Internal "Join_index: attachment not registered")

(* [mine_root] is keyed (my key, other key); [theirs_root] the reverse.
   The two instances of one join index share the same physical trees with
   the roots swapped. *)
type inst = {
  my_field : int;
  other_rel : int;
  other_field : int;
  mine_root : int;
  theirs_root : int;
}

let enc_inst e i =
  Codec.Enc.varint e i.my_field;
  Codec.Enc.varint e i.other_rel;
  Codec.Enc.varint e i.other_field;
  Codec.Enc.varint e i.mine_root;
  Codec.Enc.varint e i.theirs_root

let dec_inst d =
  let my_field = Codec.Dec.varint d in
  let other_rel = Codec.Dec.varint d in
  let other_field = Codec.Dec.varint d in
  let mine_root = Codec.Dec.varint d in
  let theirs_root = Codec.Dec.varint d in
  { my_field; other_rel; other_field; mine_root; theirs_root }

let insts_of slot = Attach_util.dec_instances dec_inst slot
let slot_of insts = Attach_util.enc_instances enc_inst insts

let kv = Attach_util.encode_reckey_value
let pair_key a b = [| kv a; kv b |]

let add_pair ctx inst my_key other_key =
  let mine = Btree.open_tree ctx.Ctx.bp ~root:inst.mine_root in
  let theirs = Btree.open_tree ctx.Ctx.bp ~root:inst.theirs_root in
  ignore (Btree.insert mine ~key:(pair_key my_key other_key) ~payload:"");
  ignore (Btree.insert theirs ~key:(pair_key other_key my_key) ~payload:"")

let remove_pair ctx inst my_key other_key =
  let mine = Btree.open_tree ctx.Ctx.bp ~root:inst.mine_root in
  let theirs = Btree.open_tree ctx.Ctx.bp ~root:inst.theirs_root in
  ignore (Btree.delete mine ~key:(pair_key my_key other_key));
  ignore (Btree.delete theirs ~key:(pair_key other_key my_key))

let partners_of ctx inst my_key =
  let mine = Btree.open_tree ctx.Ctx.bp ~root:inst.mine_root in
  let c =
    Btree.cursor ~lo:(Btree.Incl [| kv my_key |]) ~hi:(Btree.Incl [| kv my_key |])
      mine
  in
  let rec loop acc =
    match Btree.next c with
    | None -> List.rev acc
    | Some (key, _) ->
      loop (Attach_util.decode_reckey_value key.(1) :: acc)
  in
  loop []

(* Matching records on the other side, found through its storage method. *)
let other_matches ctx inst value =
  if value = Value.Null then []
  else
    match Catalog.find_by_id ctx.Ctx.catalog inst.other_rel with
    | None -> []
    | Some other_desc ->
      let filter = Expr.Cmp (Eq, Expr.Field inst.other_field, Expr.Const value) in
      let (module M : Intf.STORAGE_METHOD) =
        Registry.storage_method other_desc.smethod_id
      in
      Scan_help.run_scan_to_list (M.scan ctx other_desc ~filter ())

(* ---- log payloads ---- *)

type op =
  | Add of int * Record_key.t * Record_key.t  (* inst, my key, other key *)
  | Rem of int * Record_key.t * Record_key.t

let enc_op op =
  let e = Codec.Enc.create () in
  (match op with
  | Add (no, a, b) ->
    Codec.Enc.byte e 0;
    Codec.Enc.varint e no;
    Record_key.enc e a;
    Record_key.enc e b
  | Rem (no, a, b) ->
    Codec.Enc.byte e 1;
    Codec.Enc.varint e no;
    Record_key.enc e a;
    Record_key.enc e b);
  Codec.Enc.to_string e

let dec_op s =
  let d = Codec.Dec.of_string s in
  let tag = Codec.Dec.byte d in
  let no = Codec.Dec.varint d in
  let a = Record_key.dec d in
  let b = Record_key.dec d in
  match tag with
  | 0 -> Add (no, a, b)
  | 1 -> Rem (no, a, b)
  | n -> failwith (Fmt.str "Join_index: bad op tag %d" n)

let log_op ctx rel_id op =
  Ctx.log ctx ~source:(Log_record.Attachment (id ())) ~rel_id ~data:(enc_op op)

let ( let* ) = Result.bind

let each_instance slot f =
  let rec loop = function
    | [] -> Ok ()
    | (no, name, inst) :: rest ->
      let* () = f no name inst in
      loop rest
  in
  loop (insts_of slot)

let add_partners ctx (desc : Descriptor.t) no inst my_key my_record =
  let matches = other_matches ctx inst my_record.(inst.my_field) in
  List.iter
    (fun (other_key, _) ->
      add_pair ctx inst my_key other_key;
      ignore (log_op ctx desc.rel_id (Add (no, my_key, other_key))))
    matches;
  Ok ()

let remove_partners ctx (desc : Descriptor.t) no inst my_key =
  List.iter
    (fun other_key ->
      remove_pair ctx inst my_key other_key;
      ignore (log_op ctx desc.rel_id (Rem (no, my_key, other_key))))
    (partners_of ctx inst my_key);
  Ok ()

module Impl = struct
  let name = "join_index"

  let attr_specs =
    [
      Attrlist.spec ~required:true "field" Attrlist.A_string;
      Attrlist.spec ~required:true "other" Attrlist.A_string;
      Attrlist.spec ~required:true "other_field" Attrlist.A_string;
    ]

  let create_instance ctx (desc : Descriptor.t) ~instance_name attrs =
    match Attrlist.validate attr_specs attrs with
    | Error e -> Error (Error.Ddl_error e)
    | Ok () -> begin
      let insts =
        match Descriptor.attachment_desc desc (id ()) with
        | None -> []
        | Some slot -> insts_of slot
      in
      if Attach_util.find_by_name insts instance_name <> None then
        Error
          (Error.Ddl_error
             (Fmt.str "join index %S already exists" instance_name))
      else begin
        match Catalog.find ctx.Ctx.catalog (Option.get (Attrlist.find attrs "other")) with
        | None ->
          Error (Error.No_such_relation (Option.get (Attrlist.find attrs "other")))
        | Some other_desc -> begin
          let mine =
            Attach_util.parse_fields desc.schema
              (Option.get (Attrlist.find attrs "field"))
          in
          let theirs =
            Attach_util.parse_fields other_desc.schema
              (Option.get (Attrlist.find attrs "other_field"))
          in
          match mine, theirs with
          | Error e, _ | _, Error e -> Error (Error.Ddl_error e)
          | Ok m, _ when Array.length m <> 1 ->
            Error (Error.Ddl_error "field must name exactly one column")
          | _, Ok t when Array.length t <> 1 ->
            Error (Error.Ddl_error "other_field must name exactly one column")
          | Ok m, Ok t ->
            let my_field = m.(0) and other_field = t.(0) in
            let rs = Btree.create ctx.Ctx.bp in
            let sr = Btree.create ctx.Ctx.bp in
            let inst =
              {
                my_field;
                other_rel = other_desc.rel_id;
                other_field;
                mine_root = Btree.root rs;
                theirs_root = Btree.root sr;
              }
            in
            (* Precompute the join: for each of my records, find partners. *)
            Attach_util.scan_relation ctx desc (fun my_key my_record ->
                List.iter
                  (fun (other_key, _) -> add_pair ctx inst my_key other_key)
                  (other_matches ctx inst my_record.(my_field)));
            (* Install the mirror instance on the other relation. *)
            let mirror =
              {
                my_field = other_field;
                other_rel = desc.rel_id;
                other_field = my_field;
                mine_root = Btree.root sr;
                theirs_root = Btree.root rs;
              }
            in
            let other_slot_old =
              Descriptor.attachment_desc other_desc (id ())
            in
            let other_insts =
              match other_slot_old with
              | None -> []
              | Some slot -> insts_of slot
            in
            let mno = Attach_util.next_instance_no other_insts in
            let other_slot_new =
              Some (slot_of (other_insts @ [ (mno, instance_name, mirror) ]))
            in
            ignore
              (Ctx.log ctx ~source:Log_record.Catalog ~rel_id:other_desc.rel_id
                 ~data:
                   (Catalog.encode_op
                      (Catalog.Set_attachment
                         {
                           rel_id = other_desc.rel_id;
                           slot = id ();
                           old_desc = other_slot_old;
                           new_desc = other_slot_new;
                         })));
            Catalog.set_attachment_slot ctx.Ctx.catalog
              ~rel_id:other_desc.rel_id ~slot:(id ()) other_slot_new;
            let no = Attach_util.next_instance_no insts in
            Ok (slot_of (insts @ [ (no, instance_name, inst) ]))
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
        (match Catalog.find_by_id ctx.Ctx.catalog inst.other_rel with
        | None -> ()
        | Some other_desc -> begin
          match Descriptor.attachment_desc other_desc (id ()) with
          | None -> ()
          | Some other_slot ->
            let remaining =
              Attach_util.remove_by_name (insts_of other_slot) instance_name
            in
            let new_slot =
              if remaining = [] then None else Some (slot_of remaining)
            in
            ignore
              (Ctx.log ctx ~source:Log_record.Catalog ~rel_id:other_desc.rel_id
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

  let on_insert ctx desc ~slot reckey record =
    each_instance slot (fun no _name inst ->
        add_partners ctx desc no inst reckey record)

  let on_delete ctx desc ~slot reckey _record =
    each_instance slot (fun no _name inst ->
        remove_partners ctx desc no inst reckey)

  let on_update ctx desc ~slot ~old_key ~new_key ~old_record ~new_record =
    each_instance slot (fun no _name inst ->
        if
          Value.equal old_record.(inst.my_field) new_record.(inst.my_field)
          && Record_key.equal old_key new_key
        then Ok ()
        else
          let* () = remove_partners ctx desc no inst old_key in
          add_partners ctx desc no inst new_key new_record)

  let lookup ctx desc ~slot ~instance ~key =
    (* Input key: the encoded record key of one of my records (as produced by
       Attach_util.encode_reckey_value); result: partner keys. *)
    ignore desc;
    match Attach_util.find_by_no (insts_of slot) instance with
    | None -> []
    | Some inst -> begin
      match key with
      | [| Value.String s |] ->
        partners_of ctx inst (Record_key.decode (Bytes.of_string s))
      | _ -> []
    end

  let scan ctx desc ~slot ~instance ?lo ?hi () =
    (* Key-sequential access over the pair tree: returns partner record keys
       in (my key, other key) order. *)
    ignore desc;
    ignore lo;
    ignore hi;
    match Attach_util.find_by_no (insts_of slot) instance with
    | None -> None
    | Some inst ->
      let mine = Btree.open_tree ctx.Ctx.bp ~root:inst.mine_root in
      let c = Btree.cursor mine in
      Some
        (Scan_help.key_scan_of
           ~next:(fun () ->
             match Btree.next c with
             | None -> None
             | Some (key, _) -> Some (Attach_util.decode_reckey_value key.(1)))
           ~close:(fun () -> ())
           ~capture:(fun () ->
             let saved = Btree.position c in
             fun () -> Btree.seek c saved)
           ())

  let estimate _ctx _desc ~slot:_ ~eligible:_ = []

  let undo ctx ~rel_id ~data =
    match Catalog.find_by_id ctx.Ctx.catalog rel_id with
    | None -> ()
    | Some desc -> begin
      match Descriptor.attachment_desc desc (id ()) with
      | None -> ()
      | Some slot ->
        let insts = insts_of slot in
        let apply no f =
          match Attach_util.find_by_no insts no with
          | None -> ()
          | Some inst -> f inst
        in
        (match dec_op data with
        | Add (no, a, b) -> apply no (fun inst -> remove_pair ctx inst a b)
        | Rem (no, a, b) -> apply no (fun inst -> add_pair ctx inst a b))
    end
end

include Impl

let with_inst ctx (desc : Descriptor.t) ~name f =
  ignore ctx;
  match Descriptor.attachment_desc desc (id ()) with
  | None -> []
  | Some slot -> begin
    match Attach_util.find_by_name (insts_of slot) name with
    | None -> []
    | Some (_, inst) -> f inst
  end

let pairs ctx desc ~name =
  with_inst ctx desc ~name (fun inst ->
      let mine = Btree.open_tree ctx.Ctx.bp ~root:inst.mine_root in
      let acc = ref [] in
      Btree.iter mine (fun key _ ->
          acc :=
            ( Attach_util.decode_reckey_value key.(0),
              Attach_util.decode_reckey_value key.(1) )
            :: !acc);
      List.rev !acc)

let pairs_for ctx desc ~name my_key =
  with_inst ctx desc ~name (fun inst -> partners_of ctx inst my_key)

let find_instance (desc : Descriptor.t) ~my_field ~other_rel ~other_field =
  match Descriptor.attachment_desc desc (id ()) with
  | None -> None
  | Some slot ->
    List.find_map
      (fun (no, _, inst) ->
        if
          inst.my_field = my_field && inst.other_rel = other_rel
          && inst.other_field = other_field
        then Some no
        else None)
      (insts_of slot)

let with_inst_no ctx (desc : Descriptor.t) ~instance f =
  ignore ctx;
  match Descriptor.attachment_desc desc (id ()) with
  | None -> None
  | Some slot ->
    Option.map f (Attach_util.find_by_no (insts_of slot) instance)

let pairs_of_instance ctx desc ~instance =
  match
    with_inst_no ctx desc ~instance (fun inst ->
        let mine = Btree.open_tree ctx.Ctx.bp ~root:inst.mine_root in
        let acc = ref [] in
        Btree.iter mine (fun key _ ->
            acc :=
              ( Attach_util.decode_reckey_value key.(0),
                Attach_util.decode_reckey_value key.(1) )
              :: !acc);
        List.rev !acc)
  with
  | Some pairs -> pairs
  | None -> []

let pair_count ctx desc ~instance =
  match
    with_inst_no ctx desc ~instance (fun inst ->
        Btree.count (Btree.open_tree ctx.Ctx.bp ~root:inst.mine_root))
  with
  | Some n -> n
  | None -> 0

let register () =
  match !reg_id with
  | Some id -> id
  | None ->
    let id = Registry.register_attachment (module Impl : Intf.ATTACHMENT) in
    reg_id := Some id;
    id
