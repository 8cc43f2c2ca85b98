open Dmx_value
open Dmx_core
module Descriptor = Dmx_catalog.Descriptor
module Attrlist = Dmx_catalog.Attrlist
module Catalog = Dmx_catalog.Catalog
module Log_record = Dmx_wal.Log_record
module Btree = Dmx_btree.Btree

let reg_id : int option ref = ref None [@@dmx.global "config-immutable-after-setup"]

let id () =
  match !reg_id with
  | Some id -> id
  | None -> Error.raise_err (Error.Internal "Btree_org: storage method not registered")

(* ---- descriptor ---- *)

type bdesc = { root : int; key_fields : int array; count : int }

let enc_desc d =
  let e = Codec.Enc.create () in
  Codec.Enc.varint e d.root;
  Codec.Enc.list e (fun e f -> Codec.Enc.varint e f) (Array.to_list d.key_fields);
  Codec.Enc.varint e d.count;
  Codec.Enc.to_string e

let dec_desc s =
  let d = Codec.Dec.of_string s in
  let root = Codec.Dec.varint d in
  let key_fields = Array.of_list (Codec.Dec.list d Codec.Dec.varint) in
  let count = Codec.Dec.varint d in
  { root; key_fields; count }

let bdesc_of (desc : Descriptor.t) = dec_desc desc.smethod_desc

let store_desc ctx (desc : Descriptor.t) bd =
  Catalog.set_smethod_desc ctx.Ctx.catalog ~rel_id:desc.rel_id (enc_desc bd)

let tree_of ctx bd = Btree.open_tree ctx.Ctx.bp ~root:bd.root

let key_of bd record = Record.project record bd.key_fields

(* ---- log payloads ---- *)

type op =
  | Ins of Record.t
  | Del of Record.t
  | Upd of Record.t * Record.t  (* old, new *)

let enc_op op =
  let e = Codec.Enc.create () in
  (match op with
  | Ins r ->
    Codec.Enc.byte e 0;
    Codec.Enc.record e r
  | Del r ->
    Codec.Enc.byte e 1;
    Codec.Enc.record e r
  | Upd (o, n) ->
    Codec.Enc.byte e 2;
    Codec.Enc.record e o;
    Codec.Enc.record e n);
  Codec.Enc.to_string e

let dec_op s =
  let d = Codec.Dec.of_string s in
  match Codec.Dec.byte d with
  | 0 -> Ins (Codec.Dec.record d)
  | 1 -> Del (Codec.Dec.record d)
  | 2 ->
    let o = Codec.Dec.record d in
    let n = Codec.Dec.record d in
    Upd (o, n)
  | n -> failwith (Fmt.str "Btree_org: bad op tag %d" n)

let log_op ctx rel_id op =
  Ctx.log ctx ~source:(Log_record.Smethod (id ())) ~rel_id ~data:(enc_op op)

let payload_of record = Bytes.to_string (Codec.encode_record record)
let record_of payload = Codec.decode_record (Bytes.of_string payload)

let bound_of = function
  | Intf.Incl k -> Some (Btree.Incl k)
  | Intf.Excl k -> Some (Btree.Excl k)
  | Intf.Unbounded -> None

module Impl = struct
  let name = "btree"

  let attr_specs = [ Attrlist.spec ~required:true "key" Attrlist.A_string ]

  let parse_key_fields schema spec =
    let names = String.split_on_char ',' spec |> List.map String.trim in
    let rec loop acc = function
      | [] -> Ok (Array.of_list (List.rev acc))
      | n :: rest -> begin
        match Schema.field_index schema n with
        | Some i ->
          if List.mem i acc then Error (Fmt.str "duplicate key field %S" n)
          else loop (i :: acc) rest
        | None -> Error (Fmt.str "unknown key field %S" n)
      end
    in
    if names = [] || names = [ "" ] then Error "empty key specification"
    else loop [] names

  let create ctx ~rel_id schema attrs =
    ignore rel_id;
    match Attrlist.validate attr_specs attrs with
    | Error e -> Error (Error.Ddl_error e)
    | Ok () -> begin
      match parse_key_fields schema (Option.get (Attrlist.find attrs "key")) with
      | Error e -> Error (Error.Ddl_error e)
      | Ok key_fields ->
        (* Key fields must be NOT NULL to give every record a total key. *)
        let nullable =
          Array.to_list key_fields
          |> List.filter (fun i -> (Schema.col schema i).Schema.nullable)
        in
        if nullable <> [] then
          Error
            (Error.Ddl_error
               (Fmt.str "key field %S must be declared NOT NULL"
                  (Schema.field_name schema (List.hd nullable))))
        else begin
          let tree = Btree.create ctx.Ctx.bp in
          Ok (enc_desc { root = Btree.root tree; key_fields; count = 0 })
        end
    end

  let destroy ctx ~rel_id ~smethod_desc =
    ignore ctx;
    ignore rel_id;
    ignore smethod_desc

  let insert ctx (desc : Descriptor.t) record =
    let bd = bdesc_of desc in
    let key = key_of bd record in
    match Btree.insert (tree_of ctx bd) ~key ~payload:(payload_of record) with
    | `Duplicate ->
      Error
        (Error.Duplicate_key
           (Fmt.str "%a" Fmt.(array ~sep:(any ",") Value.pp) key))
    | `Ok ->
      ignore (log_op ctx desc.rel_id (Ins record));
      store_desc ctx desc { bd with count = bd.count + 1 };
      Ok (Record_key.fields key)

  let fields_key = function
    | Record_key.Fields k -> Some k
    | Record_key.Rid _ -> None

  let fetch ctx (desc : Descriptor.t) key ?fields () =
    let bd = bdesc_of desc in
    match fields_key key with
    | None -> None
    | Some k -> begin
      match Btree.find (tree_of ctx bd) ~key:k with
      | None -> None
      | Some payload ->
        let record = record_of payload in
        Some
          (match fields with
          | None -> record
          | Some fs -> Record.project record fs)
    end

  let delete ctx (desc : Descriptor.t) key =
    let bd = bdesc_of desc in
    match fields_key key with
    | None -> Error (Error.Key_not_found (Record_key.to_string key))
    | Some k -> begin
      let tree = tree_of ctx bd in
      match Btree.find tree ~key:k with
      | None -> Error (Error.Key_not_found (Record_key.to_string key))
      | Some payload ->
        let record = record_of payload in
        ignore (Btree.delete tree ~key:k);
        ignore (log_op ctx desc.rel_id (Del record));
        store_desc ctx desc { bd with count = max 0 (bd.count - 1) };
        Ok record
    end

  let update ctx (desc : Descriptor.t) key new_record =
    let bd = bdesc_of desc in
    match fields_key key with
    | None -> Error (Error.Key_not_found (Record_key.to_string key))
    | Some k -> begin
      let tree = tree_of ctx bd in
      match Btree.find tree ~key:k with
      | None -> Error (Error.Key_not_found (Record_key.to_string key))
      | Some payload ->
        let old_record = record_of payload in
        let new_key = key_of bd new_record in
        if Record.compare_on bd.key_fields old_record new_record = 0 then begin
          (* Key unchanged: replace payload in place. *)
          ignore (Btree.replace tree ~key:k ~payload:(payload_of new_record));
          ignore (log_op ctx desc.rel_id (Upd (old_record, new_record)));
          Ok (Record_key.fields new_key)
        end
        else begin
          (* Key fields modified: the record moves and its key changes. *)
          match Btree.insert tree ~key:new_key ~payload:(payload_of new_record) with
          | `Duplicate ->
            Error
              (Error.Duplicate_key
                 (Fmt.str "%a" Fmt.(array ~sep:(any ",") Value.pp) new_key))
          | `Ok ->
            ignore (Btree.delete tree ~key:k);
            ignore (log_op ctx desc.rel_id (Upd (old_record, new_record)));
            Ok (Record_key.fields new_key)
        end
    end

  let key_fields desc = Some (bdesc_of desc).key_fields

  let record_count ctx (desc : Descriptor.t) =
    ignore ctx;
    (bdesc_of desc).count

  (* One run per leaf via [Btree.next_run], with the following leaf's page
     prefetched into the clock pool before the run is handed out — by the
     time the consumer drains the run, the next key-sequential step hits in
     cache. Positions are captured between runs (the cursor is on the last
     key of the leaf it read), so savepoint restore re-enters exactly after
     it. *)
  let scan ctx (desc : Descriptor.t) ?(lo = Intf.Unbounded)
      ?(hi = Intf.Unbounded) ?filter () =
    let bd = bdesc_of desc in
    let cursor =
      Btree.cursor ?lo:(bound_of lo) ?hi:(bound_of hi) (tree_of ctx bd)
    in
    let next_run () =
      match Btree.next_run cursor with
      | None -> None
      | Some (entries, next_leaf) ->
        if next_leaf <> 0 then
          Dmx_page.Buffer_pool.prefetch ~txid:ctx.Ctx.txn.Dmx_txn.Txn.id
            ctx.Ctx.bp next_leaf;
        Some
          (Array.map
             (fun (key, payload) ->
               (Record_key.fields key, record_of payload))
             entries)
    in
    Scan_help.filtered_batch ?filter ~schema:desc.Descriptor.schema ~next_run
      ~close:(fun () -> ())
      ~capture:(fun () ->
        let saved = Btree.position cursor in
        fun () -> Btree.seek cursor saved)
      ()

  let estimate_scan ctx (desc : Descriptor.t) ~eligible =
    let bd = bdesc_of desc in
    let rows = float_of_int bd.count in
    let height = float_of_int (Btree.height (tree_of ctx bd)) in
    let pred = Dmx_expr.Analyze.conjoin eligible in
    let m =
      match pred with
      | None ->
        {
          Dmx_expr.Analyze.eq_prefix = 0;
          range_on_next = [];
          matched = [];
          residual = [];
        }
      | Some p -> Dmx_expr.Analyze.match_key ~key_fields:bd.key_fields p
    in
    let key_sel =
      if m.eq_prefix > 0 then 0.05 ** float_of_int m.eq_prefix
      else if m.range_on_next <> [] then 0.3
      else 1.0
    in
    let scanned = Float.max 1. (rows *. key_sel) in
    let leaf_pages = Float.max 1. (scanned /. 32.) in
    let residual_sel =
      List.fold_left
        (fun acc p -> acc *. Dmx_expr.Analyze.selectivity p)
        1.0 m.residual
    in
    let io =
      if m.eq_prefix > 0 || m.range_on_next <> [] then height +. leaf_pages
      else Float.max 1. (rows /. 32.)
    in
    {
      Cost.cost = Cost.make ~io ~cpu:(scanned *. 2.);
      est_rows = scanned *. residual_sel;
      matched = eligible;  (* residual conjuncts are filtered in the scan *)
      residual = [];
      ordered_by = Some bd.key_fields;
    }

  (* ---- undo ---- *)

  let undo ctx ~rel_id ~data =
    (* The descriptor may already be gone (dropped relation): nothing to do. *)
    match Catalog.find_by_id ctx.Ctx.catalog rel_id with
    | None -> ()
    | Some desc when
        Dmx_page.Buffer_pool.page_live ctx.Ctx.bp (bdesc_of desc).root -> begin
      let bd = bdesc_of desc in
      let tree = tree_of ctx bd in
      match dec_op data with
      | Ins record -> begin
        let key = key_of bd record in
        match Btree.find tree ~key with
        | Some payload when Record.equal (record_of payload) record ->
          ignore (Btree.delete tree ~key)
        | Some _ | None -> ()
      end
      | Del record ->
        let key = key_of bd record in
        if Btree.find tree ~key = None then
          ignore (Btree.insert tree ~key ~payload:(payload_of record))
      | Upd (old_record, new_record) ->
        let old_key = key_of bd old_record in
        let new_key = key_of bd new_record in
        (match Btree.find tree ~key:new_key with
        | Some payload when Record.equal (record_of payload) new_record ->
          if Record.compare_on bd.key_fields old_record new_record = 0 then
            ignore
              (Btree.replace tree ~key:old_key ~payload:(payload_of old_record))
          else begin
            ignore (Btree.delete tree ~key:new_key);
            ignore
              (Btree.insert tree ~key:old_key ~payload:(payload_of old_record))
          end
        | Some _ | None ->
          (* New image absent: ensure the old image is back. *)
          if Btree.find tree ~key:old_key = None then
            ignore
              (Btree.insert tree ~key:old_key ~payload:(payload_of old_record)))
    end
    | Some _ -> () (* tree born after the last force: lost with the crash *)
end

include Impl

let tree ctx desc = tree_of ctx (bdesc_of desc)

let register () =
  match !reg_id with
  | Some id -> id
  | None ->
    let id =
      Registry.register_storage_method (module Impl : Intf.STORAGE_METHOD)
    in
    reg_id := Some id;
    id
