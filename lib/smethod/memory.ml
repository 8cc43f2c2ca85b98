open Dmx_value
open Dmx_core
module Descriptor = Dmx_catalog.Descriptor
module Attrlist = Dmx_catalog.Attrlist
module Log_record = Dmx_wal.Log_record

let reg_id : int option ref = ref None [@@dmx.global "config-immutable-after-setup"]

let id () =
  match !reg_id with
  | Some id -> id
  | None -> Error.raise_err (Error.Internal "Memory: storage method not registered")

(* Per-relation in-process store. The sequence number is the record key
   (represented as a RID with page 0). *)
module Imap = Map.Make (Int)

type store = { mutable records : Record.t Imap.t; mutable next_seq : int }

let stores : (int, store) Hashtbl.t = Hashtbl.create 16 [@@dmx.global "UNSAFE"]

let store_of rel_id =
  match Hashtbl.find_opt stores rel_id with
  | Some s -> s
  | None ->
    let s = { records = Imap.empty; next_seq = 1 } in
    Hashtbl.replace stores rel_id s;
    s

let reset_all () = Hashtbl.reset stores

let seq_of = function
  | Record_key.Rid { page = 0; slot } -> Some slot
  | Record_key.Rid _ | Record_key.Fields _ -> None

let key_of_seq seq = Record_key.rid ~page:0 ~slot:seq

(* ---- log payloads ---- *)

type op =
  | Ins of int * Record.t
  | Del of int * Record.t
  | Upd of int * Record.t * Record.t

let enc_op op =
  let e = Codec.Enc.create () in
  (match op with
  | Ins (seq, r) ->
    Codec.Enc.byte e 0;
    Codec.Enc.varint e seq;
    Codec.Enc.record e r
  | Del (seq, r) ->
    Codec.Enc.byte e 1;
    Codec.Enc.varint e seq;
    Codec.Enc.record e r
  | Upd (seq, o, n) ->
    Codec.Enc.byte e 2;
    Codec.Enc.varint e seq;
    Codec.Enc.record e o;
    Codec.Enc.record e n);
  Codec.Enc.to_string e

let dec_op s =
  let d = Codec.Dec.of_string s in
  match Codec.Dec.byte d with
  | 0 ->
    let seq = Codec.Dec.varint d in
    Ins (seq, Codec.Dec.record d)
  | 1 ->
    let seq = Codec.Dec.varint d in
    Del (seq, Codec.Dec.record d)
  | 2 ->
    let seq = Codec.Dec.varint d in
    let o = Codec.Dec.record d in
    let n = Codec.Dec.record d in
    Upd (seq, o, n)
  | n -> failwith (Fmt.str "Memory: bad op tag %d" n)

let log_op ctx rel_id op =
  Ctx.log ctx ~source:(Log_record.Smethod (id ())) ~rel_id ~data:(enc_op op)

module Impl = struct
  let name = "memory"
  let attr_specs = []

  let create ctx ~rel_id _schema attrs =
    ignore ctx;
    match Attrlist.validate attr_specs attrs with
    | Error e -> Error (Error.Ddl_error e)
    | Ok () ->
      ignore (store_of rel_id);
      Ok ""

  let destroy ctx ~rel_id ~smethod_desc =
    ignore ctx;
    ignore smethod_desc;
    Hashtbl.remove stores rel_id

  let insert ctx (desc : Descriptor.t) record =
    let s = store_of desc.rel_id in
    let seq = s.next_seq in
    s.next_seq <- seq + 1;
    s.records <- Imap.add seq record s.records;
    ignore (log_op ctx desc.rel_id (Ins (seq, record)));
    Ok (key_of_seq seq)

  let fetch ctx (desc : Descriptor.t) key ?fields () =
    ignore ctx;
    match seq_of key with
    | None -> None
    | Some seq -> begin
      match Imap.find_opt seq (store_of desc.rel_id).records with
      | None -> None
      | Some record ->
        Some
          (match fields with
          | None -> record
          | Some fs -> Record.project record fs)
    end

  let delete ctx (desc : Descriptor.t) key =
    let s = store_of desc.rel_id in
    match seq_of key with
    | None -> Error (Error.Key_not_found (Record_key.to_string key))
    | Some seq -> begin
      match Imap.find_opt seq s.records with
      | None -> Error (Error.Key_not_found (Record_key.to_string key))
      | Some record ->
        s.records <- Imap.remove seq s.records;
        ignore (log_op ctx desc.rel_id (Del (seq, record)));
        Ok record
    end

  let update ctx (desc : Descriptor.t) key new_record =
    let s = store_of desc.rel_id in
    match seq_of key with
    | None -> Error (Error.Key_not_found (Record_key.to_string key))
    | Some seq -> begin
      match Imap.find_opt seq s.records with
      | None -> Error (Error.Key_not_found (Record_key.to_string key))
      | Some old_record ->
        s.records <- Imap.add seq new_record s.records;
        ignore (log_op ctx desc.rel_id (Upd (seq, old_record, new_record)));
        Ok key
    end

  let key_fields _ = None

  let record_count ctx (desc : Descriptor.t) =
    ignore ctx;
    Imap.cardinal (store_of desc.rel_id).records

  (* One map walk per run of [Scan_help.run_length] records. The position
     between runs is the last sequence number read; the next run starts
     at the first larger one, so deletes at the position are harmless. *)
  let scan ctx (desc : Descriptor.t) ?lo ?hi ?filter () =
    ignore ctx;
    ignore lo;
    ignore hi;
    let s = store_of desc.rel_id in
    let pos = ref 0 in
    let next_run () =
      let n = Scan_help.run_length () in
      let rec take acc count seq =
        if count >= n then acc
        else
          match seq () with
          | Seq.Nil -> acc
          | Seq.Cons ((s, record), rest) ->
            pos := s;
            take ((key_of_seq s, record) :: acc) (count + 1) rest
      in
      match take [] 0 (Imap.to_seq_from (!pos + 1) s.records) with
      | [] -> None
      | hits -> Some (Array.of_list (List.rev hits))
    in
    Scan_help.filtered_batch ?filter ~schema:desc.Descriptor.schema ~next_run
      ~close:(fun () -> ())
      ~capture:(fun () ->
        let saved = !pos in
        fun () -> pos := saved)
      ()

  let estimate_scan ctx (desc : Descriptor.t) ~eligible =
    let rows = float_of_int (record_count ctx desc) in
    let sel =
      List.fold_left
        (fun acc p -> acc *. Dmx_expr.Analyze.selectivity p)
        1.0 eligible
    in
    {
      Cost.cost = Cost.make ~io:0. ~cpu:rows;
      est_rows = rows *. sel;
      matched = eligible;
      residual = [];
      ordered_by = None;
    }

  let undo ctx ~rel_id ~data =
    ignore ctx;
    match Hashtbl.find_opt stores rel_id with
    | None -> ()  (* volatile contents gone (restart): nothing to undo *)
    | Some s -> begin
      match dec_op data with
      | Ins (seq, record) -> begin
        match Imap.find_opt seq s.records with
        | Some r when Record.equal r record ->
          s.records <- Imap.remove seq s.records
        | Some _ | None -> ()
      end
      | Del (seq, record) ->
        if not (Imap.mem seq s.records) then begin
          s.records <- Imap.add seq record s.records;
          s.next_seq <- max s.next_seq (seq + 1)
        end
      | Upd (seq, old_record, new_record) -> begin
        match Imap.find_opt seq s.records with
        | Some r when Record.equal r new_record ->
          s.records <- Imap.add seq old_record s.records
        | Some _ | None -> ()
      end
    end
end

include Impl

let register () =
  match !reg_id with
  | Some id -> id
  | None ->
    let id =
      Registry.register_storage_method (module Impl : Intf.STORAGE_METHOD)
    in
    reg_id := Some id;
    id
