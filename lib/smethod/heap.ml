open Dmx_value
open Dmx_page
open Dmx_core
module Descriptor = Dmx_catalog.Descriptor
module Attrlist = Dmx_catalog.Attrlist
module Catalog = Dmx_catalog.Catalog
module Log_record = Dmx_wal.Log_record

let reg_id : int option ref = ref None [@@dmx.global "config-immutable-after-setup"]

let id () =
  match !reg_id with
  | Some id -> id
  | None -> Error.raise_err (Error.Internal "Heap: storage method not registered")

(* ---- descriptor: data page list + advisory record count ---- *)

type hdesc = { pages : int list; count : int }

let enc_desc d =
  let e = Codec.Enc.create () in
  Codec.Enc.list e (fun e p -> Codec.Enc.varint e p) d.pages;
  Codec.Enc.varint e d.count;
  Codec.Enc.to_string e

let dec_desc s =
  let d = Codec.Dec.of_string s in
  let pages = Codec.Dec.list d Codec.Dec.varint in
  let count = Codec.Dec.varint d in
  { pages; count }

let hdesc_of (desc : Descriptor.t) = dec_desc desc.smethod_desc

let store_desc ctx (desc : Descriptor.t) hd =
  Catalog.set_smethod_desc ctx.Ctx.catalog ~rel_id:desc.rel_id (enc_desc hd)

(* ---- log payloads ---- *)

type op =
  | Ins of Record_key.t * Record.t
  | Del of Record_key.t * Record.t
  | Upd of Record_key.t * Record_key.t * Record.t * Record.t

let enc_op op =
  let e = Codec.Enc.create () in
  (match op with
  | Ins (k, r) ->
    Codec.Enc.byte e 0;
    Record_key.enc e k;
    Codec.Enc.record e r
  | Del (k, r) ->
    Codec.Enc.byte e 1;
    Record_key.enc e k;
    Codec.Enc.record e r
  | Upd (ok, nk, orec, nrec) ->
    Codec.Enc.byte e 2;
    Record_key.enc e ok;
    Record_key.enc e nk;
    Codec.Enc.record e orec;
    Codec.Enc.record e nrec);
  Codec.Enc.to_string e

let dec_op s =
  let d = Codec.Dec.of_string s in
  match Codec.Dec.byte d with
  | 0 ->
    let k = Record_key.dec d in
    let r = Codec.Dec.record d in
    Ins (k, r)
  | 1 ->
    let k = Record_key.dec d in
    let r = Codec.Dec.record d in
    Del (k, r)
  | 2 ->
    let ok = Record_key.dec d in
    let nk = Record_key.dec d in
    let orec = Codec.Dec.record d in
    let nrec = Codec.Dec.record d in
    Upd (ok, nk, orec, nrec)
  | n -> failwith (Fmt.str "Heap: bad op tag %d" n)

let log_op ctx rel_id op =
  Ctx.log ctx ~source:(Log_record.Smethod (id ())) ~rel_id ~data:(enc_op op)

(* ---- page helpers ---- *)

(* Pins name the transaction explicitly so a page fill (and any eviction
   write-back it forces) is attributed to it even when no span is
   open — e.g. during scan stepping. *)
let with_page ctx page f =
  let frame =
    Buffer_pool.pin ~txid:ctx.Ctx.txn.Dmx_txn.Txn.id ctx.Ctx.bp page
  in
  Fun.protect
    ~finally:(fun () -> Buffer_pool.unpin ctx.Ctx.bp frame)
    (fun () -> f frame.Buffer_pool.data)

let with_page_mut ctx page f =
  let frame =
    Buffer_pool.pin ~txid:ctx.Ctx.txn.Dmx_txn.Txn.id ctx.Ctx.bp page
  in
  Fun.protect
    ~finally:(fun () -> Buffer_pool.unpin ~dirty:true ctx.Ctx.bp frame)
    (fun () -> f frame.Buffer_pool.data)

let encode_payload record = Bytes.to_string (Codec.encode_record record)

let rid_parts = function
  | Record_key.Rid { page; slot } -> Some (page, slot)
  | Record_key.Fields _ -> None

(* ---- generic operations ---- *)

module Impl = struct
  let name = "heap"
  let attr_specs = []

  let create ctx ~rel_id (_schema : Schema.t) attrs =
    ignore ctx;
    ignore rel_id;
    match Attrlist.validate attr_specs attrs with
    | Error e -> Error (Error.Ddl_error e)
    | Ok () -> Ok (enc_desc { pages = []; count = 0 })

  let destroy ctx ~rel_id ~smethod_desc =
    (* The page store has no deallocation; pages of dropped relations are
       simply abandoned (see DESIGN.md). *)
    ignore ctx;
    ignore rel_id;
    ignore smethod_desc

  let insert ctx (desc : Descriptor.t) record =
    let payload = encode_payload record in
    let page_size = Disk.page_size (Buffer_pool.disk ctx.Ctx.bp) in
    if String.length payload > Slotted.max_payload page_size then
      Error
        (Error.Schema_error
           (Fmt.str "record of %d bytes exceeds page capacity"
              (String.length payload)))
    else begin
      let hd = hdesc_of desc in
      (* Look for room starting from the most recently added page. *)
      let candidate =
        List.find_opt
          (fun p ->
            with_page ctx p (fun data ->
                Slotted.free_space data >= String.length payload))
          (List.rev hd.pages)
      in
      let page, hd =
        match candidate with
        | Some p -> (p, hd)
        | None ->
          let frame = Buffer_pool.alloc ctx.Ctx.bp in
          Slotted.init frame.Buffer_pool.data;
          Buffer_pool.unpin ~dirty:true ctx.Ctx.bp frame;
          let p = frame.Buffer_pool.page_id in
          (p, { hd with pages = hd.pages @ [ p ] })
      in
      let slot =
        with_page_mut ctx page (fun data -> Slotted.insert data payload)
      in
      match slot with
      | None -> Error (Error.Internal "heap: page had room but insert failed")
      | Some slot ->
        let key = Record_key.rid ~page ~slot in
        ignore (log_op ctx desc.rel_id (Ins (key, record)));
        store_desc ctx desc { hd with count = hd.count + 1 };
        Ok key
    end

  (* Bulk insert (registered as the batch vector entry). Amortizes the three
     per-record costs of [insert]: the free-space probe over every data page
     (done once for the batch, newest page first), the per-record descriptor
     write-back (one [store_desc] per batch), and per-record log appends (one
     [Ctx.log_many] per batch). Placement is first-fit: consecutive records
     fill one pinned page until it no longer fits the next record. Records
     placed before a mid-batch failure are logged anyway so the caller's
     savepoint rollback can undo them. *)
  let insert_batch ctx (desc : Descriptor.t) records =
    let n = Array.length records in
    let page_size = Disk.page_size (Buffer_pool.disk ctx.Ctx.bp) in
    let payloads = Array.map encode_payload records in
    let oversize =
      Array.exists
        (fun p -> String.length p > Slotted.max_payload page_size)
        payloads
    in
    if oversize then
      Error
        (Error.Schema_error
           (Fmt.str "a record of the batch exceeds page capacity (%d bytes)"
              (Slotted.max_payload page_size)))
    else begin
      let hd = hdesc_of desc in
      let keys = Array.make n (Record_key.rid ~page:0 ~slot:0) in
      let candidates =
        ref
          (List.map
             (fun p -> (p, with_page ctx p Slotted.free_space))
             (List.rev hd.pages))
      in
      let new_pages = ref [] in
      let failure = ref None in
      (* Insert records [i..] into page [p] under one pin until one no longer
         fits; returns the first unplaced index. *)
      let fill_page p i =
        with_page_mut ctx p (fun data ->
            let rec fill j =
              if j >= n then j
              else
                let len = String.length payloads.(j) in
                if Slotted.free_space data < len then j
                else begin
                  match Slotted.insert data payloads.(j) with
                  | Some slot ->
                    keys.(j) <- Record_key.rid ~page:p ~slot;
                    fill (j + 1)
                  | None ->
                    failure :=
                      Some
                        (Error.Internal
                           "heap: page had room but insert failed");
                    j
                end
            in
            fill i)
      in
      let rec place i =
        if i >= n || !failure <> None then i
        else begin
          let len = String.length payloads.(i) in
          match List.find_opt (fun (_, fs) -> fs >= len) !candidates with
          | Some (p, _) ->
            candidates := List.filter (fun (q, _) -> q <> p) !candidates;
            place (fill_page p i)
          | None ->
            let frame = Buffer_pool.alloc ctx.Ctx.bp in
            Slotted.init frame.Buffer_pool.data;
            Buffer_pool.unpin ~dirty:true ctx.Ctx.bp frame;
            let p = frame.Buffer_pool.page_id in
            new_pages := p :: !new_pages;
            let next = fill_page p i in
            if next = i && !failure = None then begin
              failure :=
                Some (Error.Internal "heap: fresh page rejected record");
              i
            end
            else place next
        end
      in
      let placed = place 0 in
      let datas =
        List.init placed (fun i -> enc_op (Ins (keys.(i), records.(i))))
      in
      if datas <> [] then
        ignore
          (Ctx.log_many ctx
             ~source:(Log_record.Smethod (id ()))
             ~rel_id:desc.rel_id ~datas);
      match !failure with
      | Some e -> Error e
      | None ->
        store_desc ctx desc
          { pages = hd.pages @ List.rev !new_pages; count = hd.count + n };
        Ok keys
    end

  let read_rid ctx key =
    match rid_parts key with
    | None -> None
    | Some (page, slot) ->
      with_page ctx page (fun data -> Slotted.read data slot)

  let fetch ctx (desc : Descriptor.t) key ?fields () =
    ignore desc;
    match read_rid ctx key with
    | None -> None
    | Some payload ->
      let record = Codec.decode_record (Bytes.of_string payload) in
      Some
        (match fields with
        | None -> record
        | Some fs -> Record.project record fs)

  let delete ctx (desc : Descriptor.t) key =
    match rid_parts key with
    | None -> Error (Error.Key_not_found (Record_key.to_string key))
    | Some (page, slot) -> begin
      match with_page ctx page (fun data -> Slotted.read data slot) with
      | None -> Error (Error.Key_not_found (Record_key.to_string key))
      | Some payload ->
        let record = Codec.decode_record (Bytes.of_string payload) in
        let ok = with_page_mut ctx page (fun data -> Slotted.delete data slot) in
        if not ok then Error (Error.Key_not_found (Record_key.to_string key))
        else begin
          ignore (log_op ctx desc.rel_id (Del (key, record)));
          (* Deferred reclamation: the slot becomes reusable only once the
             deleting transaction commits. *)
          let bp = ctx.Ctx.bp in
          Ctx.defer ctx Dmx_txn.Txn.On_commit (fun () ->
              let frame = Buffer_pool.pin bp page in
              Slotted.make_reusable frame.Buffer_pool.data slot;
              Buffer_pool.unpin ~dirty:true bp frame);
          let hd = hdesc_of desc in
          store_desc ctx desc { hd with count = max 0 (hd.count - 1) };
          Ok record
        end
    end

  let update ctx (desc : Descriptor.t) key new_record =
    match rid_parts key with
    | None -> Error (Error.Key_not_found (Record_key.to_string key))
    | Some (page, slot) -> begin
      match with_page ctx page (fun data -> Slotted.read data slot) with
      | None -> Error (Error.Key_not_found (Record_key.to_string key))
      | Some old_payload ->
        let old_record = Codec.decode_record (Bytes.of_string old_payload) in
        let payload = encode_payload new_record in
        let in_place =
          with_page_mut ctx page (fun data -> Slotted.update data slot payload)
        in
        if in_place then begin
          ignore (log_op ctx desc.rel_id (Upd (key, key, old_record, new_record)));
          Ok key
        end
        else begin
          (* Does not fit: relocate; the record key changes. *)
          match delete ctx desc key with
          | Error _ as e -> e
          | Ok _ -> begin
            match insert ctx desc new_record with
            | Error _ as e -> e
            | Ok new_key -> Ok new_key
          end
        end
    end

  let key_fields _desc = None

  let record_count ctx (desc : Descriptor.t) =
    ignore ctx;
    (hdesc_of desc).count

  (* One run per data page, every live slot decoded under a single pin, so
     a scan pins once per page. RIDs have no user-meaningful order: key
     bounds are ignored (the planner never produces them for address-keyed
     methods). The position between runs is the index of the last
     delivered page.

     Because the whole page is processed under one pin, payloads are decoded
     in place from the page image ([Slotted.payload_span] +
     [Codec.Dec.of_string_span]) instead of being copied out first. With a
     filter, the predicate is compiled once and evaluated on a
     late-materialized record: only the fields the predicate reads are
     decoded (the rest are skipped in the encoding), and a full record is
     built only for qualifying slots. *)
  let scan ctx (desc : Descriptor.t) ?lo ?hi ?filter () =
    ignore lo;
    ignore hi;
    let schema = desc.Descriptor.schema in
    let arity = Schema.arity schema in
    let test = Option.map (Dmx_expr.Eval.compile schema) filter in
    let span_test = Option.bind filter (Dmx_expr.Eval.compile_span schema) in
    (* fields the predicate reads; late materialization decodes only these *)
    let needed =
      match filter with
      | None -> [||]
      | Some pred ->
        let b = Array.make arity false in
        List.iter
          (fun i -> if i >= 0 && i < arity then b.(i) <- true)
          (Dmx_expr.Expr.fields_used pred);
        b
    in
    (* Scratch record for predicate evaluation: needed fields are overwritten
       for every slot, the rest stay Null. Qualifying slots get a fresh full
       decode, so the scratch never escapes this scan. *)
    let scratch = Array.make (max 1 arity) Value.Null in
    (* Fallback when the filter is not span-compilable (or a payload
       deviates from the schema): materialize what the predicate reads and
       run the compiled closure. *)
    let scratch_admits test img off len =
      let d = Codec.Dec.of_string_span img ~pos:off ~len in
      let fields = Codec.Dec.varint d in
      if fields <> arity then
        (* width drift: evaluate exactly what a full decode sees *)
        test (Codec.Dec.record (Codec.Dec.of_string_span img ~pos:off ~len))
      else begin
        for i = 0 to fields - 1 do
          if needed.(i) then scratch.(i) <- Codec.Dec.value d
          else Codec.Dec.skip_value d
        done;
        test scratch
      end
    in
    (* Chosen once per scan open: no filter, span-compiled, or fallback. *)
    let admit =
      match test with
      | None -> fun _ _ _ -> true
      | Some test -> begin
        match span_test with
        | Some f ->
          fun img off len -> begin
            match f img ~pos:off ~len with
            | Some keep -> keep
            | None -> scratch_admits test img off len
          end
        | None -> scratch_admits test
      end
    in
    let pages = Array.of_list (hdesc_of desc).pages in
    let pos = ref (-1) in
    let decode_page page data =
      (* Read-only view of the pinned frame; decoded values copy what they
         need out of it, nothing retains the view past the unpin. *)
      let img = Bytes.unsafe_to_string data in
      let hits = ref [] in
      let count = ref 0 in
      Slotted.iter_spans data (fun s off len ->
          if admit img off len then begin
            let d = Codec.Dec.of_string_span img ~pos:off ~len in
            hits :=
              (Record_key.rid ~page ~slot:s, Codec.Dec.record d) :: !hits;
            incr count
          end);
      match !hits with
      | [] -> None
      | first :: _ ->
        (* ascending slot iteration prepended, so fill back-to-front *)
        let run = Array.make !count first in
        let rec fill i hs =
          match hs with
          | [] -> ()
          | h :: tl ->
            run.(i) <- h;
            fill (i - 1) tl
        in
        fill (!count - 1) !hits;
        Some run
    in
    let next_run () =
      let rec advance page_idx =
        if page_idx >= Array.length pages then None
        else
          let page = pages.(page_idx) in
          match with_page ctx page (decode_page page) with
          | None -> advance (page_idx + 1)
          | Some run ->
            pos := page_idx;
            Some run
      in
      advance (!pos + 1)
    in
    {
      Intf.rn_next = next_run;
      rn_close = (fun () -> ());
      rn_capture =
        (fun () ->
          let saved = !pos in
          fun () -> pos := saved);
    }

  let estimate_scan ctx (desc : Descriptor.t) ~eligible =
    ignore ctx;
    let hd = hdesc_of desc in
    let pages = float_of_int (max 1 (List.length hd.pages)) in
    let rows = float_of_int hd.count in
    let sel =
      List.fold_left
        (fun acc p -> acc *. Dmx_expr.Analyze.selectivity p)
        1.0 eligible
    in
    {
      Cost.cost = Cost.make ~io:pages ~cpu:(rows *. 2.);
      est_rows = rows *. sel;
      matched = eligible;  (* the common filter service applies them all *)
      residual = [];
      ordered_by = None;
    }

  (* ---- log-driven undo (testable) ---- *)

  let unlogged_delete ctx page slot =
    with_page_mut ctx page (fun data ->
        ignore (Slotted.delete data slot);
        Slotted.make_reusable data slot)

  (* A crash can lose a page that was allocated after the last force; every
     logged effect on it vanished along with it. [live] filters those
     record keys out so restart undo does not pin nonexistent pages. *)
  let live ctx = function
    | Some (page, _) when not (Buffer_pool.page_live ctx.Ctx.bp page) -> None
    | parts -> parts

  let undo ctx ~rel_id ~data =
    ignore rel_id;
    match dec_op data with
    | Ins (key, record) -> begin
      match live ctx (rid_parts key) with
      | None -> ()
      | Some (page, slot) -> begin
        match with_page ctx page (fun data -> Slotted.read data slot) with
        | Some payload
          when Record.equal
                 (Codec.decode_record (Bytes.of_string payload))
                 record ->
          unlogged_delete ctx page slot
        | Some _ | None -> ()  (* never applied or already undone *)
      end
    end
    | Del (key, record) -> begin
      match live ctx (rid_parts key) with
      | None -> ()
      | Some (page, slot) ->
        with_page_mut ctx page (fun data ->
            match Slotted.read data slot with
            | Some _ -> ()  (* still present: delete never reached disk *)
            | None ->
              if not (Slotted.insert_at data slot (encode_payload record))
              then
                failwith
                  (Fmt.str "heap undo: cannot reinstate record at %s"
                     (Record_key.to_string key)))
    end
    | Upd (old_key, new_key, old_record, new_record) ->
      if Record_key.equal old_key new_key then begin
        match live ctx (rid_parts old_key) with
        | None -> ()
        | Some (page, slot) ->
          with_page_mut ctx page (fun data ->
              match Slotted.read data slot with
              | Some payload
                when Record.equal
                       (Codec.decode_record (Bytes.of_string payload))
                       new_record ->
                ignore (Slotted.update data slot (encode_payload old_record))
              | Some _ | None -> ())
      end
      else
        (* Relocating updates are logged as Del + Ins by the calling code
           path; a combined Upd with distinct keys is never written. *)
        failwith "heap undo: unexpected relocating update record"
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
    Registry.set_sm_insert_batch id Impl.insert_batch;
    id
