open Dmx_value
open Dmx_catalog
module Txn = Dmx_txn.Txn
module Txn_mgr = Dmx_txn.Txn_mgr
module Lock_table = Dmx_lock.Lock_table

let sm_calls = ref 0 [@@dmx.global "UNSAFE"]
let at_calls = ref 0 [@@dmx.global "UNSAFE"]
let dispatch_stats () = (!sm_calls, !at_calls)

(* The dispatch counters are always on (they cost one [incr] and predate the
   metrics registry); a probe folds them into the common exposition. *)
let () =
  Dmx_obs.Metrics.register_probe "dispatch" (fun () ->
      [ ("dispatch.sm_calls", !sm_calls); ("dispatch.at_calls", !at_calls) ])

(* Attachment vetoes, so the query store can charge them per statement. *)
let m_vetoes = Dmx_obs.Metrics.counter "dispatch.vetoes"

(* Internal savepoints get nesting-safe names from a per-transaction
   counter, so cascading modifications (an attached procedure modifying
   another relation) roll back exactly their own partial effects. *)
let op_counter : int ref Dmx_txn.Tmap.key = Dmx_txn.Tmap.new_key "relation.op"

let fresh_savepoint ctx =
  let txn = ctx.Ctx.txn in
  let counter =
    match Txn.attr txn op_counter with
    | Some r -> r
    | None ->
      let r = ref 0 in
      Txn.set_attr txn op_counter r;
      r
  in
  incr counter;
  let name = Fmt.str "__op:%d" !counter in
  Txn_mgr.savepoint ctx.Ctx.txn_mgr txn name;
  name

let release_savepoint ctx name =
  let txn = ctx.Ctx.txn in
  txn.Txn.savepoints <-
    List.filter (fun sp -> sp.Txn.sp_name <> name) txn.Txn.savepoints

let rollback_op ctx name =
  Txn_mgr.rollback_to ctx.Ctx.txn_mgr ctx.Ctx.txn name;
  release_savepoint ctx name

(* Run [f] bracketed by an internal savepoint: partial rollback on error or
   exception, cancellation on success. *)
let with_op_savepoint ctx f =
  let name = fresh_savepoint ctx in
  match f () with
  | Ok _ as ok ->
    release_savepoint ctx name;
    ok
  | Error _ as e ->
    rollback_op ctx name;
    e
  | exception Error.Error err ->
    rollback_op ctx name;
    Error err

let lock_relation ctx desc mode =
  Ctx.lock ctx ~mode (Lock_table.Relation desc.Descriptor.rel_id)

let lock_record ctx desc key mode =
  Ctx.lock ctx ~mode
    (Lock_table.Record
       (desc.Descriptor.rel_id, Bytes.to_string (Record_key.encode key)))

let ( let* ) = Result.bind

(* ---- dispatch tracing and profiling ------------------------------------ *)
(* One span per wrapper; the disabled path costs one branch. Attribute
   closures run only when the JSON sink renders them. [key] charges the
   span to a procedure-vector slot in the profile — vector-boundary sites
   (smethod/attachment slots) pass it, purely observational spans are
   charged to their own name. *)

let result_outcome = function
  | Ok _ -> ("ok", None)
  | Error (Error.Veto { reason; _ }) -> ("veto", Some reason)
  | Error e -> ("error", Some (Error.to_string e))

let with_result_span ?key name ~txid attrs f =
  if not (Dmx_obs.Trace.enabled ()) then f ()
  else begin
    let sp = Dmx_obs.Trace.enter ?key name ~txid ~attrs in
    match f () with
    | r ->
      let outcome, reason = result_outcome r in
      let attrs () =
        match reason with
        | None -> []
        | Some m -> [ ("reason", Dmx_obs.Obs_json.Str m) ]
      in
      Dmx_obs.Trace.exit_span ~outcome ~attrs sp;
      r
    | exception e ->
      Dmx_obs.Trace.exit_span ~outcome:"exn" sp;
      raise e
  end

let rel_span ctx desc op f =
  with_result_span ("relation." ^ op) ~txid:ctx.Ctx.txn.Txn.id
    (fun () ->
      [ ("rel", Dmx_obs.Obs_json.Str desc.Descriptor.rel_name);
        ("rel_id", Dmx_obs.Obs_json.Int desc.Descriptor.rel_id) ])
    f

let sm_span ctx desc op f =
  with_result_span ("smethod." ^ op) ~txid:ctx.Ctx.txn.Txn.id
    ~key:(Dmx_obs.Trace.Smethod desc.Descriptor.smethod_id)
    (fun () ->
      [ ("smethod_id", Dmx_obs.Obs_json.Int desc.Descriptor.smethod_id) ])
    f

let attachment_label n =
  match Registry.attachment_name n with
  | name -> name
  | exception Invalid_argument _ -> Fmt.str "type:%d" n

(* Invoke each attachment type with instances on the relation, ascending type
   id, through the attached-procedure vectors. [info] supplies the op-specific
   span attributes (key, old/new records), built lazily. *)
let run_attached ctx desc ~op ~info f =
  let rec loop = function
    | [] -> Ok ()
    | n :: rest -> begin
      match Descriptor.attachment_desc desc n with
      | None -> loop rest
      | Some slot -> begin
        incr at_calls;
        let r =
          with_result_span ("attach." ^ op) ~txid:ctx.Ctx.txn.Txn.id
            ~key:(Dmx_obs.Trace.Attachment n)
            (fun () ->
              ("attachment", Dmx_obs.Obs_json.Str (attachment_label n))
              :: ("type_id", Dmx_obs.Obs_json.Int n)
              :: info ())
            (fun () -> f n slot)
        in
        match r with
        | Ok () -> loop rest
        | Error (Error.Veto _) as e ->
          Dmx_obs.Metrics.incr m_vetoes;
          e
        | Error _ as e -> e
      end
    end
  in
  loop (Descriptor.attachment_types_present desc)

let validate ctx desc record =
  ignore ctx;
  match Schema.validate_record desc.Descriptor.schema record with
  | Ok () -> Ok ()
  | Error msg -> Error (Error.Schema_error msg)

let insert ctx desc record =
  Invariant.check_frozen_for_dispatch ~op:"insert";
  rel_span ctx desc "insert" (fun () ->
      let* () = validate ctx desc record in
      let* () = lock_relation ctx desc Dmx_lock.Lock_mode.IX in
      with_op_savepoint ctx (fun () ->
          incr sm_calls;
          let* key =
            sm_span ctx desc "insert" (fun () ->
                Registry.Vec.sm_insert.(desc.Descriptor.smethod_id) ctx desc
                  record)
          in
          let* () = lock_record ctx desc key Dmx_lock.Lock_mode.X in
          let* () =
            run_attached ctx desc ~op:"insert"
              ~info:(fun () ->
                [ ("key", Dmx_obs.Obs_json.Str (Record_key.to_string key));
                  ( "new",
                    Dmx_obs.Obs_json.Str (Fmt.str "%a" Record.pp record) ) ])
              (fun n slot ->
                Registry.Vec.at_on_insert.(n) ctx desc ~slot key record)
          in
          Ok key))

(* Bulk insert: validation, the relation lock, the savepoint bracket and the
   span/profile setup are paid once per batch; the storage method and each
   attachment type present are dispatched once per batch through the optional
   batch vector entries (whose defaults loop the per-record slots). Atomic:
   either every record of the batch is inserted or — on the first storage
   method error or attachment veto — the whole batch rolls back. *)
let insert_many ctx desc records =
  Invariant.check_frozen_for_dispatch ~op:"insert_many";
  if Array.length records = 0 then Ok [||]
  else
    rel_span ctx desc "insert_many" (fun () ->
        let* () =
          Array.fold_left
            (fun acc r ->
              let* () = acc in
              validate ctx desc r)
            (Ok ()) records
        in
        let* () = lock_relation ctx desc Dmx_lock.Lock_mode.IX in
        with_op_savepoint ctx (fun () ->
            incr sm_calls;
            let* keys =
              sm_span ctx desc "insert_many" (fun () ->
                  Registry.Vec.sm_insert_batch.(desc.Descriptor.smethod_id)
                    ctx desc records)
            in
            if Array.length keys <> Array.length records then
              Error
                (Error.Internal
                   "insert_many: storage method returned a key count \
                    different from the batch size")
            else
              let* () =
                Array.fold_left
                  (fun acc key ->
                    let* () = acc in
                    lock_record ctx desc key Dmx_lock.Lock_mode.X)
                  (Ok ()) keys
              in
              let entries = Array.map2 (fun k r -> (k, r)) keys records in
              let* () =
                run_attached ctx desc ~op:"insert_many"
                  ~info:(fun () ->
                    [ ("batch", Dmx_obs.Obs_json.Int (Array.length records)) ])
                  (fun n slot ->
                    Registry.Vec.at_on_insert_batch.(n) ctx desc ~slot entries)
              in
              Ok keys))

let update ctx desc key new_record =
  Invariant.check_frozen_for_dispatch ~op:"update";
  rel_span ctx desc "update" (fun () ->
      let* () = validate ctx desc new_record in
      let* () = lock_relation ctx desc Dmx_lock.Lock_mode.IX in
      let* () = lock_record ctx desc key Dmx_lock.Lock_mode.X in
      let (module M : Intf.STORAGE_METHOD) =
        Registry.storage_method desc.Descriptor.smethod_id
      in
      match M.fetch ctx desc key () with
      | None -> Error (Error.Key_not_found (Record_key.to_string key))
      | Some old_record ->
        with_op_savepoint ctx (fun () ->
            incr sm_calls;
            let* new_key =
              sm_span ctx desc "update" (fun () ->
                  Registry.Vec.sm_update.(desc.Descriptor.smethod_id) ctx desc
                    key new_record)
            in
            let* () = lock_record ctx desc new_key Dmx_lock.Lock_mode.X in
            let* () =
              run_attached ctx desc ~op:"update"
                ~info:(fun () ->
                  [ ( "old_key",
                      Dmx_obs.Obs_json.Str (Record_key.to_string key) );
                    ( "new_key",
                      Dmx_obs.Obs_json.Str (Record_key.to_string new_key) );
                    ( "old",
                      Dmx_obs.Obs_json.Str (Fmt.str "%a" Record.pp old_record)
                    );
                    ( "new",
                      Dmx_obs.Obs_json.Str (Fmt.str "%a" Record.pp new_record)
                    ) ])
                (fun n slot ->
                  Registry.Vec.at_on_update.(n) ctx desc ~slot ~old_key:key
                    ~new_key ~old_record ~new_record)
            in
            Ok new_key))

let delete ctx desc key =
  Invariant.check_frozen_for_dispatch ~op:"delete";
  rel_span ctx desc "delete" (fun () ->
      let* () = lock_relation ctx desc Dmx_lock.Lock_mode.IX in
      let* () = lock_record ctx desc key Dmx_lock.Lock_mode.X in
      with_op_savepoint ctx (fun () ->
          incr sm_calls;
          let* old_record =
            sm_span ctx desc "delete" (fun () ->
                Registry.Vec.sm_delete.(desc.Descriptor.smethod_id) ctx desc
                  key)
          in
          let* () =
            run_attached ctx desc ~op:"delete"
              ~info:(fun () ->
                [ ("key", Dmx_obs.Obs_json.Str (Record_key.to_string key));
                  ( "old",
                    Dmx_obs.Obs_json.Str (Fmt.str "%a" Record.pp old_record)
                  ) ])
              (fun n slot ->
                Registry.Vec.at_on_delete.(n) ctx desc ~slot key old_record)
          in
          Ok old_record))

(* [fetch] is the hottest generic-interface call (the E1 bench drives it);
   the uninstrumented path below is the seed code verbatim so the trace gate
   costs the disabled build exactly one load and branch, no closures. *)
let fetch ctx desc key ?fields () =
  if not (Dmx_obs.Trace.enabled ()) then
    let* () = lock_relation ctx desc Dmx_lock.Lock_mode.IS in
    let (module M : Intf.STORAGE_METHOD) =
      Registry.storage_method desc.Descriptor.smethod_id
    in
    Ok (M.fetch ctx desc key ?fields ())
  else
    rel_span ctx desc "fetch" (fun () ->
      let* () = lock_relation ctx desc Dmx_lock.Lock_mode.IS in
      let (module M : Intf.STORAGE_METHOD) =
        Registry.storage_method desc.Descriptor.smethod_id
      in
      sm_span ctx desc "fetch" (fun () -> Ok (M.fetch ctx desc key ?fields ())))

(* Register a scan with the transaction so termination closes it and
   savepoints capture/restore its position. *)
let register_record_scan ctx (scan : Intf.record_scan) =
  let id =
    Ctx.register_scan ctx
      { Txn.scan_close = scan.rs_close; scan_capture = scan.rs_capture }
  in
  {
    scan with
    rs_close =
      (fun () ->
        Ctx.unregister_scan ctx id;
        scan.rs_close ());
  }

let register_run_scan ctx (scan : Intf.run_scan) =
  let id =
    Ctx.register_scan ctx
      { Txn.scan_close = scan.rn_close; scan_capture = scan.rn_capture }
  in
  {
    scan with
    rn_close =
      (fun () ->
        Ctx.unregister_scan ctx id;
        scan.rn_close ());
  }

let register_key_scan ctx (scan : Intf.key_scan) =
  let id =
    Ctx.register_scan ctx
      { Txn.scan_close = scan.ks_close; scan_capture = scan.ks_capture }
  in
  {
    scan with
    ks_close =
      (fun () ->
        Ctx.unregister_scan ctx id;
        scan.ks_close ());
  }

(* The storage method's runs, not yet registered: [scan_batch] registers
   them as they are, [scan] registers the record view over them. *)
let open_runs ctx desc ?lo ?hi ?filter () =
  let* () = lock_relation ctx desc Dmx_lock.Lock_mode.IS in
  let (module M : Intf.STORAGE_METHOD) =
    Registry.storage_method desc.Descriptor.smethod_id
  in
  Ok (M.scan ctx desc ?lo ?hi ?filter ())

let scan_batch ctx desc ?lo ?hi ?filter () =
  rel_span ctx desc "scan_batch" (fun () ->
      let* runs = open_runs ctx desc ?lo ?hi ?filter () in
      Ok (register_run_scan ctx runs))

let scan ctx desc ?lo ?hi ?filter () =
  rel_span ctx desc "scan" (fun () ->
      let* runs = open_runs ctx desc ?lo ?hi ?filter () in
      Ok (register_record_scan ctx (Scan_help.records runs)))

let lookup ctx desc ~attachment_id ~instance ~key =
  rel_span ctx desc "lookup" @@ fun () ->
  let* () = lock_relation ctx desc Dmx_lock.Lock_mode.IS in
  match Descriptor.attachment_desc desc attachment_id with
  | None ->
    Error
      (Error.No_such_attachment
         (Fmt.str "relation %S has no attachment of type %d"
            desc.Descriptor.rel_name attachment_id))
  | Some slot ->
    let (module A : Intf.ATTACHMENT) = Registry.attachment attachment_id in
    Ok (A.lookup ctx desc ~slot ~instance ~key)

let attachment_scan ctx desc ~attachment_id ~instance ?lo ?hi () =
  let* () = lock_relation ctx desc Dmx_lock.Lock_mode.IS in
  match Descriptor.attachment_desc desc attachment_id with
  | None ->
    Error
      (Error.No_such_attachment
         (Fmt.str "relation %S has no attachment of type %d"
            desc.Descriptor.rel_name attachment_id))
  | Some slot ->
    let (module A : Intf.ATTACHMENT) = Registry.attachment attachment_id in
    begin
      match A.scan ctx desc ~slot ~instance ?lo ?hi () with
      | None ->
        Error
          (Error.No_such_attachment
             (Fmt.str "attachment type %d offers no key-sequential access"
                attachment_id))
      | Some s -> Ok (register_key_scan ctx s)
    end

let record_count ctx desc =
  let* () = lock_relation ctx desc Dmx_lock.Lock_mode.IS in
  let (module M : Intf.STORAGE_METHOD) =
    Registry.storage_method desc.Descriptor.smethod_id
  in
  Ok (M.record_count ctx desc)
