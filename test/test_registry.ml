(* Registry edge cases: duplicate names, registration after freeze, vector
   overflow, and dispatch through unregistered procedure-vector slots.

   The registry is global, freeze-once state shared by every suite, so each
   scenario runs inside [with_scratch_registry]: the current registrations
   are captured (as first-class module handles with their batch vector
   entries), the registry is reset for the scenario, and afterwards
   everything is re-registered in the original id order and the frozen flag
   restored — extension modules cache their assigned ids, so restoring the
   order restores consistency. *)

open Dmx_core
open Dmx_value
module Descriptor = Dmx_catalog.Descriptor

let with_scratch_registry f =
  let saved_sm =
    List.map
      (fun (id, _) ->
        (Registry.storage_method id, Registry.Vec.sm_insert_batch.(id)))
      (Registry.storage_methods ())
  in
  let saved_at =
    List.map
      (fun (id, _) ->
        (Registry.attachment id, Registry.Vec.at_on_insert_batch.(id)))
      (Registry.attachments ())
  in
  let was_frozen = Registry.is_frozen () in
  Registry.reset_for_testing ();
  Fun.protect
    ~finally:(fun () ->
      Registry.reset_for_testing ();
      List.iter
        (fun (m, insert_batch) ->
          ignore (Registry.register_storage_method ~insert_batch m))
        saved_sm;
      List.iter
        (fun (m, insert_batch) ->
          ignore (Registry.register_attachment ~insert_batch m))
        saved_at;
      if was_frozen then Registry.freeze ())
    f

let dummy_sm name : (module Intf.STORAGE_METHOD) =
  (module struct
    let name = name
    let attr_specs = []
    let create _ ~rel_id:_ _ _ = Ok ""
    let destroy _ ~rel_id:_ ~smethod_desc:_ = ()
    let insert _ _ _ = Error (Error.Internal "dummy")
    let update _ _ _ _ = Error (Error.Internal "dummy")
    let delete _ _ _ = Error (Error.Internal "dummy")
    let fetch _ _ _ ?fields:_ () = None

    let scan _ _ ?lo:_ ?hi:_ ?filter:_ () =
      {
        Intf.rn_next = (fun () -> None);
        rn_close = ignore;
        rn_capture = (fun () -> ignore);
      }

    let key_fields _ = None
    let record_count _ _ = 0

    let estimate_scan _ _ ~eligible:_ =
      {
        Cost.cost = Cost.make ~io:0. ~cpu:0.;
        est_rows = 0.;
        matched = [];
        residual = [];
        ordered_by = None;
      }

    let undo _ ~rel_id:_ ~data:_ = ()
  end)

let test_duplicate_name () =
  with_scratch_registry (fun () ->
      ignore (Registry.register_storage_method (dummy_sm "dup"));
      Alcotest.check_raises "duplicate storage-method name"
        (Invalid_argument "Registry: storage method \"dup\" already registered")
        (fun () -> ignore (Registry.register_storage_method (dummy_sm "dup"))))

let test_register_after_freeze () =
  with_scratch_registry (fun () ->
      Registry.freeze ();
      Alcotest.check_raises "registration after freeze"
        (Invalid_argument
           "Registry: cannot register storage method late after the database \
            has opened — extensions are bound at the factory")
        (fun () -> ignore (Registry.register_storage_method (dummy_sm "late"))))

let test_vector_full () =
  with_scratch_registry (fun () ->
      for i = 0 to Registry.max_storage_methods - 1 do
        ignore (Registry.register_storage_method (dummy_sm (Fmt.str "sm%d" i)))
      done;
      Alcotest.check_raises "storage-method vector overflow"
        (Invalid_argument "Registry: storage-method vector full") (fun () ->
          ignore (Registry.register_storage_method (dummy_sm "one-too-many"))))

(* Dispatching through an id that was never registered must name the vector
   and the slot: nothing needs the registry reset here, any id beyond the
   registered count is an unregistered slot of the live registry. *)
let test_unregistered_dispatch () =
  let sv = Test_util.fresh_services () in
  let ctx = Services.begin_txn sv in
  let schema = Schema.make_exn [ Schema.column "id" Value.Tint ] in
  let bad_id = Registry.max_storage_methods - 1 in
  let desc =
    Descriptor.make ~rel_id:9999 ~rel_name:"ghost" ~schema ~smethod_id:bad_id
      ~smethod_desc:""
  in
  Alcotest.check_raises "unregistered sm_insert dispatch"
    (Failure
       (Fmt.str
          "Registry: dispatch through unregistered slot %d of vector \
           sm_insert — the extension was linked but never registered in the \
           default factory (Db.register_defaults)"
          bad_id))
    (fun () ->
      ignore (Registry.Vec.sm_insert.(bad_id) ctx desc [| Value.int 1 |]));
  Alcotest.check_raises "unregistered at_on_delete dispatch"
    (Failure
       "Registry: dispatch through unregistered slot 31 of vector \
        at_on_delete — the extension was linked but never registered in the \
        default factory (Db.register_defaults)")
    (fun () ->
      ignore
        (Registry.Vec.at_on_delete.(Descriptor.max_attachment_types - 1) ctx
           desc ~slot:"" (Record_key.rid ~page:0 ~slot:0) [| Value.int 1 |]));
  Services.abort sv ctx;
  Services.close sv

(* The restore protocol itself: ids and dispatch survive a scratch cycle. *)
let test_scratch_restores () =
  let before = Registry.storage_methods () in
  with_scratch_registry (fun () ->
      ignore (Registry.register_storage_method (dummy_sm "scratch-only")));
  Alcotest.(check (list (pair int string)))
    "registrations restored in id order" before
    (Registry.storage_methods ())

(* A scratch cycle must hand the native batch entries back too: heap's bulk
   insert and the B-tree index's sorted-batch maintenance pin a few hundred
   pages for a 2000-row bulk insert, the per-record fallbacks about five per
   row. Earlier scratch cycles in the same run count too, so the check is
   against the row count, not only against the pins before the cycle. *)
let bulk_rows = 2000

let insert_many_pins () =
  let sv = Test_util.fresh_services () in
  let ctx = Services.begin_txn sv in
  let desc =
    Test_util.check_ok "create"
      (Dmx_ddl.Ddl.create_relation ctx ~name:"t" ~schema:Test_util.emp_schema
         ~storage_method:"heap" ())
  in
  Test_util.check_ok "index"
    (Dmx_ddl.Ddl.create_attachment ctx ~relation:"t"
       ~attachment_type:"btree_index" ~name:"by_id"
       ~attrs:[ ("fields", "id") ] ());
  let rows =
    Array.init bulk_rows (fun i -> Test_util.emp i (Fmt.str "e%d" i) "eng" i)
  in
  let io = Services.io_stats sv in
  let before = Dmx_page.Io_stats.copy io in
  ignore (Test_util.check_ok "insert_many" (Relation.insert_many ctx desc rows));
  let d = Dmx_page.Io_stats.diff ~after:io ~before in
  Services.commit sv ctx;
  Services.close sv;
  d.pool_hits + d.pool_misses

let test_scratch_keeps_batch_entries () =
  let before = insert_many_pins () in
  with_scratch_registry ignore;
  let after = insert_many_pins () in
  Alcotest.(check int) "bulk-insert pins unchanged by a scratch cycle" before
    after;
  if after >= bulk_rows then
    Alcotest.failf "bulk insert of %d rows pinned %d pages: a batch entry fell \
                    back to the per-record slot" bulk_rows after

let suite =
  [
    Alcotest.test_case "duplicate name rejected" `Quick test_duplicate_name;
    Alcotest.test_case "registration after freeze rejected" `Quick
      test_register_after_freeze;
    Alcotest.test_case "vector-full overflow rejected" `Quick test_vector_full;
    Alcotest.test_case "unregistered dispatch names vector and slot" `Quick
      test_unregistered_dispatch;
    Alcotest.test_case "scratch registry restores state" `Quick
      test_scratch_restores;
    Alcotest.test_case "scratch registry keeps batch entries" `Quick
      test_scratch_keeps_batch_entries;
  ]
