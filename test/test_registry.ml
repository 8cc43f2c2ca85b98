(* Registry edge cases: duplicate names, registration after freeze, vector
   overflow, and dispatch through unregistered procedure-vector slots.

   The registry is global, freeze-once state shared by every suite, so each
   scenario runs inside [with_scratch_registry]: the current registrations
   are captured (as first-class module handles), the registry is reset for
   the scenario, and afterwards everything is re-registered in the original
   id order and the frozen flag restored — extension modules cache their
   assigned ids, so restoring the order restores consistency. *)

open Dmx_core
open Dmx_value
module Descriptor = Dmx_catalog.Descriptor

let with_scratch_registry f =
  let saved_sm =
    List.map (fun (id, _) -> Registry.storage_method id) (Registry.storage_methods ())
  in
  let saved_at =
    List.map (fun (id, _) -> Registry.attachment id) (Registry.attachments ())
  in
  let was_frozen = Registry.is_frozen () in
  Registry.reset_for_testing ();
  Fun.protect
    ~finally:(fun () ->
      Registry.reset_for_testing ();
      List.iter (fun m -> ignore (Registry.register_storage_method m)) saved_sm;
      List.iter (fun m -> ignore (Registry.register_attachment m)) saved_at;
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
  ]
