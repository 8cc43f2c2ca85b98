(* Attachment edge cases: multiple instances per type, hash overflow chains,
   referential updates, deferred refint, attachment DDL validation. *)
open Dmx_value
open Dmx_core
open Test_util
module Ddl = Dmx_ddl.Ddl
module Relation = Dmx_core.Relation

let setup services =
  let ctx = Services.begin_txn services in
  let desc =
    check_ok "create"
      (Ddl.create_relation ctx ~name:"t" ~schema:emp_schema
         ~storage_method:"heap" ())
  in
  (ctx, desc)

let test_multiple_instances_one_slot () =
  let services = fresh_services () in
  let ctx, desc = setup services in
  (* three B-tree indexes: all live in the one btree_index descriptor slot *)
  List.iter
    (fun (name, fields) ->
      check_ok name
        (Ddl.create_attachment ctx ~relation:"t" ~attachment_type:"btree_index"
           ~name ~attrs:[ ("fields", fields) ] ()))
    [ ("by_id", "id"); ("by_dept", "dept"); ("by_dept_sal", "dept,salary") ];
  Alcotest.(check (list int)) "one slot used" [ 0 ]
    (Dmx_catalog.Descriptor.attachment_types_present desc);
  Alcotest.(check (list string)) "instances"
    [ "by_id"; "by_dept"; "by_dept_sal" ]
    (Dmx_attach.Btree_index.instance_names desc);
  (* all three are maintained by one attached-procedure call per insert *)
  ignore (check_ok "ins" (Relation.insert ctx desc (emp 1 "a" "eng" 10)));
  ignore (check_ok "ins" (Relation.insert ctx desc (emp 2 "b" "eng" 20)));
  let at_id = Option.get (Registry.attachment_id "btree_index") in
  let lookup instance key =
    List.length
      (check_ok "lookup" (Relation.lookup ctx desc ~attachment_id:at_id ~instance ~key))
  in
  Alcotest.(check int) "by_id" 1 (lookup 1 [| vi 1 |]);
  Alcotest.(check int) "by_dept" 2 (lookup 2 [| vs "eng" |]);
  Alcotest.(check int) "by_dept_sal prefix" 2 (lookup 3 [| vs "eng" |]);
  Alcotest.(check int) "by_dept_sal full" 1 (lookup 3 [| vs "eng"; vi 20 |]);
  (* dropping the middle instance leaves the others *)
  check_ok "drop"
    (Ddl.drop_attachment ctx ~relation:"t" ~attachment_type:"btree_index"
       ~name:"by_dept");
  Alcotest.(check (list string)) "two left" [ "by_id"; "by_dept_sal" ]
    (Dmx_attach.Btree_index.instance_names desc);
  ignore (check_ok "ins3" (Relation.insert ctx desc (emp 3 "c" "ops" 30)));
  Alcotest.(check int) "survivors maintained" 1 (lookup 1 [| vi 3 |]);
  Services.commit services ctx

let test_hash_overflow_chains () =
  let services = fresh_services () in
  let ctx, desc = setup services in
  (* 2 buckets + hundreds of entries: long overflow chains *)
  check_ok "hash"
    (Ddl.create_attachment ctx ~relation:"t" ~attachment_type:"hash_index"
       ~name:"h" ~attrs:[ ("fields", "id"); ("buckets", "2") ] ());
  for i = 1 to 400 do
    ignore (check_ok "ins" (Relation.insert ctx desc (emp i "x" "d" i)))
  done;
  let at_id = Option.get (Registry.attachment_id "hash_index") in
  for i = 1 to 400 do
    if i mod 13 = 0 then begin
      let hits =
        check_ok "lookup"
          (Relation.lookup ctx desc ~attachment_id:at_id ~instance:1
             ~key:[| vi i |])
      in
      Alcotest.(check int) (Fmt.str "find %d in chain" i) 1 (List.length hits)
    end
  done;
  (* deletes traverse chains too *)
  let scan = check_ok "scan" (Relation.scan ctx desc ()) in
  let all = Dmx_core.Scan_help.record_scan_to_list scan in
  List.iteri
    (fun i (key, _) ->
      if i mod 2 = 0 then ignore (check_ok "del" (Relation.delete ctx desc key)))
    all;
  let hits i =
    List.length
      (check_ok "lookup"
         (Relation.lookup ctx desc ~attachment_id:at_id ~instance:1
            ~key:[| vi i |]))
  in
  let live = ref 0 in
  for i = 1 to 400 do
    live := !live + hits i
  done;
  Alcotest.(check int) "chain deletes consistent" 200 !live;
  Services.commit services ctx

let test_refint_child_update () =
  let services = fresh_services () in
  let ctx = Services.begin_txn services in
  let dept_schema =
    Schema.make_exn
      [ Schema.column ~nullable:false "name" Value.Tstring ]
  in
  ignore
    (check_ok "dept"
       (Ddl.create_relation ctx ~name:"dept" ~schema:dept_schema
          ~storage_method:"heap" ()));
  let empd =
    check_ok "emp"
      (Ddl.create_relation ctx ~name:"emp" ~schema:emp_schema
         ~storage_method:"heap" ())
  in
  let dept = check_ok "find" (Ddl.find_relation ctx "dept") in
  ignore (check_ok "d1" (Relation.insert ctx dept [| vs "eng" |]));
  ignore (check_ok "d2" (Relation.insert ctx dept [| vs "ops" |]));
  check_ok "fk"
    (Ddl.create_attachment ctx ~relation:"emp" ~attachment_type:"refint"
       ~name:"fk"
       ~attrs:
         [ ("fields", "dept"); ("parent", "dept"); ("parent_fields", "name") ]
       ());
  let k = check_ok "child" (Relation.insert ctx empd (emp 1 "a" "eng" 1)) in
  (* updating the FK to another existing parent: fine *)
  let k =
    check_ok "update to ops" (Relation.update ctx empd k (emp 1 "a" "ops" 1))
  in
  (* updating to a missing parent: vetoed, and the update is undone *)
  (match Relation.update ctx empd k (emp 1 "a" "mars" 1) with
  | Error (Error.Veto _) -> ()
  | _ -> Alcotest.fail "orphaning update accepted");
  (match check_ok "fetch" (Relation.fetch ctx empd k ()) with
  | Some r -> Alcotest.check value_testable "still ops" (vs "ops") r.(2)
  | None -> Alcotest.fail "record lost");
  (* updating a non-FK field doesn't re-check (would pass anyway) *)
  ignore (check_ok "benign" (Relation.update ctx empd k (emp 1 "a2" "ops" 2)));
  Services.commit services ctx

let test_refint_deferred () =
  let services = fresh_services () in
  let ctx = Services.begin_txn services in
  let dept_schema =
    Schema.make_exn [ Schema.column ~nullable:false "name" Value.Tstring ]
  in
  ignore
    (check_ok "dept"
       (Ddl.create_relation ctx ~name:"dept" ~schema:dept_schema
          ~storage_method:"heap" ()));
  let empd =
    check_ok "emp"
      (Ddl.create_relation ctx ~name:"emp" ~schema:emp_schema
         ~storage_method:"heap" ())
  in
  check_ok "fk"
    (Ddl.create_attachment ctx ~relation:"emp" ~attachment_type:"refint"
       ~name:"fk"
       ~attrs:
         [
           ("fields", "dept"); ("parent", "dept"); ("parent_fields", "name");
           ("deferred", "true");
         ]
       ());
  (* child inserted before its parent: allowed now, checked at commit *)
  ignore (check_ok "child first" (Relation.insert ctx empd (emp 1 "a" "eng" 1)));
  let dept = check_ok "find" (Ddl.find_relation ctx "dept") in
  ignore (check_ok "parent later" (Relation.insert ctx dept [| vs "eng" |]));
  Services.commit services ctx;
  (* now the violating case: child without parent at commit time *)
  let ctx = Services.begin_txn services in
  let empd = check_ok "find" (Ddl.find_relation ctx "emp") in
  ignore (check_ok "orphan" (Relation.insert ctx empd (emp 2 "b" "mars" 1)));
  (match Services.commit services ctx with
  | exception Error.Error (Error.Veto _) -> ()
  | () -> Alcotest.fail "deferred orphan committed");
  let ctx = Services.begin_txn services in
  let empd = check_ok "find" (Ddl.find_relation ctx "emp") in
  Alcotest.(check int) "orphan rolled back" 1 (count_records ctx empd);
  Services.commit services ctx

let test_attachment_ddl_validation () =
  let services = fresh_services () in
  let ctx, _desc = setup services in
  let att ty name attrs =
    Ddl.create_attachment ctx ~relation:"t" ~attachment_type:ty ~name ~attrs ()
  in
  (* unknown fields *)
  (match att "btree_index" "i" [ ("fields", "nosuch") ] with
  | Error (Error.Ddl_error _) -> ()
  | _ -> Alcotest.fail "bad fields accepted");
  (* missing required *)
  (match att "btree_index" "i" [] with
  | Error (Error.Ddl_error _) -> ()
  | _ -> Alcotest.fail "missing fields accepted");
  (* bad predicate *)
  (match att "check" "c" [ ("predicate", "nosuchcol > 1") ] with
  | Error (Error.Ddl_error _) -> ()
  | _ -> Alcotest.fail "bad predicate accepted");
  (* rect needs exactly 4 columns *)
  (match att "rtree_index" "r" [ ("rect", "id,salary") ] with
  | Error (Error.Ddl_error _) -> ()
  | _ -> Alcotest.fail "bad rect accepted");
  (* unknown trigger function *)
  (match att "trigger" "tr" [ ("function", "nosuch"); ("events", "insert") ] with
  | Error (Error.Ddl_error _) -> ()
  | _ -> Alcotest.fail "unknown trigger function accepted");
  (* duplicate instance name *)
  check_ok "first" (att "btree_index" "dup" [ ("fields", "id") ]);
  (match att "btree_index" "dup" [ ("fields", "salary") ] with
  | Error (Error.Ddl_error _) -> ()
  | _ -> Alcotest.fail "duplicate instance name accepted");
  (* unknown attachment type *)
  (match att "martian" "m" [] with
  | Error (Error.Ddl_error _) -> ()
  | _ -> Alcotest.fail "unknown attachment type accepted");
  (* drop of a missing instance *)
  (match
     Ddl.drop_attachment ctx ~relation:"t" ~attachment_type:"btree_index"
       ~name:"nosuch"
   with
  | Error (Error.No_such_attachment _) -> ()
  | _ -> Alcotest.fail "dropping a missing instance succeeded");
  (* every registered type: a second instance of the same name and the drop
     of a missing one are refused by the shared instance-list service *)
  let box =
    Schema.make_exn
      (Schema.column ~nullable:false "id" Value.Tint
       :: Schema.column "dept" Value.Tstring
       :: List.map
            (fun c -> Schema.column c Value.Tint)
            [ "xlo"; "ylo"; "xhi"; "yhi" ])
  in
  ignore
    (check_ok "box"
       (Ddl.create_relation ctx ~name:"box" ~schema:box ~storage_method:"heap"
          ()));
  let valid_attrs =
    [
      ("btree_index", [ ("fields", "id") ]);
      ("hash_index", [ ("fields", "id") ]);
      ("rtree_index", [ ("rect", "xlo,ylo,xhi,yhi") ]);
      ("join_index", [ ("field", "id"); ("other", "t"); ("other_field", "id") ]);
      ("check", [ ("predicate", "id > 0") ]);
      ("refint", [ ("fields", "id"); ("parent", "t"); ("parent_fields", "id") ]);
      ("trigger", [ ("function", "audit"); ("events", "insert") ]);
      ("stats", [ ("fields", "id") ]);
      ("agg", [ ("group", "dept"); ("sum", "id") ]);
    ]
  in
  List.iter
    (fun (_, ty) ->
      let attrs =
        match List.assoc_opt ty valid_attrs with
        | Some attrs -> attrs
        | None -> Alcotest.failf "no valid attributes listed for type %s" ty
      in
      let create () =
        Ddl.create_attachment ctx ~relation:"box" ~attachment_type:ty
          ~name:"twice" ~attrs ()
      in
      check_ok (ty ^ " first") (create ());
      (match create () with
      | Error (Error.Ddl_error _) -> ()
      | _ -> Alcotest.failf "%s: duplicate instance name accepted" ty);
      match
        Ddl.drop_attachment ctx ~relation:"box" ~attachment_type:ty
          ~name:"nosuch"
      with
      | Error (Error.No_such_attachment _) -> ()
      | _ -> Alcotest.failf "%s: dropping a missing instance succeeded" ty)
    (Registry.attachments ());
  Services.abort services ctx

(* One DDL call installs a join index or a referential constraint on two
   relations. Dropping it removes the mirror instance from the other
   relation's slot too, and aborting the drop restores both sides. *)
let test_mirror_drop_and_abort () =
  let services = fresh_services () in
  let ctx = Services.begin_txn services in
  List.iter
    (fun name ->
      ignore
        (check_ok name
           (Ddl.create_relation ctx ~name ~schema:emp_schema
              ~storage_method:"heap" ())))
    [ "dept_p"; "emp_c" ];
  check_ok "join"
    (Ddl.create_attachment ctx ~relation:"emp_c" ~attachment_type:"join_index"
       ~name:"j" ~attrs:[ ("field", "id"); ("other", "dept_p");
                          ("other_field", "id") ] ());
  check_ok "refint"
    (Ddl.create_attachment ctx ~relation:"emp_c" ~attachment_type:"refint"
       ~name:"fk" ~attrs:[ ("fields", "id"); ("parent", "dept_p");
                           ("parent_fields", "id") ] ());
  Services.commit services ctx;
  let present ctx ty =
    let at_id = Option.get (Registry.attachment_id ty) in
    List.map
      (fun rel ->
        let desc = Option.get (Dmx_catalog.Catalog.find ctx.Ctx.catalog rel) in
        Dmx_catalog.Descriptor.attachment_desc desc at_id <> None)
      [ "emp_c"; "dept_p" ]
  in
  let check_both what ctx expected =
    List.iter
      (fun ty ->
        Alcotest.(check (list bool)) (what ^ " " ^ ty) [ expected; expected ]
          (present ctx ty))
      [ "join_index"; "refint" ]
  in
  let ctx = Services.begin_txn services in
  check_both "created" ctx true;
  check_ok "drop join"
    (Ddl.drop_attachment ctx ~relation:"emp_c" ~attachment_type:"join_index"
       ~name:"j");
  check_ok "drop refint"
    (Ddl.drop_attachment ctx ~relation:"emp_c" ~attachment_type:"refint"
       ~name:"fk");
  check_both "dropped" ctx false;
  Services.abort services ctx;
  let ctx = Services.begin_txn services in
  check_both "aborted" ctx true;
  (* the restored parent-side mirror still acts: a referenced parent cannot
     be deleted *)
  let parent = Option.get (Dmx_catalog.Catalog.find ctx.Ctx.catalog "dept_p") in
  let child = Option.get (Dmx_catalog.Catalog.find ctx.Ctx.catalog "emp_c") in
  let pk = check_ok "parent" (Relation.insert ctx parent (emp 1 "p" "eng" 1)) in
  ignore (check_ok "child" (Relation.insert ctx child (emp 1 "c" "eng" 1)));
  (match Relation.delete ctx parent pk with
  | Error (Error.Veto _) -> ()
  | _ -> Alcotest.fail "referenced parent deleted after the aborted drop");
  Alcotest.(check int) "join pair seen from the parent side" 1
    (List.length (Dmx_attach.Join_index.pairs ctx parent ~name:"j"));
  Services.commit services ctx

let test_index_build_from_existing () =
  let services = fresh_services () in
  let ctx, desc = setup services in
  ignore (check_ok "a" (Relation.insert ctx desc (emp 1 "a" "eng" 1)));
  ignore (check_ok "b" (Relation.insert ctx desc (emp 2 "b" "ops" 2)));
  (* index created after data: built from current contents *)
  check_ok "late index"
    (Ddl.create_attachment ctx ~relation:"t" ~attachment_type:"btree_index"
       ~name:"late" ~attrs:[ ("fields", "id") ] ());
  let at_id = Option.get (Registry.attachment_id "btree_index") in
  Alcotest.(check int) "existing indexed" 1
    (List.length
       (check_ok "lookup"
          (Relation.lookup ctx desc ~attachment_id:at_id ~instance:1
             ~key:[| vi 2 |])));
  (* a unique index over data that violates it is refused *)
  ignore (check_ok "dup salary" (Relation.insert ctx desc (emp 3 "c" "eng" 1)));
  (match
     Ddl.create_attachment ctx ~relation:"t" ~attachment_type:"btree_index"
       ~name:"u" ~attrs:[ ("fields", "salary"); ("unique", "true") ] ()
   with
  | Error (Error.Constraint_violation _) -> ()
  | _ -> Alcotest.fail "unique index built over duplicates");
  (* a check constraint over violating data is refused *)
  (match
     Ddl.create_attachment ctx ~relation:"t" ~attachment_type:"check"
       ~name:"big" ~attrs:[ ("predicate", "salary > 100") ] ()
   with
  | Error (Error.Constraint_violation _) -> ()
  | _ -> Alcotest.fail "check constraint built over violations");
  Services.commit services ctx

(* Three-level cascade with indexes and triggers riding along: deleting the
   grandparent chains through two refint attachments, and every cascaded
   delete runs its own relation's full attachment set. *)
let test_deep_cascade_with_attachments () =
  let services = fresh_services () in
  let ctx = Services.begin_txn services in
  let one_key_schema name =
    ignore name;
    Schema.make_exn
      [
        Schema.column ~nullable:false "id" Value.Tint;
        Schema.column "parent" Value.Tint;
      ]
  in
  let mk name =
    check_ok name
      (Ddl.create_relation ctx ~name ~schema:(one_key_schema name)
         ~storage_method:"heap" ())
  in
  let a = mk "a" and b = mk "b" and c = mk "c" in
  let fk child parent =
    check_ok "fk"
      (Ddl.create_attachment ctx ~relation:child ~attachment_type:"refint"
         ~name:(child ^ "_" ^ parent)
         ~attrs:
           [
             ("fields", "parent"); ("parent", parent); ("parent_fields", "id");
             ("on_delete", "cascade");
           ]
         ())
  in
  fk "b" "a";
  fk "c" "b";
  (* indexes on every level so cascaded deletes maintain them *)
  List.iter
    (fun rel ->
      check_ok "idx"
        (Ddl.create_attachment ctx ~relation:rel ~attachment_type:"btree_index"
           ~name:(rel ^ "_pk")
           ~attrs:[ ("fields", "id"); ("unique", "true") ] ()))
    [ "a"; "b"; "c" ];
  audit_log := [];
  check_ok "audit c"
    (Ddl.create_attachment ctx ~relation:"c" ~attachment_type:"trigger"
       ~name:"c_audit"
       ~attrs:[ ("function", "audit"); ("events", "delete") ] ());
  let ka = check_ok "a1" (Relation.insert ctx a [| vi 1; Value.Null |]) in
  ignore (check_ok "b1" (Relation.insert ctx b [| vi 10; vi 1 |]));
  ignore (check_ok "b2" (Relation.insert ctx b [| vi 11; vi 1 |]));
  ignore (check_ok "c1" (Relation.insert ctx c [| vi 100; vi 10 |]));
  ignore (check_ok "c2" (Relation.insert ctx c [| vi 101; vi 10 |]));
  ignore (check_ok "c3" (Relation.insert ctx c [| vi 102; vi 11 |]));
  (* delete the grandparent: everything cascades *)
  ignore (check_ok "cascade" (Relation.delete ctx a ka));
  Alcotest.(check int) "a empty" 0 (count_records ctx a);
  Alcotest.(check int) "b cascaded" 0 (count_records ctx b);
  Alcotest.(check int) "c cascaded" 0 (count_records ctx c);
  (* triggers fired once per cascaded grandchild delete *)
  Alcotest.(check int) "grandchild triggers" 3 (List.length !audit_log);
  (* the grandchild index followed the cascade *)
  let at_id = Option.get (Registry.attachment_id "btree_index") in
  Alcotest.(check int) "index empty" 0
    (List.length
       (check_ok "lookup"
          (Relation.lookup ctx c ~attachment_id:at_id ~instance:1
             ~key:[| vi 100 |])));
  (* and the whole cascade is undoable: savepoint + repeat + rollback *)
  let ka =
    check_ok "a again" (Relation.insert ctx a [| vi 1; Value.Null |])
  in
  ignore (check_ok "b again" (Relation.insert ctx b [| vi 10; vi 1 |]));
  ignore (check_ok "c again" (Relation.insert ctx c [| vi 100; vi 10 |]));
  Services.savepoint ctx "sp";
  ignore (check_ok "cascade2" (Relation.delete ctx a ka));
  Alcotest.(check int) "gone" 0 (count_records ctx c);
  Services.rollback_to ctx "sp";
  Alcotest.(check int) "cascade undone a" 1 (count_records ctx a);
  Alcotest.(check int) "cascade undone b" 1 (count_records ctx b);
  Alcotest.(check int) "cascade undone c" 1 (count_records ctx c);
  Services.commit services ctx

let test_agg_attachment () =
  let services = fresh_services () in
  let ctx, desc = setup services in
  check_ok "agg"
    (Ddl.create_attachment ctx ~relation:"t" ~attachment_type:"agg"
       ~name:"sal_by_dept"
       ~attrs:[ ("group", "dept"); ("sum", "salary") ] ());
  let keys =
    List.map
      (fun (i, d, s) ->
        (i, check_ok "ins" (Relation.insert ctx desc (emp i "x" d s))))
      [ (1, "eng", 100); (2, "eng", 200); (3, "ops", 50); (4, "eng", 1) ]
  in
  let groups () =
    Dmx_attach.Agg.groups ctx desc ~name:"sal_by_dept"
    |> List.map (fun g ->
           ( Value.to_string g.Dmx_attach.Agg.group_values.(0),
             g.count,
             Int64.to_int g.sum ))
  in
  Alcotest.(check (list (triple string int int)))
    "initial groups"
    [ ("\"eng\"", 3, 301); ("\"ops\"", 1, 50) ]
    (groups ());
  (* update moving a record between groups *)
  let k2 = List.assoc 2 keys in
  ignore (check_ok "move" (Relation.update ctx desc k2 (emp 2 "x" "ops" 200)));
  Alcotest.(check (list (triple string int int)))
    "after move"
    [ ("\"eng\"", 2, 101); ("\"ops\"", 2, 250) ]
    (groups ());
  (* delete erases a group when count reaches zero *)
  ignore (check_ok "del" (Relation.delete ctx desc (List.assoc 3 keys)));
  ignore (check_ok "del2" (Relation.delete ctx desc k2));
  Alcotest.(check (list (triple string int int)))
    "ops gone"
    [ ("\"eng\"", 2, 101) ]
    (groups ());
  (* transactionally exact: savepoint + rollback restores the aggregates *)
  Services.savepoint ctx "sp";
  ignore (check_ok "ins" (Relation.insert ctx desc (emp 9 "x" "hr" 77)));
  ignore (check_ok "del3" (Relation.delete ctx desc (List.assoc 1 keys)));
  Services.rollback_to ctx "sp";
  Alcotest.(check (list (triple string int int)))
    "restored"
    [ ("\"eng\"", 2, 101) ]
    (groups ());
  (* point lookup *)
  (match Dmx_attach.Agg.group ctx desc ~name:"sal_by_dept" ~key:[| vs "eng" |] with
  | Some g -> Alcotest.(check int) "eng count" 2 g.Dmx_attach.Agg.count
  | None -> Alcotest.fail "group missing");
  Services.commit services ctx

let suite =
  [
    Alcotest.test_case "multiple instances in one slot" `Quick
      test_multiple_instances_one_slot;
    Alcotest.test_case "materialised aggregation" `Quick test_agg_attachment;
    Alcotest.test_case "three-level cascade with attachments" `Quick
      test_deep_cascade_with_attachments;
    Alcotest.test_case "hash overflow chains" `Quick test_hash_overflow_chains;
    Alcotest.test_case "refint on child update" `Quick test_refint_child_update;
    Alcotest.test_case "deferred refint" `Quick test_refint_deferred;
    Alcotest.test_case "attachment DDL validation" `Quick
      test_attachment_ddl_validation;
    Alcotest.test_case "building attachments from existing records" `Quick
      test_index_build_from_existing;
    Alcotest.test_case "mirror instances follow drop and abort" `Quick
      test_mirror_drop_and_abort;
  ]
