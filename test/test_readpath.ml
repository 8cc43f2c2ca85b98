(* The read path: storage methods deliver runs, and [Relation.scan] is a
   record view over them. Both must return exactly the rows a model of the
   relation predicts — same records, same order, same filter semantics —
   for every storage method, native run producers (heap, btree, memory)
   and chunked record producers (temp) alike. Plus the shapes the protocol
   promises: torn runs at relation end, the run-granular position rule
   under mid-scan modification, and exactly one pin per heap page. *)
open Dmx_value
open Dmx_core
open Test_util
module Ddl = Dmx_ddl.Ddl
module Relation = Dmx_core.Relation

let row_of i =
  [|
    vi i;
    vs (Fmt.str "name%d" i);
    vs (if i mod 2 = 0 then "even" else "odd");
    vi (i * 10);
  |]

let make_rel ctx ~storage_method ?(attrs = []) ?(n = 25) ?ids () =
  let ids = Option.value ids ~default:(List.init n (fun i -> i + 1)) in
  let desc =
    check_ok "create"
      (Ddl.create_relation ctx ~name:("t_" ^ storage_method) ~schema:emp_schema
         ~storage_method ~attrs ())
  in
  List.iter
    (fun i ->
      ignore (check_ok "ins" (Relation.insert ctx desc (row_of i))))
    ids;
  desc

let records_of_record_scan ctx desc ?filter () =
  check_ok "scan" (Relation.scan ctx desc ?filter ())
  |> Scan_help.record_scan_to_list |> List.map snd

let records_of_batch_scan ctx desc ?filter () =
  check_ok "scan_batch" (Relation.scan_batch ctx desc ?filter ())
  |> Scan_help.run_scan_to_list |> List.map snd

(* Both read paths against the model: the inserted rows, filtered by the
   interpreter, in the method's order — insertion order for heap, memory
   and temp, key order for btree. Ids go in scrambled so the two orders
   differ. *)
let test_batch_record_parity () =
  let services = fresh_services () in
  let ctx = Services.begin_txn services in
  let ids = List.init 25 (fun k -> (k * 7 mod 25) + 1) in
  let filter =
    Dmx_expr.Parse.parse_exn emp_schema "salary > 100 AND dept = 'even'"
  in
  List.iter
    (fun (sm, attrs, key_order) ->
      let desc = make_rel ctx ~storage_method:sm ~attrs ~ids () in
      let model ?filter () =
        let rows = List.map row_of ids in
        let rows =
          if key_order then
            List.sort (fun a b -> Value.compare a.(0) b.(0)) rows
          else rows
        in
        match filter with
        | None -> rows
        | Some e -> List.filter (fun r -> Dmx_expr.Eval.test r e) rows
      in
      let check what ?filter () =
        let expected = model ?filter () in
        Alcotest.(check (list record_testable))
          (Fmt.str "%s %s, runs" sm what)
          expected
          (records_of_batch_scan ctx desc ?filter ());
        Alcotest.(check (list record_testable))
          (Fmt.str "%s %s, record view" sm what)
          expected
          (records_of_record_scan ctx desc ?filter ())
      in
      check "unfiltered" ();
      check "filtered" ~filter ();
      (* short runs exercise run boundaries without changing results *)
      with_run_length 3 (fun () -> check "filtered, short runs" ~filter ()))
    [
      ("heap", [], false);
      ("btree", [ ("key", "id") ], true);
      ("memory", [], false);
      ("temp", [], false);  (* record producer chunked into runs *)
    ];
  Services.commit services ctx

(* the last run is torn, never padded: 10 records at run length 4 arrive
   as runs of 4, 4, 2 — and no run is ever empty *)
let test_torn_final_run () =
  let services = fresh_services () in
  let ctx = Services.begin_txn services in
  List.iter
    (fun (sm, attrs) ->
      let desc = make_rel ctx ~storage_method:sm ~attrs ~n:10 () in
      with_run_length 4 (fun () ->
          let scan = check_ok "scan_batch" (Relation.scan_batch ctx desc ()) in
          let rec drain acc =
            match scan.Intf.rn_next () with
            | None ->
              scan.Intf.rn_close ();
              List.rev acc
            | Some run ->
              Alcotest.(check bool)
                (sm ^ ": runs are never empty")
                true
                (Array.length run > 0);
              drain (Array.length run :: acc)
          in
          let sizes = drain [] in
          Alcotest.(check int)
            (sm ^ ": all records delivered")
            10
            (List.fold_left ( + ) 0 sizes);
          List.iter
            (fun s ->
              Alcotest.(check bool)
                (sm ^ ": no run exceeds the run length")
                true (s <= 4))
            sizes))
    [ ("memory", []); ("temp", []) ];
  Services.commit services ctx

(* mid-scan modification: the position between runs is ON the last
   delivered record, so not-yet-delivered records can still be deleted
   (and vanish) or appended (and appear) *)
let test_midscan_modification () =
  let services = fresh_services () in
  let ctx = Services.begin_txn services in
  let desc = make_rel ctx ~storage_method:"memory" ~n:10 () in
  with_run_length 3 (fun () ->
      let scan = check_ok "scan_batch" (Relation.scan_batch ctx desc ()) in
      let first =
        match scan.Intf.rn_next () with
        | Some run -> Array.to_list run |> List.map (fun (_, r) -> r.(0))
        | None -> Alcotest.fail "first run missing"
      in
      Alcotest.(check (list value_testable)) "first run" [ vi 1; vi 2; vi 3 ] first;
      (* delete a record beyond the position; append a fresh one *)
      let keys =
        check_ok "keyed scan" (Relation.scan ctx desc ())
        |> Scan_help.record_scan_to_list
      in
      let key5 =
        fst (List.find (fun (_, r) -> Value.equal r.(0) (vi 5)) keys)
      in
      ignore (check_ok "del" (Relation.delete ctx desc key5));
      ignore
        (check_ok "ins"
           (Relation.insert ctx desc [| vi 11; vs "late"; vs "odd"; vi 110 |]));
      let rest =
        let rec drain acc =
          match scan.Intf.rn_next () with
          | None ->
            scan.Intf.rn_close ();
            List.rev acc
          | Some run ->
            drain
              (List.rev_append
                 (Array.to_list run |> List.map (fun (_, r) -> r.(0)))
                 acc)
        in
        drain []
      in
      Alcotest.(check (list value_testable))
        "deleted record skipped, appended record seen"
        [ vi 4; vi 6; vi 7; vi 8; vi 9; vi 10; vi 11 ]
        rest);
  Services.commit services ctx

(* The run-granular position rule (Intf.run_scan) seen through the record
   view, on heap (one run per page) and memory (chunked runs): after one
   step, a record deleted inside the current run is still returned, since
   the run was read before the delete, while a record deleted in a later
   run is not. *)
let test_deletes_under_the_view () =
  let services = fresh_services () in
  let ctx = Services.begin_txn services in
  let check_rule sm desc ~pick =
    let scan = check_ok "scan" (Relation.scan ctx desc ()) in
    let first, _ = Option.get (scan.Intf.rs_next ()) in
    let inside, ahead = pick first in
    List.iter
      (fun k -> ignore (check_ok "del" (Relation.delete ctx desc k)))
      [ inside; ahead ];
    let rest = Scan_help.record_scan_to_list scan |> List.map fst in
    let returned k = List.exists (Record_key.equal k) rest in
    Alcotest.(check bool)
      (sm ^ ": deleted inside the current run, still returned")
      true (returned inside);
    Alcotest.(check bool)
      (sm ^ ": deleted in a later run, not returned")
      false (returned ahead)
  in
  let heap =
    check_ok "create"
      (Ddl.create_relation ctx ~name:"paged" ~schema:emp_schema
         ~storage_method:"heap" ())
  in
  let heap_keys =
    List.init 200 (fun i ->
        check_ok "ins"
          (Relation.insert ctx heap
             [| vi i; vs (String.make 100 'x'); vs "d"; vi i |]))
  in
  let page_of = function
    | Record_key.Rid { page; _ } -> page
    | k -> Alcotest.failf "not a RID: %a" Record_key.pp k
  in
  check_rule "heap" heap ~pick:(fun first ->
      let on_page k = page_of k = page_of first in
      ( List.find (fun k -> on_page k && not (Record_key.equal k first)) heap_keys,
        List.find (fun k -> not (on_page k)) heap_keys ));
  with_run_length 3 (fun () ->
      let mem = make_rel ctx ~storage_method:"memory" ~n:10 () in
      let keys =
        check_ok "keys" (Relation.scan_batch ctx mem ())
        |> Scan_help.run_scan_to_list |> List.map fst
      in
      (* runs of [1; 2; 3], [4; 5; 6], ...: the view is on record 1 *)
      check_rule "memory" mem ~pick:(fun _ ->
          (List.nth keys 1, List.nth keys 4)));
  Services.commit services ctx

(* a full heap batch scan pins each page exactly once — the deterministic
   counter E11 gates on *)
let test_heap_pins_per_page () =
  let services = fresh_services () in
  let ctx = Services.begin_txn services in
  let desc =
    check_ok "create"
      (Ddl.create_relation ctx ~name:"big" ~schema:emp_schema
         ~storage_method:"heap" ())
  in
  let keys =
    List.init 200 (fun i ->
        check_ok "ins"
          (Relation.insert ctx desc
             [| vi i; vs (String.make 100 'x'); vs "d"; vi i |]))
  in
  let pages =
    List.filter_map
      (function Record_key.Rid { page; _ } -> Some page | _ -> None)
      keys
    |> List.sort_uniq compare
  in
  Alcotest.(check bool) "spans several pages" true (List.length pages > 2);
  let io = Dmx_page.Disk.stats (Dmx_page.Buffer_pool.disk ctx.Ctx.bp) in
  let before = Dmx_page.Io_stats.copy io in
  let n = List.length (records_of_batch_scan ctx desc ()) in
  Alcotest.(check int) "all records scanned" 200 n;
  let d = Dmx_page.Io_stats.diff ~after:io ~before in
  Alcotest.(check int)
    "pins per batch scan = page count"
    (List.length pages)
    (d.Dmx_page.Io_stats.pool_hits + d.Dmx_page.Io_stats.pool_misses);
  Services.commit services ctx

(* the run length: the test override wins, and the default is 256 *)
let test_run_length_override () =
  Alcotest.(check int) "default" 256 (Scan_help.run_length ());
  with_run_length 7 (fun () ->
      Alcotest.(check int) "override" 7 (Scan_help.run_length ()));
  Alcotest.(check int) "restored" 256 (Scan_help.run_length ())

(* join through the executor rides the batch path; results must match a
   hand-computed nested loop over record scans *)
let test_join_parity () =
  let services = fresh_services () in
  let ctx = Services.begin_txn services in
  let emp_desc = make_rel ctx ~storage_method:"heap" ~n:12 () in
  let dept_schema =
    Schema.make_exn
      [
        Schema.column ~nullable:false "dname" Value.Tstring;
        Schema.column "floor" Value.Tint;
      ]
  in
  let dept_desc =
    check_ok "create dept"
      (Ddl.create_relation ctx ~name:"dept" ~schema:dept_schema
         ~storage_method:"btree" ~attrs:[ ("key", "dname") ] ())
  in
  List.iter
    (fun (d, f) ->
      ignore (check_ok "ins dept" (Relation.insert ctx dept_desc [| vs d; vi f |])))
    [ ("even", 2); ("odd", 1) ];
  let expected =
    let emps = records_of_record_scan ctx emp_desc () in
    let depts = records_of_record_scan ctx dept_desc () in
    List.concat_map
      (fun e ->
        List.filter_map
          (fun d ->
            if Value.equal e.(2) d.(0) && Value.compare e.(3) (vi 50) > 0 then
              Some (Array.append e d)
            else None)
          depts)
      emps
  in
  let q =
    Dmx_query.Query.join ~where:"salary > 50" "t_heap" ~on:("dept", "dept", "dname")
  in
  let plan =
    check_ok "translate" (Dmx_query.Planner.translate ctx q)
  in
  let rows = check_ok "run" (Dmx_query.Executor.run ctx plan ()) in
  let sort = List.sort (fun a b -> Value.compare a.(0) b.(0)) in
  Alcotest.(check (list record_testable)) "join parity" (sort expected) (sort rows);
  Services.commit services ctx

let suite =
  [
    Alcotest.test_case "batch/record parity (all methods)" `Quick
      test_batch_record_parity;
    Alcotest.test_case "torn final run" `Quick test_torn_final_run;
    Alcotest.test_case "mid-scan modification" `Quick test_midscan_modification;
    Alcotest.test_case "deletes under the record view" `Quick
      test_deletes_under_the_view;
    Alcotest.test_case "heap pins = page count" `Quick test_heap_pins_per_page;
    Alcotest.test_case "run-length override" `Quick test_run_length_override;
    Alcotest.test_case "join parity" `Quick test_join_parity;
  ]
