(* dmx-querystore: statement fingerprints, the bounded statement store, and
   plan-change detection. *)
open Dmx_value
open Test_util
module Db = Dmx_db.Db
module Query = Dmx_query.Query
module Fingerprint = Dmx_query.Fingerprint
module Query_store = Dmx_obs.Query_store
module Event_ring = Dmx_obs.Event_ring
module Metrics = Dmx_obs.Metrics
module Trace = Dmx_obs.Trace
module Trace_reader = Dmx_obs.Trace_reader
module Obs_json = Dmx_obs.Obs_json

(* Every test restores the store/ring state it touched. *)
let with_store f =
  let cap = Query_store.current_capacity () in
  Fun.protect
    ~finally:(fun () ->
      Query_store.set_enabled false;
      Query_store.reset ();
      Query_store.set_capacity cap;
      Event_ring.set_enabled false;
      Metrics.set_enabled false)
    f

(* ---- fingerprint properties ---- *)

(* a literal-free statement template; holes are filled per property run *)
let template a b = Fmt.str "SELECT * FROM emp WHERE salary > %d AND name = '%s'" a b

(* non-negative: a leading minus is a unary operator token, not part of the
   literal, so "-1" and "1" normalize differently (as in pg_stat_statements) *)
let gen_literal_pair =
  QCheck.pair (QCheck.int_range 0 100_000)
    (QCheck.string_gen_of_size (QCheck.Gen.int_range 0 12)
       (QCheck.Gen.char_range 'a' 'z'))

let prop_literals_never_change_fingerprint =
  QCheck.Test.make ~count:200 ~name:"literal substitution preserves fingerprint"
    (QCheck.pair gen_literal_pair gen_literal_pair)
    (fun ((a1, s1), (a2, s2)) ->
      Fingerprint.of_text (template a1 s1) = Fingerprint.of_text (template a2 s2))

let prop_whitespace_and_case_invariant =
  QCheck.Test.make ~count:200 ~name:"whitespace and keyword case are canonical"
    (QCheck.pair gen_literal_pair (QCheck.int_range 1 5))
    (fun ((a, s), pad) ->
      let spaced =
        Fmt.str "select  *%sFROM emp  WHERE salary >  %d and NAME = '%s'"
          (String.make pad ' ') a s
      in
      Fingerprint.of_text spaced = Fingerprint.of_text (template a s))

let prop_structure_changes_fingerprint =
  QCheck.Test.make ~count:200 ~name:"structural edits always change fingerprint"
    gen_literal_pair
    (fun (a, s) ->
      let fp = Fingerprint.of_text (template a s) in
      fp <> Fingerprint.of_text (Fmt.str "SELECT * FROM dept WHERE salary > %d AND name = '%s'" a s)
      && fp <> Fingerprint.of_text (Fmt.str "SELECT * FROM emp WHERE salary < %d AND name = '%s'" a s)
      && fp <> Fingerprint.of_text (Fmt.str "SELECT id FROM emp WHERE salary > %d AND name = '%s'" a s))

let test_normalize_shape () =
  Alcotest.(check string)
    "literals become ? and text lowercases"
    "select * from emp where salary > ? and name = ?"
    (Fingerprint.normalize "SELECT  *  FROM Emp WHERE salary>123 AND name='O''Brien'");
  Alcotest.(check string)
    "positional params collapse too" "select * from t where a = ?"
    (Fingerprint.normalize "select * from t where a = ?0")

(* ---- store mechanics ---- *)

let mk_exec ?(us = 10.) ?(rows = 1) ?(error = false) ?plan fp =
  {
    Query_store.x_fp = Int64.of_int fp;
    x_text = Fmt.str "select %d" fp;
    x_sample = Fmt.str "select %d" fp;
    x_ts = Unix.gettimeofday ();
    x_us = us;
    x_rows = rows;
    x_error = error;
    x_pool_hits = 2;
    x_pool_misses = 1;
    x_page_reads = 1;
    x_wal_bytes = 0;
    x_lock_conflicts = 0;
    x_lock_waits = 0;
    x_vetoes = 0;
    x_plan = plan;
  }

let fps () = List.map (fun e -> Int64.to_int e.Query_store.e_fp) (Query_store.entries ())

let test_accumulation () =
  with_store (fun () ->
      Query_store.set_enabled true;
      Query_store.reset ();
      ignore (Query_store.record (mk_exec ~us:10. ~rows:3 1));
      ignore (Query_store.record (mk_exec ~us:30. ~rows:4 ~error:true 1));
      match Query_store.entries () with
      | [ e ] ->
        Alcotest.(check int) "calls" 2 e.Query_store.e_calls;
        Alcotest.(check int) "errors" 1 e.Query_store.e_errors;
        Alcotest.(check int) "rows" 7 e.Query_store.e_rows;
        Alcotest.(check int) "pool hits" 4 e.Query_store.e_pool_hits;
        Alcotest.(check int) "latency samples" 2
          (Metrics.histogram_count e.Query_store.e_latency);
        Alcotest.(check bool) "last_seen advances" true
          (e.Query_store.e_last_seen >= e.Query_store.e_first_seen)
      | es -> Alcotest.failf "expected 1 entry, got %d" (List.length es))

let test_lru_eviction () =
  with_store (fun () ->
      Query_store.set_enabled true;
      Query_store.reset ();
      Query_store.set_capacity 4;
      for fp = 1 to 4 do
        ignore (Query_store.record (mk_exec fp))
      done;
      (* touch 1 so 2 becomes the LRU victim *)
      ignore (Query_store.record (mk_exec 1));
      ignore (Query_store.record (mk_exec 5));
      Alcotest.(check int) "at capacity" 4 (Query_store.size ());
      Alcotest.(check int) "one eviction" 1 (Query_store.evicted ());
      Alcotest.(check (list int)) "victim was the LRU entry" [ 1; 3; 4; 5 ] (fps ());
      ignore (Query_store.record (mk_exec 6));
      Alcotest.(check (list int)) "next victim in LRU order" [ 1; 4; 5; 6 ] (fps ());
      Alcotest.(check int) "recorded counts every execution" 7
        (Query_store.recorded ()))

let test_reset () =
  with_store (fun () ->
      Query_store.set_enabled true;
      Query_store.set_capacity 2;
      for fp = 1 to 3 do
        ignore (Query_store.record (mk_exec fp))
      done;
      Alcotest.(check bool) "populated" true (Query_store.size () > 0);
      Query_store.reset ();
      Alcotest.(check int) "no entries" 0 (Query_store.size ());
      Alcotest.(check int) "evicted zeroed" 0 (Query_store.evicted ());
      Alcotest.(check int) "recorded zeroed" 0 (Query_store.recorded ());
      Alcotest.(check (list (pair string int)))
        "probe reads zeros"
        [ ("stmt.fingerprints", 0); ("stmt.recorded", 0); ("stmt.evicted", 0) ]
        (Query_store.probe ()))

let test_plan_notes () =
  with_store (fun () ->
      Query_store.set_enabled true;
      Query_store.reset ();
      let note h = Query_store.record (mk_exec ~plan:(Int64.of_int h) 1) in
      Alcotest.(check bool) "first plan" true (note 11 = Query_store.Plan_first);
      Alcotest.(check bool) "same plan" true (note 11 = Query_store.Plan_same);
      Alcotest.(check bool) "flip" true (note 22 = Query_store.Plan_changed 11L);
      let first_seen_11 =
        match Query_store.entries () with
        | [ e ] ->
          (List.find
             (fun u -> u.Query_store.pu_hash = 11L)
             e.Query_store.e_plans)
            .Query_store.pu_first_seen
        | _ -> Alcotest.fail "expected 1 entry"
      in
      Alcotest.(check bool) "flip back" true (note 11 = Query_store.Plan_changed 22L);
      (match Query_store.entries () with
      | [ e ] ->
        Alcotest.(check int) "history holds both" 2
          (List.length e.Query_store.e_plans);
        Alcotest.(check (float 0.))
          "flip back preserves first_seen" first_seen_11
          (List.find (fun u -> u.Query_store.pu_hash = 11L) e.Query_store.e_plans)
            .Query_store.pu_first_seen
      | _ -> Alcotest.fail "expected 1 entry");
      Alcotest.(check bool) "no plan supplied" true
        (Query_store.record (mk_exec 1) = Query_store.Plan_none))

let test_disabled_no_alloc () =
  with_store (fun () ->
      Query_store.set_enabled false;
      let x = mk_exec 7 in
      let w0 = Gc.minor_words () in
      for _ = 1 to 10_000 do
        ignore (Query_store.record x)
      done;
      let words = Gc.minor_words () -. w0 in
      Alcotest.(check bool)
        (Fmt.str "disabled record allocates nothing (%.0f words)" words)
        true (words < 256.);
      Alcotest.(check int) "nothing stored" 0 (Query_store.size ()))

(* ---- end to end: the query path feeds the store and the views ---- *)

let open_db () =
  ignore (fresh_services ());
  Db.open_database ()

(* With every trace consumer unsubscribed the statement observer is one
   branch on the shared gate, as its interface promises. *)
let test_inactive_observed_no_alloc () =
  with_store (fun () ->
      let db = open_db () in
      let ctx = Db.begin_txn db in
      Query_store.set_enabled false;
      Alcotest.(check bool) "no consumer subscribed" false
        (Dmx_obs.Trace.enabled ());
      let body ~set_plan =
        ignore set_plan;
        Ok 0
      in
      let w0 = Gc.minor_words () in
      for _ = 1 to 10_000 do
        ignore
          (Dmx_query.Stmt_obs.observed ctx ~text:"SELECT * FROM t" ~rows:Fun.id
             body)
      done;
      let words = Gc.minor_words () -. w0 in
      Alcotest.(check bool)
        (Fmt.str "inactive observed allocates nothing (%.0f words)" words)
        true (words < 256.);
      Db.abort db ctx;
      Db.close db)

let seed db n =
  check_ok "seed"
    (Db.with_txn db (fun ctx ->
         ignore
           (check_ok "create"
              (Db.create_relation db ctx ~name:"emp" ~schema:emp_schema ()));
         for i = 1 to n do
           ignore
             (check_ok "ins"
                (Db.insert db ctx ~relation:"emp"
                   [|
                     vi i; vs (Fmt.str "e%d" i); vs (Fmt.str "d%d" (i mod 5));
                     vi (1000 * i);
                   |]))
         done;
         Ok ()))

let test_query_path_records () =
  with_store (fun () ->
      let db = open_db () in
      Query_store.set_enabled true;
      Query_store.reset ();
      seed db 20;
      ignore
        (check_ok "selects"
           (Db.with_txn db (fun ctx ->
                (* three literal variants of one statement shape *)
                List.iter
                  (fun sal ->
                    ignore
                      (check_ok "q"
                         (Db.query db ctx
                            (Query.select
                               ~where:(Fmt.str "salary > %d" sal)
                               "emp")
                            ())))
                  [ 5_000; 10_000; 15_000 ];
                Ok ())));
      let entry =
        List.find
          (fun e ->
            e.Query_store.e_text = "select * from emp where salary > ?")
          (Query_store.entries ())
      in
      Alcotest.(check int) "variants collapse" 3 entry.Query_store.e_calls;
      Alcotest.(check int) "rows accumulate" (15 + 10 + 5)
        entry.Query_store.e_rows;
      Alcotest.(check int) "one plan so far" 1
        (List.length entry.Query_store.e_plans);
      (* the sample keeps Query.key's literal rendering, case included *)
      Alcotest.(check string) "last literal kept"
        "SELECT * FROM emp WHERE salary > 15000" entry.Query_store.e_sample;
      (* the sysview row agrees with the store *)
      ignore
        (check_ok "view"
           (Db.with_txn db (fun ctx ->
                let q =
                  Query.select
                    ~where:
                      (Fmt.str "fingerprint = '%s'"
                         (Fingerprint.hex entry.Query_store.e_fp))
                    ~project:[ "calls"; "rows" ] "dmx_statements"
                in
                (match check_ok "rows" (Db.query db ctx q ()) with
                | [ [| calls; rows |] ] ->
                  Alcotest.check value_testable "view calls" (vi 3) calls;
                  Alcotest.check value_testable "view rows" (vi 30) rows
                | rows ->
                  Alcotest.failf "expected 1 row, got %d" (List.length rows));
                Ok ())));
      Db.close db)

let test_plan_change_emits_event () =
  with_store (fun () ->
      let db = open_db () in
      Query_store.set_enabled true;
      Query_store.reset ();
      Event_ring.set_enabled true;
      (* enough rows that a unique-index probe beats the sequential scan *)
      seed db 300;
      let select ctx =
        ignore
          (check_ok "q"
             (Db.query db ctx (Query.select ~where:"id = 7" "emp") ()))
      in
      ignore
        (check_ok "workload"
           (Db.with_txn db (fun ctx ->
                select ctx;
                (* an index on id flips the plan from scan to probe *)
                ignore
                  (check_ok "idx"
                     (Db.create_attachment db ctx ~relation:"emp"
                        ~attachment_type:"btree_index" ~name:"pk"
                        ~attrs:[ ("fields", "id"); ("unique", "true") ] ()));
                select ctx;
                Ok ())));
      let entry =
        List.find
          (fun e -> e.Query_store.e_text = "select * from emp where id = ?")
          (Query_store.entries ())
      in
      Alcotest.(check int) "two plans in history" 2
        (List.length entry.Query_store.e_plans);
      let changed =
        List.filter
          (fun e -> e.Event_ring.e_name = "plan.changed")
          (Event_ring.snapshot ())
      in
      Alcotest.(check int) "one plan.changed event" 1 (List.length changed);
      (* the plans view shows both hashes, newest marked current *)
      ignore
        (check_ok "view"
           (Db.with_txn db (fun ctx ->
                let q =
                  Query.select
                    ~where:
                      (Fmt.str "fingerprint = '%s'"
                         (Fingerprint.hex entry.Query_store.e_fp))
                    ~project:[ "plan_hash"; "current" ] "dmx_statement_plans"
                in
                let rows = check_ok "rows" (Db.query db ctx q ()) in
                Alcotest.(check int) "two rows" 2 (List.length rows);
                Alcotest.(check int) "exactly one current" 1
                  (List.length
                     (List.filter (fun r -> r.(1) = Value.Bool true) rows));
                Ok ())));
      Db.close db)

(* Lowering the capacity takes effect at the next insertion, which evicts
   back below the new bound rather than one entry per insertion. *)
let test_capacity_shrinks () =
  with_store (fun () ->
      Query_store.set_enabled true;
      Query_store.reset ();
      Query_store.set_capacity 32;
      for fp = 1 to 20 do
        ignore (Query_store.record (mk_exec fp))
      done;
      Query_store.set_capacity 5;
      for fp = 21 to 25 do
        ignore (Query_store.record (mk_exec fp))
      done;
      Alcotest.(check int) "back at the new capacity" 5 (Query_store.size ());
      Alcotest.(check (list int)) "the newest survive" [ 21; 22; 23; 24; 25 ]
        (fps ());
      Alcotest.(check int) "every victim counted" 20 (Query_store.evicted ()))

(* ---- one aggregation: the trace replays into the same statistics ---- *)

let outcome_of x = Some (if x.Query_store.x_error then "error" else "ok")

let gen_exec =
  let open QCheck.Gen in
  let text =
    map (String.concat "")
      (list_size (int_range 0 12)
         (oneofl
            [ "select"; " "; "'"; "\""; "\\"; "?"; "\n"; "\t"; "\001";
              "\xc3\xa9"; "\xe6\x97\xa5\xe6\x9c\xac"; "a" ]))
  in
  let count = int_range 0 1_000_000 in
  let* fp = ui64 and* text = text and* ns = int_range 0 (1 lsl 40) in
  let* rows = count and* error = bool and* plan = opt ui64 in
  let* hits = count and* misses = count and* reads = count in
  let* wal = count and* conflicts = count and* waits = count
  and* vetoes = count and* ts = float_range 0. 2e9 in
  return
    {
      Query_store.x_fp = fp;
      x_text = text;
      x_sample = text;
      x_ts = ts;
      x_us = Query_store.us_of_ns ns;
      x_rows = rows;
      x_error = error;
      x_pool_hits = hits;
      x_pool_misses = misses;
      x_page_reads = reads;
      x_wal_bytes = wal;
      x_lock_conflicts = conflicts;
      x_lock_waits = waits;
      x_vetoes = vetoes;
      x_plan = plan;
    }

let prop_exec_round_trip =
  QCheck.Test.make ~count:500
    ~name:"exec survives the stmt.exec span attributes"
    (QCheck.make
       ~print:(fun x ->
         Obs_json.to_string (Obs_json.Obj (Query_store.exec_attrs x)))
       gen_exec)
    (fun x ->
      let line = Obs_json.to_string (Obs_json.Obj (Query_store.exec_attrs x)) in
      match Obs_json.parse line with
      | Ok (Obs_json.Obj attrs) ->
        Query_store.exec_of_span ~ts:x.x_ts ~outcome:(outcome_of x) attrs
        = Some x
      | _ -> false)

let check_same (live : Query_store.entry) (replayed : Query_store.entry) =
  let what s = Fmt.str "%s: %s" live.e_text s in
  let int s a b = Alcotest.(check int) (what s) a b in
  let near s a b = Alcotest.(check (float 1e-6)) (what s) a b in
  Alcotest.(check string) (what "text") live.e_text replayed.e_text;
  int "calls" live.e_calls replayed.e_calls;
  int "errors" live.e_errors replayed.e_errors;
  int "rows" live.e_rows replayed.e_rows;
  int "pool hits" live.e_pool_hits replayed.e_pool_hits;
  int "pool misses" live.e_pool_misses replayed.e_pool_misses;
  int "page reads" live.e_page_reads replayed.e_page_reads;
  int "wal bytes" live.e_wal_bytes replayed.e_wal_bytes;
  int "lock conflicts" live.e_lock_conflicts replayed.e_lock_conflicts;
  int "lock waits" live.e_lock_waits replayed.e_lock_waits;
  int "vetoes" live.e_vetoes replayed.e_vetoes;
  Alcotest.(check (array int)) (what "latency buckets")
    (Metrics.histogram_counts live.e_latency)
    (Metrics.histogram_counts replayed.e_latency);
  Alcotest.(check (list int64)) (what "plan hashes")
    (List.map (fun u -> u.Query_store.pu_hash) live.e_plans)
    (List.map (fun u -> u.Query_store.pu_hash) replayed.e_plans);
  near "first seen" live.e_first_seen replayed.e_first_seen;
  near "last seen" live.e_last_seen replayed.e_last_seen;
  List.iter2
    (fun (a : Query_store.plan_use) (b : Query_store.plan_use) ->
      near "plan first seen" a.pu_first_seen b.pu_first_seen;
      near "plan last seen" a.pu_last_seen b.pu_last_seen)
    live.e_plans replayed.e_plans

let test_online_offline_parity () =
  with_store (fun () ->
      let lines = ref [] in
      Fun.protect
        ~finally:(fun () ->
          Trace.set_enabled false;
          Trace.use_default_sink ();
          Trace.reset_for_testing ())
      @@ fun () ->
      let db = open_db () in
      Query_store.set_enabled true;
      Query_store.reset ();
      seed db 300;
      Trace.set_sink (fun l -> lines := l :: !lines);
      Trace.set_enabled true;
      let select ctx where =
        ignore (Db.query db ctx (Query.select ~where "emp") ())
      in
      ignore
        (check_ok "workload"
           (Db.with_txn db (fun ctx ->
                List.iter
                  (fun sal -> select ctx (Fmt.str "salary > %d" sal))
                  [ 5_000; 10_000; 15_000 ];
                (* the shell brackets its DML verbs the same way *)
                ignore
                  (Dmx_query.Stmt_obs.observed ctx
                     ~text:"insert into emp values (301, 'x', 'd1', 7)"
                     ~rows:Fun.id (fun ~set_plan:_ ->
                       Result.map
                         (fun _ -> 1)
                         (Db.insert db ctx ~relation:"emp"
                            [| vi 301; vs "x"; vs "d1"; vi 7 |])));
                (match
                   Db.query db ctx (Query.select ~where:"no_such = 1" "emp") ()
                 with
                | Ok _ -> Alcotest.fail "query on a missing column succeeded"
                | Error _ -> ());
                select ctx "id = 7";
                ignore
                  (check_ok "idx"
                     (Db.create_attachment db ctx ~relation:"emp"
                        ~attachment_type:"btree_index" ~name:"pk"
                        ~attrs:[ ("fields", "id"); ("unique", "true") ] ()));
                select ctx "id = 8";
                Ok ())));
      Trace.set_enabled false;
      let live = Query_store.entries () in
      Alcotest.(check bool) "an error was recorded" true
        (List.exists (fun e -> e.Query_store.e_errors > 0) live);
      Alcotest.(check bool) "a plan flipped" true
        (List.exists (fun e -> List.length e.Query_store.e_plans = 2) live);
      Query_store.reset ();
      List.rev !lines
      |> List.map (fun l ->
             match Trace_reader.parse_line l with
             | Ok r -> r
             | Error e -> Alcotest.failf "unparsable trace line %S: %s" l e)
      |> Trace_reader.replay_statements;
      let replayed = Query_store.entries () in
      Alcotest.(check (list int64)) "same fingerprints"
        (List.map (fun e -> e.Query_store.e_fp) live)
        (List.map (fun e -> e.Query_store.e_fp) replayed);
      List.iter2 check_same live replayed;
      Db.close db)

(* satellite: the telemetry-loss probe surfaces ring drops and trace
   truncation in the ordinary metrics snapshot *)
let test_telemetry_loss_probe () =
  with_store (fun () ->
      Metrics.set_enabled true;
      Event_ring.set_enabled true;
      let snap = Metrics.snapshot () in
      Alcotest.(check bool) "events.dropped exposed" true
        (List.mem_assoc "events.dropped" snap);
      Alcotest.(check bool) "trace.truncated exposed" true
        (List.mem_assoc "trace.truncated" snap))

let suite =
  [
    QCheck_alcotest.to_alcotest prop_literals_never_change_fingerprint;
    QCheck_alcotest.to_alcotest prop_whitespace_and_case_invariant;
    QCheck_alcotest.to_alcotest prop_structure_changes_fingerprint;
    Alcotest.test_case "normalize shape" `Quick test_normalize_shape;
    Alcotest.test_case "accumulation" `Quick test_accumulation;
    Alcotest.test_case "lru eviction" `Quick test_lru_eviction;
    Alcotest.test_case "reset" `Quick test_reset;
    Alcotest.test_case "plan notes" `Quick test_plan_notes;
    Alcotest.test_case "disabled mode allocates nothing" `Quick
      test_disabled_no_alloc;
    Alcotest.test_case "inactive statement path allocates nothing" `Quick
      test_inactive_observed_no_alloc;
    Alcotest.test_case "query path records" `Quick test_query_path_records;
    Alcotest.test_case "plan change emits event" `Quick
      test_plan_change_emits_event;
    Alcotest.test_case "telemetry loss probe" `Quick test_telemetry_loss_probe;
    Alcotest.test_case "lowered capacity shrinks the store" `Quick
      test_capacity_shrinks;
    QCheck_alcotest.to_alcotest prop_exec_round_trip;
    Alcotest.test_case "online and offline statement parity" `Quick
      test_online_offline_parity;
  ]
