(* The autocommit OLTP mix over heap [account(id, name, dept, salary)] with
   a unique [btree_index] on [id]: about 50% point selects through the plan
   cache, 30% salary updates through the index, 18% inserts of new ids and
   2% inserts of existing ids, which the unique index must veto. The same
   mix runs on a file-backed database ([oltp-durable], force-at-commit with
   WAL flush and fsync on every commit) and an in-memory one ([oltp-memory],
   where the CPU path is all that is left). *)
open Dmx_value
open Common

let rows = 20_000

(* Holds the table and its index as they grow during a run, so nothing
   evicts; not larger, because the commit-time force walks every frame. *)
let pool_capacity = 1024

let select_q = Query.select ~where:"id = ?0" "account"

type t = {
  mutable db : Db.t;
  dir : string option;
  model : (int, Record.t) Hashtbl.t;  (* every acknowledged row *)
  mutable next_id : int;
  ops : Random.State.t;
  tally : Session.tally;
  select : Samples.t;
  update : Samples.t;
  insert : Samples.t;
  bt : int;
  mutable pk : int;
}

let load ~seed db =
  let st = rng seed in
  let model = Hashtbl.create (2 * rows) in
  let records = Array.init rows (fun i -> random_row st (i + 1)) in
  Array.iter (fun r -> Hashtbl.replace model (int_field r 0) r) records;
  ignore
    (ok "load"
       (Db.with_txn db (fun ctx ->
            ignore
              (ok "create"
                 (Db.create_relation db ctx ~name:"account" ~schema:emp_schema ()));
            ok "pk"
              (Db.create_attachment db ctx ~relation:"account"
                 ~attachment_type:"btree_index" ~name:"pk"
                 ~attrs:[ ("fields", "id"); ("unique", "true") ] ());
            Db.insert_many db ctx ~relation:"account" records)));
  model

let pk_instance db =
  ok "pk"
    (Db.with_txn db (fun ctx ->
         let desc = ok "account" (Db.relation db ctx "account") in
         match Dmx_attach.Btree_index.instance_number desc ~name:"pk" with
         | Some n -> Ok n
         | None -> fail "no pk instance"))

let create ~durable ~seed =
  let dir = if durable then Some (fresh_dir ()) else None in
  let db = open_db ?dir ~pool_capacity () in
  let model = load ~seed db in
  {
    db;
    dir;
    model;
    next_id = rows + 1;
    ops = rng (seed + 1);
    tally = Session.tally ();
    select = Samples.create ();
    update = Samples.create ();
    insert = Samples.create ();
    bt = Dmx_attach.Btree_index.id ();
    pk = pk_instance db;
  }

let account t ctx = Spans.time Row.catalog (fun () -> Db.relation t.db ctx "account")

let do_select t id =
  let expect = Hashtbl.find t.model id in
  match
    Session.autocommit t.db (fun ctx ->
        Session.query t.db ctx select_q ~exec_row:Row.exec_select
          [| Value.int id |])
  with
  | Ok [ r ] when Record.equal r expect -> ()
  | Ok rows -> Session.failure t.tally "select id=%d returned %d rows" id (List.length rows)
  | Error e -> Session.failure t.tally "select id=%d: %s" id (Error.to_string e)

let do_update t id salary =
  let expect = Hashtbl.find t.model id in
  let next = Array.copy expect in
  next.(3) <- Value.int salary;
  let r =
    Session.autocommit t.db (fun ctx ->
        match account t ctx with
        | Error _ as e -> e
        | Ok desc -> (
          match
            Spans.time Row.lookup (fun () ->
                Relation.lookup ctx desc ~attachment_id:t.bt ~instance:t.pk
                  ~key:[| Value.int id |])
          with
          | Error _ as e -> e
          | Ok [ key ] -> (
            match Spans.time Row.fetch (fun () -> Relation.fetch ctx desc key ()) with
            | Error _ as e -> e
            | Ok (Some cur) when Record.equal cur expect ->
              Spans.time Row.update (fun () ->
                  Db.update t.db ctx ~relation:"account" key next)
              |> Result.map (fun _ -> `Updated)
            | Ok _ -> Ok `Stale)
          | Ok keys -> Ok (`Keys (List.length keys))))
  in
  match r with
  | Ok `Updated -> Hashtbl.replace t.model id next
  | Ok `Stale -> Session.failure t.tally "update id=%d fetched a different row" id
  | Ok (`Keys n) -> Session.failure t.tally "update id=%d: index gave %d keys" id n
  | Error e -> Session.failure t.tally "update id=%d: %s" id (Error.to_string e)

let insert t record =
  Session.autocommit t.db (fun ctx ->
      Spans.time Row.insert (fun () -> Db.insert t.db ctx ~relation:"account" record))

let do_insert t record =
  match insert t record with
  | Ok _ -> Hashtbl.replace t.model (int_field record 0) record
  | Error e -> Session.failure t.tally "insert: %s" (Error.to_string e)

(* An existing id with other field values: the unique index must veto it,
   and the stored row must stay as it was. *)
let do_duplicate t record =
  match insert t record with
  | Error (Error.Veto _) -> ()
  | Ok _ ->
    Session.failure t.tally "duplicate id=%d was accepted" (int_field record 0)
  | Error e ->
    Session.failure t.tally "duplicate id=%d: %s, not a veto" (int_field record 0)
      (Error.to_string e)

let step t () =
  let st = t.ops in
  let live = t.next_id - 1 in
  let roll = Random.State.int st 100 in
  if roll < 50 then begin
    let id = 1 + Random.State.int st live in
    Session.op t.tally t.select (fun () -> do_select t id)
  end
  else if roll < 80 then begin
    let id = 1 + Random.State.int st live in
    let salary = 30_000 + Random.State.int st 70_000 in
    Session.op t.tally t.update (fun () -> do_update t id salary)
  end
  else if roll < 98 then begin
    let record = random_row st t.next_id in
    t.next_id <- t.next_id + 1;
    Session.op t.tally t.insert (fun () -> do_insert t record)
  end
  else begin
    let id = 1 + Random.State.int st live in
    let record = random_row st id in
    record.(1) <- Value.String "duplicate";
    Session.op t.tally t.insert (fun () -> do_duplicate t record)
  end

(* Every acknowledged row is stored exactly as acknowledged, and nothing
   else is: no vetoed duplicate, no lost insert. *)
let verify t =
  let seen = Hashtbl.create (Hashtbl.length t.model) in
  ignore
    (ok "verify"
       (Db.with_txn t.db (fun ctx ->
            let desc = ok "account" (Db.relation t.db ctx "account") in
            let scan = ok "scan" (Relation.scan_batch ctx desc ()) in
            drain_runs scan
              (fun () (_, r) ->
                let id = int_field r 0 in
                if Hashtbl.mem seen id then
                  Session.failure t.tally "id=%d stored twice" id;
                Hashtbl.replace seen id ();
                match Hashtbl.find_opt t.model id with
                | Some m when Record.equal m r -> ()
                | Some _ -> Session.failure t.tally "id=%d stored wrong" id
                | None -> Session.failure t.tally "id=%d stored but never acknowledged" id)
              ();
            Ok ())));
  Hashtbl.iter
    (fun id _ ->
      if not (Hashtbl.mem seen id) then
        Session.failure t.tally "acknowledged id=%d is missing" id)
    t.model;
  (* the index recovered too: a sample of point selects through it *)
  let st = rng (Hashtbl.length t.model) in
  for _ = 1 to 200 do
    do_select t (1 + Random.State.int st (t.next_id - 1))
  done

(* Crash without any clean-shutdown work, reopen, and check that every
   acknowledged write survived. [restart_s] is the reopen alone. *)
let crash_and_restart t dir =
  Services.simulate_crash t.db.Db.services;
  let db, secs = timed (fun () -> open_db ~dir ~pool_capacity ()) in
  t.db <- db;
  t.pk <- pk_instance db;
  verify t;
  [ ("restart_s", "s", secs) ]

let finish t () =
  match t.dir with
  | Some dir -> crash_and_restart t dir
  | None ->
    verify t;
    []

let dispose t () =
  (try Db.close t.db with _ -> ());
  Option.iter rm_rf t.dir

let probes t () =
  let ctx = Db.begin_txn t.db in
  let desc = ok "account" (Db.relation t.db ctx "account") in
  let p =
    Session.heap_probes t.db ctx desc
    @ Session.query_probes t.db ctx [ ("select", select_q, [| Value.int 1 |]) ]
  in
  Db.commit t.db ctx;
  p

let session ~durable ~seed =
  let t = create ~durable ~seed in
  {
    Session.db = (fun () -> t.db);
    step = step t;
    classes = [ ("select", t.select); ("update", t.update); ("insert", t.insert) ];
    tally = t.tally;
    finish = finish t;
    probes = probes t;
    dispose = dispose t;
  }
