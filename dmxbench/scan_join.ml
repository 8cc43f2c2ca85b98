(* Read-only scans and a join, each query in its own autocommit
   transaction: a filtered heap scan the span matcher takes, a
   deep-predicate heap scan it cannot take, a 1000-key range on a
   B-tree-organised relation and a filtered nested-loop join. The heap is
   about 3.5 times the default 256-frame pool, so every scan evicts. *)
open Dmx_value
open Common

let emp_rows = 100_000
let kemp_rows = 20_000
let range_width = 1000
let pool_capacity = 256
let join_filter = "salary > 90000"

let queries =
  [
    ("scan", Query.select ~where:Session.span_filter "emp");
    ("expr_scan", Query.select ~where:Session.deep_filter "emp");
    ("range", Query.select ~where:"id >= ?0 AND id < ?1" "kemp");
    ("join", Query.join ~where:join_filter "emp" ~on:("dept", "dept", "dname"));
  ]

let exec_rows =
  [ ("scan", Row.exec_scan); ("expr_scan", Row.exec_expr_scan);
    ("range", Row.exec_range); ("join", Row.exec_join) ]

(* Row count and a checksum, computed from the generated data alone. *)
type expect = { rows : int; sum : int }

let dept_of (r : Record.t) =
  match r.(2) with
  | Value.String s -> int_of_string (String.sub s 1 (String.length s - 1))
  | _ -> fail "dept is not a string"

let starts_with_emp1 (r : Record.t) =
  match r.(1) with
  | Value.String s -> String.starts_with ~prefix:"emp1" s
  | _ -> false

let expect_of pred rows weight =
  Array.fold_left
    (fun e r -> if pred r then { rows = e.rows + 1; sum = e.sum + weight r } else e)
    { rows = 0; sum = 0 } rows

type t = {
  db : Db.t;
  tally : Session.tally;
  samples : (string * Samples.t) list;
  expected : (string * expect) list;
  kemp_prefix : int array;  (* kemp_prefix.(i) = sum of ids of kemp rows < i+1 *)
  ops : Random.State.t;
  mutable block : string list;  (* the rest of the current shuffled round *)
}

let load ~seed db =
  let st = rng seed in
  let emp = Array.init emp_rows (fun i -> random_row st (i + 1)) in
  let kemp = Array.init kemp_rows (fun i -> random_row st (i + 1)) in
  let floors = Array.init depts (fun _ -> 1 + Random.State.int st 50) in
  let dept_schema =
    Schema.make_exn
      [
        Schema.column ~nullable:false "dname" Value.Tstring;
        Schema.column "floor" Value.Tint;
      ]
  in
  ignore
    (ok "load"
       (Db.with_txn db (fun ctx ->
            ignore (ok "emp" (Db.create_relation db ctx ~name:"emp" ~schema:emp_schema ()));
            ignore
              (ok "kemp"
                 (Db.create_relation db ctx ~name:"kemp" ~schema:emp_schema
                    ~storage_method:"btree" ~attrs:[ ("key", "id") ] ()));
            ignore
              (ok "dept"
                 (Db.create_relation db ctx ~name:"dept" ~schema:dept_schema
                    ~storage_method:"btree" ~attrs:[ ("key", "dname") ] ()));
            ignore (ok "emp rows" (Db.insert_many db ctx ~relation:"emp" emp));
            ignore (ok "kemp rows" (Db.insert_many db ctx ~relation:"kemp" kemp));
            Db.insert_many db ctx ~relation:"dept"
              (Array.mapi
                 (fun d floor -> [| Value.String ("d" ^ string_of_int d); Value.int floor |])
                 floors))));
  let id r = int_field r 0 in
  let salary r = int_field r 3 in
  let expected =
    [
      ("scan", expect_of (fun r -> salary r > 60000 && dept_of r = 3) emp id);
      ( "expr_scan",
        expect_of
          (fun r -> salary r * 2 > 120000 && (dept_of r = 3 || starts_with_emp1 r))
          emp id );
      ("join", expect_of (fun r -> salary r > 90000) emp (fun r -> id r + floors.(dept_of r)));
    ]
  in
  let prefix = Array.make (kemp_rows + 1) 0 in
  Array.iteri (fun i r -> prefix.(i + 1) <- prefix.(i) + id r) kemp;
  (expected, prefix)

let create ~seed =
  let db = open_db ~pool_capacity () in
  let expected, kemp_prefix = load ~seed db in
  {
    db;
    tally = Session.tally ();
    samples = List.map (fun (name, _) -> (name, Samples.create ())) queries;
    expected;
    kemp_prefix;
    ops = rng (seed + 1);
    block = [];
  }

let check t cls want (rows : Record.t list) ~weight =
  let got =
    List.fold_left (fun e r -> { rows = e.rows + 1; sum = e.sum + weight r }) { rows = 0; sum = 0 } rows
  in
  if got <> want then
    Session.failure t.tally "%s: %d rows, checksum %d; expected %d rows, checksum %d" cls
      got.rows got.sum want.rows want.sum

let run_query t cls params =
  let q = List.assoc cls queries in
  Session.autocommit t.db (fun ctx ->
      Session.query t.db ctx q ~exec_row:(List.assoc cls exec_rows) params)

let do_query t cls =
  match cls with
  | "range" ->
    let lo = 1 + Random.State.int t.ops (kemp_rows - range_width + 1) in
    let want =
      { rows = range_width; sum = t.kemp_prefix.(lo + range_width - 1) - t.kemp_prefix.(lo - 1) }
    in
    Session.op t.tally (List.assoc cls t.samples) (fun () ->
        match run_query t cls [| Value.int lo; Value.int (lo + range_width) |] with
        | Ok rows -> check t cls want rows ~weight:(fun r -> int_field r 0)
        | Error e -> Session.failure t.tally "range: %s" (Error.to_string e))
  | _ ->
    let want = List.assoc cls t.expected in
    let weight =
      if cls = "join" then fun (r : Record.t) -> int_field r 0 + int_field r (Array.length r - 1)
      else fun r -> int_field r 0
    in
    Session.op t.tally (List.assoc cls t.samples) (fun () ->
        match run_query t cls [||] with
        | Ok rows -> check t cls want rows ~weight
        | Error e -> Session.failure t.tally "%s: %s" cls (Error.to_string e))

(* Query classes come in shuffled rounds of four, so each gets a quarter of
   the operations. *)
let step t () =
  if t.block = [] then begin
    let a = Array.of_list (List.map fst queries) in
    for i = Array.length a - 1 downto 1 do
      let j = Random.State.int t.ops (i + 1) in
      let x = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- x
    done;
    t.block <- Array.to_list a
  end;
  match t.block with
  | cls :: rest ->
    t.block <- rest;
    do_query t cls
  | [] -> ()

let probes t () =
  let ctx = Db.begin_txn t.db in
  let desc name = ok name (Db.relation t.db ctx name) in
  let kemp = desc "kemp" in
  let btree_ns =
    1e9
    *. Session.median_per ~per:kemp_rows (fun () ->
           Session.count_rows (ok "scan" (Relation.scan_batch ctx kemp ())))
  in
  let classes =
    List.map
      (fun (cls, q) ->
        (cls, q, if cls = "range" then [| Value.int 1; Value.int (1 + range_width) |] else [||]))
      queries
  in
  let p =
    Session.heap_probes t.db ctx (desc "emp")
    @ [ ("smethod.btree_org.scan_ns_per_row", btree_ns) ]
    @ Session.query_probes t.db ctx classes
  in
  Db.commit t.db ctx;
  p

let session ~seed =
  let t = create ~seed in
  {
    Session.db = (fun () -> t.db);
    step = step t;
    classes = t.samples;
    tally = t.tally;
    finish = (fun () -> []);
    probes = probes t;
    dispose = (fun () -> Db.close t.db);
  }
