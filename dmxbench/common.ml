(* Plumbing shared by the workloads: the configuration guard, seeded data,
   the instrumented page store, samples and the result checks. *)
open Dmx_value
module Db = Dmx_db.Db
module Error = Dmx_core.Error
module Io_stats = Dmx_page.Io_stats
module Disk = Dmx_page.Disk
module Services = Dmx_core.Services
module Relation = Dmx_core.Relation
module Intf = Dmx_core.Intf
module Query = Dmx_query.Query

(* A wrong result or a broken invariant of the benchmark itself. *)
exception Bench_failure of string

let fail fmt = Fmt.kstr (fun s -> raise (Bench_failure s)) fmt

let ok what = function
  | Ok v -> v
  | Error e -> fail "%s: %s" what (Error.to_string e)

(* ---- fixed configuration ---- *)

(* Engine knobs read from the environment. Any of them would make two
   checkouts run different programs under one benchmark. *)
let forbidden_env =
  [ ("DMX_CHECKPOINT_EVERY", `Exact); ("DMX_SCAN_BATCH", `Exact);
    ("DMX_METRICS", `Exact); ("DMX_TRACE", `Prefix); ("DMX_PROFILE", `Exact);
    ("DMX_EVENT", `Prefix); ("DMX_QUERYSTORE", `Prefix);
    ("DMX_SANITIZE", `Exact) ]

let engine_knobs_set () =
  Array.to_list (Unix.environment ())
  |> List.filter_map (fun kv ->
         let name =
           match String.index_opt kv '=' with
           | Some i -> String.sub kv 0 i
           | None -> kv
         in
         if
           List.exists
             (fun (knob, how) ->
               match how with
               | `Exact -> name = knob
               | `Prefix -> String.starts_with ~prefix:knob name)
             forbidden_env
         then Some name
         else None)

(* The flush policy both sides run with: the engine defaults. *)
let default_scan_run = 256

let check_flush_policy (db : Db.t) =
  let s = db.Db.services in
  let window = Dmx_txn.Txn_mgr.group_commit s.Services.txn_mgr in
  if window <> 1 then fail "group-commit window is %d, expected 1" window;
  if Services.checkpoint_policy s <> (0, 0) then fail "checkpoints are armed";
  let run = Dmx_core.Scan_help.run_length () in
  if run <> default_scan_run then
    fail "scan run length is %d, expected %d" run default_scan_run

(* ---- seeded data ---- *)

let rng seed = Random.State.make [| 0x6d78; seed |]

let emp_schema =
  Schema.make_exn
    [
      Schema.column ~nullable:false "id" Value.Tint;
      Schema.column "name" Value.Tstring;
      Schema.column "dept" Value.Tstring;
      Schema.column ~nullable:false "salary" Value.Tint;
    ]

let depts = 10

let emp_row ~id ~dept ~salary =
  [|
    Value.int id;
    Value.String ("emp" ^ string_of_int id);
    Value.String ("d" ^ string_of_int dept);
    Value.int salary;
  |]

let random_row st id =
  emp_row ~id ~dept:(Random.State.int st depts)
    ~salary:(30_000 + Random.State.int st 70_000)

let int_field (r : Record.t) i =
  match r.(i) with Value.Int n -> Int64.to_int n | _ -> fail "field %d is not an int" i

(* ---- the instrumented page store ---- *)

(* Layer rows for the traced run. Created once, so every workload reports
   the same rows. *)
module Row = struct
  let begin_ = Spans.row "txn.begin"
  let commit = Spans.row ~keep:true "txn.commit"
  let abort = Spans.row "txn.abort"
  let catalog = Spans.row "catalog.find_relation"
  let plan_cache = Spans.row "query.plan_cache"
  let translate = Spans.row "query.translate"
  let exec_select = Spans.row "query.executor.select"
  let exec_scan = Spans.row "query.executor.scan"
  let exec_expr_scan = Spans.row "query.executor.expr_scan"
  let exec_range = Spans.row "query.executor.range"
  let exec_join = Spans.row "query.executor.join"
  let lookup = Spans.row "attach.btree_index.lookup"
  let fetch = Spans.row "core.relation.fetch"
  let insert = Spans.row "core.relation.insert"
  let update = Spans.row "core.relation.update"
  let disk_read = Spans.row "page.disk.read"
  let disk_write = Spans.row "page.disk.write"
  let disk_sync = Spans.row "page.disk.sync"
end

(* The database's page store, wrapped so the traced run can time each page
   transfer. Untraced, the wrapper only delegates. *)
let instrumented inner =
  Disk.custom ~page_size:(Disk.page_size inner)
    {
      Disk.o_page_count = (fun () -> Disk.page_count inner);
      o_alloc = (fun () -> Disk.alloc inner);
      o_read = (fun id -> Spans.time Row.disk_read (fun () -> Disk.read inner id));
      o_write =
        (fun id data -> Spans.time Row.disk_write (fun () -> Disk.write inner id data));
      o_sync =
        (fun () ->
          (* an in-memory store's sync does nothing: neither time nor count it *)
          if Disk.is_file_backed inner then
            Spans.time Row.disk_sync (fun () -> Disk.sync inner));
      o_close = (fun () -> Disk.close inner);
      o_durable = Disk.is_file_backed inner;
    }

let open_db ?dir ~pool_capacity () =
  let inner =
    match dir with
    | Some d -> Disk.open_file (Filename.concat d "pages.dmx")
    | None -> Disk.in_memory ()
  in
  let db = Db.open_database ?dir ~disk:(instrumented inner) ~pool_capacity () in
  check_flush_policy db;
  db

(* Scratch directories live inside the working directory, one tree per
   process, removed at exit. *)
let scratch_dir =
  Filename.concat (Filename.concat ".bench_build" "dmxbench")
    (string_of_int (Unix.getpid ()))

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Unix.mkdir d 0o755
  end

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let dir_counter = ref 0

let fresh_dir () =
  incr dir_counter;
  let d = Filename.concat scratch_dir (string_of_int !dir_counter) in
  rm_rf d;
  mkdir_p d;
  d

(* ---- samples ---- *)

module Samples = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 1024 0.; n = 0 }

  let add t v =
    if t.n = Array.length t.a then begin
      let b = Array.make (2 * t.n) 0. in
      Array.blit t.a 0 b 0 t.n;
      t.a <- b
    end;
    t.a.(t.n) <- v;
    t.n <- t.n + 1

  let count t = t.n

  (* Nearest-rank quantile. *)
  let quantile t q =
    if t.n = 0 then nan
    else begin
      let s = Array.sub t.a 0 t.n in
      Array.sort Float.compare s;
      let k = int_of_float (Float.ceil (q *. float_of_int t.n)) - 1 in
      s.(max 0 (min (t.n - 1) k))
    end
end

let median l =
  let a = Array.of_list l in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let now = Spans.now

let timed f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

(* ---- heap and scans ---- *)

let peak_heap_mb () =
  let st = Gc.quick_stat () in
  float_of_int (st.Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.

(* Drain a run scan, folding [f] over its (key, record) pairs. *)
let drain_runs (scan : Intf.run_scan) f init =
  let rec loop acc =
    match scan.Intf.rn_next () with
    | None ->
      scan.Intf.rn_close ();
      acc
    | Some run -> loop (Array.fold_left f acc run)
  in
  loop init
