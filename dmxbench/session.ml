(* One workload instance: a loaded database plus its seeded operation
   stream. Both OLTP workloads and scan-join build one of these; the driver
   in [dmxbench.ml] only sees this record. *)
open Dmx_value
open Common

type t = {
  db : unit -> Db.t;  (** the open database (a restart replaces it) *)
  step : unit -> unit;
      (** generate, run and check the next operation; records its latency *)
  classes : (string * Samples.t) list;  (** latency samples per op class, s *)
  tally : tally;
  finish : unit -> (string * string * float) list;
      (** end-of-run checks; returns extra end-to-end figures *)
  probes : unit -> (string * float) list;
      (** traced-run micro-measurements on the loaded data *)
  dispose : unit -> unit;
}

and tally = { mutable ops : int; mutable failed : int }

let tally () = { ops = 0; failed = 0 }

let failure tally fmt =
  Fmt.kstr
    (fun msg ->
      tally.failed <- tally.failed + 1;
      if tally.failed <= 5 then prerr_endline ("dmxbench: wrong result: " ^ msg))
    fmt

(* Autocommit: begin, run, commit on [Ok], abort on [Error]. *)
let autocommit db f =
  let ctx = Spans.time Row.begin_ (fun () -> Db.begin_txn db) in
  match f ctx with
  | Ok _ as r ->
    Spans.time Row.commit (fun () -> Db.commit db ctx);
    r
  | Error _ as r ->
    Spans.time Row.abort (fun () -> Db.abort db ctx);
    r

(* A query through the plan cache. Traced, the two halves of [Db.query]
   are timed apart: the cache probe, then the executor. *)
let query db ctx (q : Query.t) ~exec_row params =
  if not !Spans.on then Db.query db ctx q ~params ()
  else begin
    let plan =
      match
        Spans.time Row.plan_cache (fun () ->
            match Dmx_query.Plan_cache.peek db.Db.cache q with
            | Some plan when Dmx_query.Plan.valid ctx plan -> Some plan
            | _ -> None)
      with
      | Some plan -> Ok plan
      | None ->
        (* first use: bind the plan as [Db.query] would *)
        Result.bind
          (Spans.time Row.translate (fun () -> Db.explain db ctx q))
          (fun _ ->
            Option.to_result ~none:(Error.Internal "no plan after translation")
              (Dmx_query.Plan_cache.peek db.Db.cache q))
    in
    Result.bind plan (fun plan ->
        Spans.time exec_row (fun () -> Dmx_query.Executor.run ctx plan ~params ()))
  end

(* Time [f] as one operation of class [samples]. *)
let op tally samples f =
  let t0 = now () in
  f ();
  Samples.add samples (now () -. t0);
  tally.ops <- tally.ops + 1

(* The two filters of the scan workload: one the span matcher takes, one
   too deep for it. *)
let span_filter = "salary > 60000 AND dept = 'd3'"
let deep_filter = "salary * 2 > 120000 AND (dept = 'd3' OR name LIKE 'emp1%')"

let probe_reps = 7

let count_rows scan = drain_runs scan (fun n _ -> n + 1) 0

(* Median wall-clock of [probe_reps] calls of [f], per [per] units. *)
let median_per ~per f =
  median
    (List.init probe_reps (fun _ ->
         let _, secs = timed f in
         secs /. float_of_int (max 1 per)))

(* Storage-method and predicate cost on a heap relation: an unfiltered
   [scan_batch] drain, and each filter's extra cost over it, per row
   scanned; plus buffer-pool pins per heap page. *)
let heap_probes db ctx desc =
  let schema = desc.Dmx_catalog.Descriptor.schema in
  let scan ?filter () =
    let filter = Option.map (Dmx_expr.Parse.parse_exn schema) filter in
    ok "scan" (Relation.scan_batch ctx desc ?filter ())
  in
  let pages = Hashtbl.create 1024 in
  let rows =
    drain_runs (scan ())
      (fun n (key, _) ->
        (match key with
        | Record_key.Rid { page; _ } -> Hashtbl.replace pages page ()
        | Record_key.Fields _ -> ());
        n + 1)
      0
  in
  let io = Services.io_stats db.Db.services in
  let before = Io_stats.copy io in
  ignore (count_rows (scan ()));
  let d = Io_stats.diff ~after:(Io_stats.copy io) ~before in
  let ns ?filter () = 1e9 *. median_per ~per:rows (fun () -> count_rows (scan ?filter ())) in
  let plain = ns () in
  [
    ("smethod.heap.scan_ns_per_row", plain);
    ( "smethod.heap.pins_per_page",
      float_of_int (d.Io_stats.pool_hits + d.Io_stats.pool_misses)
      /. float_of_int (max 1 (Hashtbl.length pages)) );
    ("expr.span_filter_ns_per_row", ns ~filter:span_filter () -. plain);
    ("expr.deep_filter_ns_per_row", ns ~filter:deep_filter () -. plain);
  ]

(* Planner and executor figures for the workload's query classes:
   translation time, and rows produced by the plan's operators below the
   result per row returned, from EXPLAIN ANALYZE. A filter pushed into a
   storage method hides the rows it skipped, so a pushed-down scan reads 1
   and a nested-loop join 2. *)
let query_probes db ctx classes =
  let translate =
    List.map
      (fun (_, q, _) ->
        median_per ~per:1 (fun () -> ok "translate" (Dmx_query.Planner.translate ctx q)))
      classes
  in
  let examined, returned =
    List.fold_left
      (fun (e, r) (_, q, params) ->
        let rows, st = ok "explain analyze" (Db.explain_analyze db ctx q ~params ()) in
        let rec produced (s : Dmx_query.Executor.op_stats) =
          match s.os_children with
          | [] -> s.os_rows
          | kids -> List.fold_left (fun acc k -> acc + produced k) 0 kids
        in
        (e + produced st, r + List.length rows))
      (0, 0) classes
  in
  [
    ("query.planner.translate_us", 1e6 *. median translate);
    ("query.executor.rows_examined_per_row", float_of_int examined /. float_of_int (max 1 returned));
  ]
