(* The dmx benchmark.

     dmxbench --workload NAME --seed N --seconds S --trace 0|1
     dmxbench --counts W1,W2,... --seed N
     dmxbench --describe

   One client, closed loop, one process: each operation is generated from
   the seed, sent through the public [Db] facade, checked against the
   benchmark's own model, and only then is the next one generated.

   [--trace 0] measures the end-to-end metrics. [--trace 1] measures the
   per-layer ones: it drives the operation stream untraced for part of the
   time, then drives exactly the same operations again on a fresh copy of
   the data with every layer call timed, and prints the layer table. The
   last line of standard output is always the JSON result. [--counts] prints
   the deterministic counts of fixed-length runs (the self-test compares
   them), [--describe] the benchmark's definition (BENCHMARK.json). *)
open Common

type workload = {
  name : string;
  why : string;
  create : seed:int -> Session.t;
  counted_ops : int;  (* operations of a [--counts] run *)
  episode_ops : int;  (* operations of one end-to-end episode *)
}

let workloads =
  [
    {
      name = "oltp-durable";
      why =
        "file-backed autocommit OLTP on a 20k-row heap with a unique \
         btree_index, about 380 pages in a 1024-frame pool: each commit pays \
         WAL flush, fsync and page force; crash and restart";
      create = (fun ~seed -> Oltp.session ~durable:true ~seed);
      counted_ops = 400;
      episode_ops = 3000;
    };
    {
      name = "oltp-memory";
      why =
        "the same OLTP data, mix and seed in memory: with fsync gone the time \
         is plan cache, executor, index probe, dispatch, locks and commit \
         bookkeeping";
      create = (fun ~seed -> Oltp.session ~durable:false ~seed);
      counted_ops = 3000;
      episode_ops = 8000;
    };
    {
      name = "scan-join";
      why =
        "read-only scans, a btree range and a join over a 100k-row heap of \
         about 900 pages (1350 in all) against the default 256-frame pool, \
         so every scan evicts";
      create = (fun ~seed -> Scan_join.session ~seed);
      counted_ops = 12;
      episode_ops = 60;
    };
  ]

(* ---- metric definitions ---- *)

(* End-to-end metrics, reported by every workload. [bound] is the share of
   the parent's median by which the metric may worsen. The timings carry
   the largest bound: on a shared 2-vCPU VM the same episode takes from 1x
   to 1.6x as long from one minute to the next, and fsync latency drifts
   too. Scaling to the reference host ([reference_share]) removes most of
   the first, none of the second. *)
let end_to_end =
  [
    ("ref_throughput_ops_s", "1/s", "higher", 0.25);
    ("ref_class_p50_geomean_us", "us", "lower", 0.25);
    ("peak_heap_mb", "MB", "lower", 0.1);
    ("setup_s", "s", "lower", 0.25);
  ]

let run_seconds = 35

(* Per-layer metrics, reported by every workload (0 where the workload has
   no such work), each with the end-to-end metric and workload it should
   move. *)
let per_layer =
  let on_d = "ref_throughput_ops_s and the p50s on oltp-durable" in
  let sj = "the scan-join p50s" in
  [
    ("page.disk.reads", "count/op", on_d);
    ("page.disk.read_us", "us", on_d);
    ("page.disk.writes", "count/op", on_d);
    ("page.disk.write_us", "us", on_d);
    ("page.disk.syncs", "count/op", on_d);
    ("page.disk.sync_us", "us", on_d);
    ("page.buffer_pool.hit_ratio", "ratio", sj ^ "; flat on OLTP");
    ("page.buffer_pool.misses", "count/op", sj ^ "; flat on OLTP");
    ("page.buffer_pool.evictions", "count/op", sj ^ "; flat on OLTP");
    ("wal.flushes", "count/op", "ref_throughput_ops_s and restart_s on oltp-durable");
    ("wal.fsyncs", "count/op", "ref_throughput_ops_s and restart_s on oltp-durable");
    ("wal.flush_us", "us", "ref_throughput_ops_s and restart_s on oltp-durable");
    ("wal.bytes_per_op", "B/op", "ref_throughput_ops_s and restart_s on oltp-durable");
    ("wal.records_resident", "count", "peak_heap_mb on oltp-memory");
    ("txn.begin_us", "us", "ref_throughput_ops_s on both OLTP workloads");
    ("txn.commit_us", "us", "ref_throughput_ops_s on both OLTP workloads");
    ("txn.commit_p99_us", "us", "ref_throughput_ops_s on both OLTP workloads");
    ("txn.fsyncs_per_commit", "count", "ref_throughput_ops_s on both OLTP workloads");
    ("txn.page_writes_per_commit", "count", "ref_throughput_ops_s on both OLTP workloads");
    ("lock.grants_per_op", "count/op", "the p50s on oltp-memory");
    ("core.relation.insert_us", "us", "insert_p50_us on oltp-memory");
    ("core.relation.update_us", "us", "update_p50_us on oltp-memory");
    ("core.dispatch.sm_calls_per_op", "count/op", "insert_p50_us and update_p50_us on oltp-memory");
    ("core.dispatch.at_calls_per_op", "count/op", "insert_p50_us and update_p50_us on oltp-memory");
    ("attach.btree_index.lookup_us", "us", "select_p50_us and update_p50_us on oltp-memory");
    ("attach.btree_index.pins_per_lookup", "count", "select_p50_us and update_p50_us on oltp-memory");
    ("query.plan_cache.lookup_us", "us", "select_p50_us on oltp-memory");
    ("query.plan_cache.translations", "count", "select_p50_us on oltp-memory");
    ("query.planner.translate_us", "us", sj);
    ("query.executor.select_run_us", "us", "select_p50_us on the OLTP workloads");
    ("query.executor.scan_run_us", "us", "scan_p50_ms on scan-join");
    ("query.executor.expr_scan_run_us", "us", "expr_scan_p50_ms on scan-join");
    ("query.executor.range_run_us", "us", "range_p50_ms on scan-join");
    ("query.executor.join_run_us", "us", "join_p50_ms on scan-join");
    ("query.executor.rows_examined_per_row", "ratio", sj);
    ("expr.span_filter_ns_per_row", "ns", "scan_p50_ms on scan-join");
    ("expr.deep_filter_ns_per_row", "ns", "expr_scan_p50_ms on scan-join");
    ("smethod.heap.scan_ns_per_row", "ns", sj ^ " and setup_s");
    ("smethod.heap.pins_per_page", "count", sj ^ " and setup_s");
    ("smethod.btree_org.scan_ns_per_row", "ns", sj ^ " and setup_s");
    ("unattributed_share", "ratio", "none: the part of wall-clock no row explains");
    ("obs.trace_overhead", "ratio", "none: traced over untraced wall-clock");
  ]
  @ List.map
      (fun (r : Spans.row) ->
        ("self." ^ r.name ^ "_us", "us/op", "self time per operation of this layer row"))
      (Spans.rows ())
  @ [ ("self.unattributed_us", "us/op", "wall-clock per operation no row explains") ]

(* ---- output ---- *)

let json_string s = "\"" ^ String.escaped s ^ "\""

let json_number v =
  if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let print_result ~correct ~attempted ~failed metrics =
  let m =
    List.map
      (fun (name, unit, v) ->
        Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_string name)
          (json_number v) (json_string unit))
      metrics
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed (String.concat ", " m)

let describe () =
  let obj fields = "{" ^ String.concat ", " fields ^ "}" in
  let kv k v = json_string k ^ ": " ^ v in
  let list items = "[\n    " ^ String.concat ",\n    " items ^ "\n  ]" in
  print_string
    (String.concat ""
       [
         "{\n  \"command\": [\"python3\", \"dmxbench/run.py\"],\n";
         "  \"paths\": [\"dmxbench\"],\n";
         Printf.sprintf "  \"run_seconds\": %d,\n" run_seconds;
         "  \"workloads\": ";
         list
           (List.map
              (fun w -> obj [ kv "name" (json_string w.name); kv "why" (json_string w.why) ])
              workloads);
         ",\n  \"end_to_end\": ";
         list
           (List.map
              (fun (n, u, b, bound) ->
                obj
                  [ kv "name" (json_string n); kv "unit" (json_string u);
                    kv "better" (json_string b); kv "bound" (Printf.sprintf "%g" bound) ])
              end_to_end);
         ",\n  \"per_layer\": ";
         list
           (List.map
              (fun (n, u, _) ->
                obj
                  [ kv "name" (json_string n); kv "unit" (json_string u);
                    kv "better" (json_string (if n = "page.buffer_pool.hit_ratio" then "higher" else "lower")) ])
              per_layer);
         "\n}\n";
       ])

(* ---- counters on the workload's own database ---- *)

let metric_counter name = Dmx_obs.Metrics.value (Dmx_obs.Metrics.counter name)

(* Everything counted, as (name, value). Counts come from the workload's own
   [Db.t] (its page store, plan cache and log) or are deltas of native
   counters around a single-threaded stretch, never from a probe that some
   other database might have re-pointed. *)
let counters (s : Session.t) =
  let db = s.db () in
  let io = Services.io_stats db.Db.services in
  let wal = db.Db.services.Services.wal in
  let pc = Dmx_query.Plan_cache.stats db.Db.cache in
  let sm, at = Relation.dispatch_stats () in
  [
    ("io.page_reads", io.Io_stats.page_reads);
    ("io.page_writes", io.page_writes);
    ("io.page_allocs", io.page_allocs);
    ("io.pool_hits", io.pool_hits);
    ("io.pool_misses", io.pool_misses);
    ("wal.appends", Int64.to_int (Dmx_wal.Wal.last_lsn wal));
    ("wal.appended_bytes", Dmx_wal.Wal.appended_bytes wal);
    ("plan_cache.translations", pc.Dmx_query.Plan_cache.translations);
    ("dispatch.sm_calls", sm);
    ("dispatch.at_calls", at);
    ("metric.wal.flushes", metric_counter "wal.flushes");
    ("metric.wal.fsyncs", metric_counter "wal.fsyncs");
    ("metric.lock.grants", metric_counter "lock.grants");
    ("metric.bp.evictions", metric_counter "bp.evictions");
  ]

let delta after before =
  List.map2 (fun (n, a) (_, b) -> (n, a - b)) after before

let io_counts = List.filter (fun (n, _) -> String.starts_with ~prefix:"io." n)

(* ---- runs ---- *)

let run_for s seconds =
  let t0 = now () in
  while now () -. t0 < seconds do
    s.Session.step ()
  done;
  now () -. t0

let run_n s n =
  let t0 = now () in
  for _ = 1 to n do
    s.Session.step ()
  done;
  now () -. t0

let min_episodes = 3

(* ---- the host's speed ---- *)

let cpu_now () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let reference = lazy (Calib.create ())

(* Seconds of operations between two runs of the reference task. *)
let reference_every = 0.02

(* [w.episode_ops] operations, with the reference task run between two of
   them every [reference_every] seconds. Returns the operations' wall-clock
   and CPU time, the reference task's excluded, and the reference task's
   median time. *)
let run_episode (s : Session.t) n =
  let r = Lazy.force reference in
  let times = ref [] and paused = ref 0. in
  let t0 = now () and c0 = cpu_now () in
  let last = ref t0 in
  for _ = 1 to n do
    s.step ();
    let t = now () in
    if t -. !last >= reference_every then begin
      Calib.run r;
      let t' = now () in
      times := (t' -. t) :: !times;
      paused := !paused +. (t' -. t);
      last := t'
    end
  done;
  let wall = now () -. t0 -. !paused in
  let cpu = cpu_now () -. c0 -. !paused in
  (wall, cpu, if !times = [] then Calib.nominal else median !times)

(* The share of an episode's wall-clock it would take on the reference
   host: its CPU time is scaled by the host's speed ([Calib.speed]), and
   the time it spent blocked (fsync) is kept as it is. *)
let reference_share ~wall ~cpu ~reference =
  let cpu = Float.min cpu wall in
  ((cpu *. Calib.speed ~time:reference) +. (wall -. cpu)) /. wall

(* Collect the previous set-up's garbage before anything is timed, so the
   next timed stretch does not pay for it. *)
let settle () = Gc.full_major ()

let print_header w ~seed ~seconds ~trace =
  Printf.printf "dmxbench %s seed=%d seconds=%g trace=%d\n" w.name seed seconds trace;
  Printf.printf
    "  flush policy: group-commit window 1, checkpoints off, scan run length %d\n"
    default_scan_run

let print_sizes label (s : Session.t) =
  let services = (s.db ()).Db.services in
  Printf.printf "  data %s: %d pages, pool %d frames\n" label
    (Disk.page_count services.Services.disk)
    (Dmx_page.Buffer_pool.capacity services.Services.bp)

(* End-to-end run: episodes of set-up, [w.episode_ops] operations and the
   end checks, repeated until [seconds] have passed (at least
   [min_episodes] of them). Every episode of a run does the same work from
   the same state, so its speed depends on the host alone: in one long
   stretch the engine's heap, and the collector's work per operation, would
   grow with the operations done, so a faster host would also measure a
   different stretch of the stream. The gated timings are medians over the
   episodes, each episode's scaled to the reference host's speed
   ([reference_share]; a set-up by the reference task's time in the
   operations that follow it). The times as measured are printed beside
   them. *)
let e2e w ~seed ~seconds =
  ignore (Lazy.force reference);
  (* a warm-up episode, checked but not timed: the first episodes of a
     process run slower while the runtime maps its heap *)
  settle ();
  let warm = w.create ~seed in
  ignore (run_n warm w.episode_ops);
  ignore (warm.finish ());
  warm.dispose ();
  let t0 = now () in
  let setups = ref [] and ref_setups = ref [] and rates = ref [] and ref_rates = ref [] in
  let geomeans = ref [] and ref_geomeans = ref [] and extras = ref [] in
  let pooled = ref [] and heap = ref nan in
  let attempted = ref warm.tally.ops and failed = ref warm.tally.failed in
  while List.length !rates < min_episodes || now () -. t0 < seconds do
    settle ();
    let c0 = cpu_now () in
    let s, setup = timed (fun () -> w.create ~seed) in
    let setup_cpu = cpu_now () -. c0 in
    let first = !rates = [] in
    if first then print_sizes "after set-up" s;
    settle ();
    let wall, cpu, reference = run_episode s w.episode_ops in
    if first then begin
      (* the top heap after a fixed number of operations, so that it does
         not grow with the number of episodes *)
      heap := peak_heap_mb ();
      print_sizes "at the end" s;
      pooled := List.map (fun (cls, _) -> (cls, Samples.create ())) s.classes
    end;
    let extra = s.finish () in
    s.dispose ();
    let p50s = List.map (fun (_, smp) -> Samples.quantile smp 0.5) s.classes in
    let geomean =
      exp
        (List.fold_left (fun acc v -> acc +. log v) 0. p50s
        /. float_of_int (List.length p50s))
    in
    List.iter2
      (fun (_, all) (_, smp) ->
        for i = 0 to Samples.count smp - 1 do
          Samples.add all smp.Samples.a.(i)
        done)
      !pooled s.classes;
    let share = reference_share ~wall ~cpu ~reference in
    let rate = float_of_int w.episode_ops /. wall in
    setups := setup :: !setups;
    ref_setups := (setup *. reference_share ~wall:setup ~cpu:setup_cpu ~reference) :: !ref_setups;
    rates := rate :: !rates;
    ref_rates := (rate /. share) :: !ref_rates;
    geomeans := geomean :: !geomeans;
    ref_geomeans := (geomean *. share) :: !ref_geomeans;
    extras := extra @ !extras;
    attempted := !attempted + s.tally.ops;
    failed := !failed + s.tally.failed
  done;
  let metrics =
    [
      ("ref_throughput_ops_s", "1/s", median !ref_rates);
      ("ref_class_p50_geomean_us", "us", median !ref_geomeans *. 1e6);
      ("peak_heap_mb", "MB", !heap);
      ("setup_s", "s", median !ref_setups);
    ]
  in
  let series l = String.concat " " (List.rev_map (Printf.sprintf "%.1f") l) in
  Printf.printf "  episode throughputs, as measured: %s\n" (series !rates);
  Printf.printf "  episode throughputs, reference host: %s\n" (series !ref_rates);
  let oltp = w.name <> "scan-join" in
  let lat =
    List.concat_map
      (fun (cls, smp) ->
        let n = Samples.count smp in
        let scale, unit = if oltp then (1e6, "us") else (1e3, "ms") in
        let name q = Printf.sprintf "%s_%s_%s" cls q unit in
        let p50 = (name "p50", unit, Samples.quantile smp 0.5 *. scale, n) in
        if w.name = "oltp-memory" then
          [ p50; (name "p99", unit, Samples.quantile smp 0.99 *. scale, n) ]
        else [ p50 ])
      !pooled
  in
  List.iter
    (fun (n, u, v, count) -> Printf.printf "  %-26s %14.3f %-4s (n=%d)\n" n v u count)
    lat;
  (* figures the end checks return, such as restart_s: medians over the
     episodes *)
  let extra =
    List.sort_uniq compare (List.map (fun (n, u, _) -> (n, u)) !extras)
    |> List.map (fun (n, u) ->
           ( n, u,
             median (List.filter_map (fun (n', _, v) -> if n' = n then Some v else None) !extras) ))
  in
  List.iter
    (fun (n, u, v) -> Printf.printf "  %-26s %14.6f %s\n" n v u)
    (metrics @ extra
    @ [
        ("measured_setup_s", "s", median !setups);
        ("throughput_ops_s", "1/s", median !rates);
        ("class_p50_geomean_us", "us", median !geomeans *. 1e6);
        ("episodes", "count", float_of_int (List.length !rates));
        ("error_rate", "ratio", float_of_int !failed /. float_of_int (max 1 !attempted));
      ]);
  (!attempted, !failed, metrics)

(* Traced run: the stream untraced for part of the time, then the same
   number of operations again, traced, on a fresh copy of the data. *)
let layered w ~seed ~seconds =
  let a = w.create ~seed in
  print_sizes "after set-up" a;
  settle ();
  let before = counters a in
  let wall_plain = run_for a (seconds *. 0.4) in
  let n = a.tally.ops in
  let plain = delta (counters a) before in
  ignore (a.finish ());
  let failed_a = a.tally.failed in
  a.dispose ();
  Dmx_obs.Metrics.set_enabled true;
  let b = w.create ~seed in
  settle ();
  let db = b.db () in
  let io = Services.io_stats db.Db.services in
  (Spans.pins := fun () -> io.Io_stats.pool_hits + io.Io_stats.pool_misses);
  let flush_h = Spans.wal_flush_us in
  let flush_n0 = Dmx_obs.Metrics.histogram_count flush_h in
  let flush_s0 = Dmx_obs.Metrics.histogram_sum flush_h in
  let before = counters b in
  Spans.start ();
  let wall = run_n b n in
  Spans.stop ();
  let traced = delta (counters b) before in
  let flushes_timed = Dmx_obs.Metrics.histogram_count flush_h - flush_n0 in
  let flush_us = Dmx_obs.Metrics.histogram_sum flush_h -. flush_s0 in
  let records = Dmx_wal.Wal.record_count db.Db.services.Services.wal in
  if io_counts plain <> io_counts traced then
    fail "tracing changed the work: %s vs %s"
      (String.concat "," (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) (io_counts plain)))
      (String.concat "," (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) (io_counts traced)));
  let probes = b.probes () in
  Dmx_obs.Metrics.set_enabled false;
  (Spans.pins := fun () -> 0);
  ignore (b.finish ());
  let failed = failed_a + b.tally.failed in
  b.dispose ();
  let c name = float_of_int (List.assoc name traced) in
  let nf = float_of_int (max 1 n) in
  let rows = Spans.rows () in
  let row name = List.find (fun (r : Spans.row) -> r.name = name) rows in
  let mean_us (r : Spans.row) = if r.calls = 0 then 0. else r.incl_s *. 1e6 /. float_of_int r.calls in
  let per_call name = mean_us (row name) in
  let calls name = float_of_int (row name).calls in
  let commits = max 1. (calls "txn.commit") in
  let commit_p99 =
    let smp = Samples.create () in
    List.iter (Samples.add smp) (row "txn.commit").samples;
    if Samples.count smp = 0 then 0. else Samples.quantile smp 0.99 *. 1e6
  in
  let attributed = List.fold_left (fun acc (r : Spans.row) -> acc +. r.self_s) 0. rows in
  let unattributed = wall -. attributed in
  let hits = c "io.pool_hits" and misses = c "io.pool_misses" in
  let lookup = row "attach.btree_index.lookup" in
  let probe name = Option.value ~default:0. (List.assoc_opt name probes) in
  let values =
    [
      ("page.disk.reads", c "io.page_reads" /. nf);
      ("page.disk.read_us", per_call "page.disk.read");
      ("page.disk.writes", c "io.page_writes" /. nf);
      ("page.disk.write_us", per_call "page.disk.write");
      ("page.disk.syncs", calls "page.disk.sync" /. nf);
      ("page.disk.sync_us", per_call "page.disk.sync");
      ("page.buffer_pool.hit_ratio", if hits +. misses = 0. then 0. else hits /. (hits +. misses));
      ("page.buffer_pool.misses", misses /. nf);
      ("page.buffer_pool.evictions", c "metric.bp.evictions" /. nf);
      ("wal.flushes", c "metric.wal.flushes" /. nf);
      ("wal.fsyncs", c "metric.wal.fsyncs" /. nf);
      ("wal.flush_us", if flushes_timed = 0 then 0. else flush_us /. float_of_int flushes_timed);
      ("wal.bytes_per_op", c "wal.appended_bytes" /. nf);
      ("wal.records_resident", float_of_int records);
      ("txn.begin_us", per_call "txn.begin");
      ("txn.commit_us", per_call "txn.commit");
      ("txn.commit_p99_us", commit_p99);
      ("txn.fsyncs_per_commit", (c "metric.wal.fsyncs" +. calls "page.disk.sync") /. commits);
      ("txn.page_writes_per_commit", c "io.page_writes" /. commits);
      ("lock.grants_per_op", c "metric.lock.grants" /. nf);
      ("core.relation.insert_us", per_call "core.relation.insert");
      ("core.relation.update_us", per_call "core.relation.update");
      ("core.dispatch.sm_calls_per_op", c "dispatch.sm_calls" /. nf);
      ("core.dispatch.at_calls_per_op", c "dispatch.at_calls" /. nf);
      ("attach.btree_index.lookup_us", mean_us lookup);
      ( "attach.btree_index.pins_per_lookup",
        if lookup.calls = 0 then 0. else float_of_int lookup.pins /. float_of_int lookup.calls );
      ("query.plan_cache.lookup_us", per_call "query.plan_cache");
      ("query.plan_cache.translations", c "plan_cache.translations");
      ("query.planner.translate_us", probe "query.planner.translate_us");
      ("query.executor.select_run_us", per_call "query.executor.select");
      ("query.executor.scan_run_us", per_call "query.executor.scan");
      ("query.executor.expr_scan_run_us", per_call "query.executor.expr_scan");
      ("query.executor.range_run_us", per_call "query.executor.range");
      ("query.executor.join_run_us", per_call "query.executor.join");
      ("query.executor.rows_examined_per_row", probe "query.executor.rows_examined_per_row");
      ("expr.span_filter_ns_per_row", probe "expr.span_filter_ns_per_row");
      ("expr.deep_filter_ns_per_row", probe "expr.deep_filter_ns_per_row");
      ("smethod.heap.scan_ns_per_row", probe "smethod.heap.scan_ns_per_row");
      ("smethod.heap.pins_per_page", probe "smethod.heap.pins_per_page");
      ("smethod.btree_org.scan_ns_per_row", probe "smethod.btree_org.scan_ns_per_row");
      ("unattributed_share", unattributed /. wall);
      ("obs.trace_overhead", wall /. wall_plain);
    ]
    @ List.map (fun (r : Spans.row) -> ("self." ^ r.name ^ "_us", r.self_s *. 1e6 /. nf)) rows
    @ [ ("self.unattributed_us", unattributed *. 1e6 /. nf) ]
  in
  Printf.printf "  layer table: %d operations, traced wall-clock %.6f s (untraced %.6f s)\n" n wall wall_plain;
  Printf.printf "  %-30s %12s %8s %10s\n" "row" "self us/op" "share" "calls";
  List.iter
    (fun (r : Spans.row) ->
      if r.calls > 0 || r.self_s > 0. then
        Printf.printf "  %-30s %12.3f %7.2f%% %10d\n" r.name (r.self_s *. 1e6 /. nf)
          (100. *. r.self_s /. wall) r.calls)
    rows;
  Printf.printf "  %-30s %12.3f %7.2f%%\n" "unattributed" (unattributed *. 1e6 /. nf)
    (100. *. unattributed /. wall);
  Printf.printf "  %-30s %12.3f %7.2f%%\n" "sum = wall-clock"
    ((attributed +. unattributed) *. 1e6 /. nf) 100.;
  let metrics =
    List.map
      (fun (name, unit, moves) ->
        let v = List.assoc name values in
        Printf.printf "  %-42s %14.4f %-8s -> %s\n" name v unit moves;
        (name, unit, v))
      per_layer
  in
  (2 * n, failed, metrics)

(* Fixed-length runs, untraced and traced, printing their counts. *)
let counts names ~seed =
  List.iter
    (fun name ->
      let w = List.find (fun w -> w.name = name) workloads in
      let pass traced =
        if traced then Dmx_obs.Metrics.set_enabled true;
        let s = w.create ~seed in
        let before = counters s in
        if traced then Spans.start ();
        ignore (run_n s w.counted_ops);
        if traced then Spans.stop ();
        let d = delta (counters s) before in
        Dmx_obs.Metrics.set_enabled false;
        ignore (s.finish ());
        let failed = s.tally.failed in
        s.dispose ();
        (d, failed)
      in
      let plain, f1 = pass false in
      let traced, f2 = pass true in
      let fields l =
        String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%s: %d" (json_string k) v) l)
      in
      Printf.printf
        "{\"workload\": %s, \"failed\": %d, \"untraced\": {%s}, \"traced\": {%s}}\n%!"
        (json_string name) (f1 + f2) (fields plain) (fields traced))
    names

(* ---- command line ---- *)

let usage =
  "dmxbench --workload NAME --seed N --seconds S --trace 0|1\n\
  \       dmxbench --counts W1,W2,... --seed N\n\
  \       dmxbench --describe"

let bench ~workload ~seed ~seconds ~trace =
  let w =
    match List.find_opt (fun w -> w.name = workload) workloads with
    | Some w -> w
    | None ->
      Printf.eprintf "dmxbench: unknown workload %S\n%s\n" workload usage;
      exit 2
  in
  if seconds <= 0. || (trace <> 0 && trace <> 1) then begin
    prerr_endline usage;
    exit 2
  end;
  print_header w ~seed ~seconds ~trace;
  let attempted, failed, metrics =
    if trace = 0 then e2e w ~seed ~seconds else layered w ~seed ~seconds
  in
  print_result ~correct:(failed = 0) ~attempted ~failed metrics;
  if failed > 0 then exit 1

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10. and trace = ref 0 in
  let counts_of = ref "" and describe_only = ref false in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N seed of the generated data and operations");
      ("--seconds", Arg.Set_float seconds, "S measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--counts", Arg.Set_string counts_of, "W1,W2,... print fixed-length run counts");
      ("--describe", Arg.Set describe_only, " print BENCHMARK.json");
    ]
  in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  if !describe_only then describe ()
  else begin
    (match engine_knobs_set () with
    | [] -> ()
    | knobs ->
      Printf.eprintf "dmxbench: refusing to run with engine knobs set: %s\n"
        (String.concat ", " knobs);
      exit 2);
    at_exit (fun () -> rm_rf scratch_dir);
    try
      if !counts_of <> "" then counts (String.split_on_char ',' !counts_of) ~seed:!seed
      else bench ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace:!trace
    with e ->
      let msg = match e with Bench_failure m -> m | e -> Printexc.to_string e in
      Printf.eprintf "dmxbench: %s\n" msg;
      exit 1
  end
