(* Statement-level observation: bracket one execution, attribute the
   engine's own accounting to its fingerprint, and hand the totals to
   [Dmx_obs.Query_store].

   The store lives in lib/obs and cannot see the parser, the context or the
   buffer pool — this module is the glue that can: it fingerprints the
   text, snapshots [Io_stats] and the relevant counters before the body
   runs, diffs them after, and emits the plan.changed / stmt.slow events
   the store itself only detects. The totals form one [Query_store.exec]
   record: the store folds it, and the [stmt.exec] span carries it as its
   attributes so [dmx_prof] can fold the same record offline.

   Everything is off unless a [Trace] consumer is subscribed (the store is
   one); the inactive path of [observed] is one branch on that shared gate,
   and allocates nothing. *)

module Obs = Dmx_obs
module Ctx = Dmx_core.Ctx

(* Counter handles resolved once; find-or-create by name yields the same
   records lock_table/wal/relation increment. *)
let m_conflicts = Obs.Metrics.counter "lock.conflicts"
let m_waits = Obs.Metrics.counter "lock.waits"
let m_wal_bytes = Obs.Metrics.counter "wal.appended_bytes"
let m_vetoes = Obs.Metrics.counter "dispatch.vetoes"


let ignore_plan (_ : int64) = ()

let hex_attr = function
  | Some h -> Obs.Obs_json.Str (Fingerprint.hex h)
  | None -> Obs.Obs_json.Str ""

let observed ctx ~text ~rows f =
  if not (Obs.Trace.enabled ()) then f ~set_plan:ignore_plan
  else begin
    let norm = Fingerprint.normalize text in
    let fp = Fingerprint.hash norm in
    let txid = ctx.Ctx.txn.Dmx_txn.Txn.id in
    let span = Obs.Trace.enter "stmt.exec" ~txid in
    let io = Dmx_page.Disk.stats (Dmx_page.Buffer_pool.disk ctx.Ctx.bp) in
    let io0 = Dmx_page.Io_stats.copy io in
    let conflicts0 = Obs.Metrics.value m_conflicts in
    let waits0 = Obs.Metrics.value m_waits in
    let wal0 = Obs.Metrics.value m_wal_bytes in
    let vetoes0 = Obs.Metrics.value m_vetoes in
    let plan = ref None in
    let set_plan h = plan := Some h in
    let t0 = Unix.gettimeofday () in
    let finish ~rows ~error =
      let ns = Float.to_int ((Unix.gettimeofday () -. t0) *. 1e9) in
      let d = Dmx_page.Io_stats.diff ~after:io ~before:io0 in
      (* one record: folded into the store here, and carried by the span
         for an offline replay through the same [record] *)
      let x =
        {
          Obs.Query_store.x_fp = fp;
          x_text = norm;
          x_sample = text;
          x_ts = span.Obs.Trace.start;
          x_us = Obs.Query_store.us_of_ns ns;
          x_rows = rows;
          x_error = error;
          x_pool_hits = d.Dmx_page.Io_stats.pool_hits;
          x_pool_misses = d.Dmx_page.Io_stats.pool_misses;
          x_page_reads = d.Dmx_page.Io_stats.page_reads;
          x_wal_bytes = Obs.Metrics.value m_wal_bytes - wal0;
          x_lock_conflicts = Obs.Metrics.value m_conflicts - conflicts0;
          x_lock_waits = Obs.Metrics.value m_waits - waits0;
          x_vetoes = Obs.Metrics.value m_vetoes - vetoes0;
          x_plan = !plan;
        }
      in
      (* events go out while the span is still open so they parent under it *)
      (match Obs.Query_store.record x with
      | Obs.Query_store.Plan_changed old ->
        Ctx.trace_event ctx "plan.changed"
          ~attrs:
            [ ("fp", Obs.Obs_json.Str (Fingerprint.hex fp));
              ("old", hex_attr (Some old)); ("new", hex_attr !plan) ]
      | _ -> ());
      let slow = Obs.Event_ring.slow_us () in
      if slow > 0. && x.x_us >= slow then
        Ctx.trace_event ctx "stmt.slow"
          ~attrs:
            [ ("fp", Obs.Obs_json.Str (Fingerprint.hex fp));
              ("text", Obs.Obs_json.Str text);
              ("us", Obs.Obs_json.Float x.x_us);
              ("rows", Obs.Obs_json.Int rows);
              ("plan", hex_attr !plan) ];
      Obs.Trace.exit_span span
        ~outcome:(if error then "error" else "ok")
        ~attrs:(fun () -> Obs.Query_store.exec_attrs x)
    in
    match f ~set_plan with
    | Ok v as r ->
      finish ~rows:(rows v) ~error:false;
      r
    | Error _ as r ->
      finish ~rows:0 ~error:true;
      r
    | exception e ->
      finish ~rows:0 ~error:true;
      raise e
  end
