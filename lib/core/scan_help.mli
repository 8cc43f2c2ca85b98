(** Helpers extensions use to build scans.

    Storage methods deliver scans as runs ({!Intf.run_scan}). [filtered]
    turns a record-at-a-time producer into runs and [filtered_batch] wraps a
    run producer; both apply the common predicate-evaluation service so that
    non-qualifying records are skipped inside the extension, while the field
    values are still in the buffer pool (paper p. 223). When the caller
    supplies the relation [schema], the filter is compiled
    ({!Dmx_expr.Eval.compile}) once per scan open instead of interpreted per
    record. [records] is the record-cursor view over runs. *)

open Dmx_value

val run_length : unit -> int
(** Records per run for {!filtered}: the test override, else 256. *)

val set_run_length_for_testing : int option -> unit
(** Override (or, with [None], un-override) {!run_length} — tests only. *)

val filtered_batch :
  ?filter:Dmx_expr.Expr.t ->
  ?schema:Schema.t ->
  next_run:(unit -> Intf.record_run option) ->
  close:(unit -> unit) ->
  capture:(unit -> unit -> unit) ->
  unit ->
  Intf.run_scan
(** Wrap a raw run producer with the predicate service. Runs that filter to
    empty are skipped — [rn_next] never yields an empty run. The producer
    must yield a fresh array per run: filtering compacts qualifying records
    in place rather than rebuilding the array. *)

val filtered :
  ?filter:Dmx_expr.Expr.t ->
  ?schema:Schema.t ->
  next:(unit -> (Record_key.t * Record.t) option) ->
  close:(unit -> unit) ->
  capture:(unit -> unit -> unit) ->
  unit ->
  Intf.run_scan
(** Chunk a record-at-a-time producer into runs of {!run_length} records,
    then filter them as {!filtered_batch} does. [capture] snapshots the
    producer's position, which after a run is on the last record [next]
    returned for it. *)

val records : Intf.run_scan -> Intf.record_scan
(** The record-cursor view: steps through each run in turn. Closing the
    view closes the run scan. Its capture covers the run scan's position,
    the current run and the index in it, so restoring returns the view to
    the exact record it was on. *)

val key_scan_of :
  next:(unit -> Record_key.t option) ->
  close:(unit -> unit) ->
  capture:(unit -> unit -> unit) ->
  unit ->
  Intf.key_scan

val record_scan_to_list : Intf.record_scan -> (Record_key.t * Record.t) list
(** Drain and close — convenience for tests. *)

val run_scan_to_list : Intf.run_scan -> (Record_key.t * Record.t) list
(** Drain and close a run scan, flattening its runs. *)

val key_scan_to_list : Intf.key_scan -> Record_key.t list
