(* The reference task: a fixed amount of memory traffic that does not touch
   the engine, run between operations to tell how fast the host is at that
   moment.

   On a shared host it is the memory system, not the arithmetic, that
   other tenants slow down, and the engine's operations are mostly memory
   traffic: the same episode takes from 1x to 1.6x as long from one minute
   to the next, while a pure arithmetic loop keeps its speed. Of the tasks
   tried (a dependent random walk, independent random loads, streaming
   writes, streaming reads), streaming reads tracked the engine best. Over
   identical episodes on a 2-vCPU VM, the log of an episode's rate against
   the log of this task's time correlated at -0.91 (26 OLTP episodes) and
   -0.94 (22 scan-join episodes). The fitted slopes (-1.45, -1.6) did not
   hold from one set of runs to the next, so the scaling is the plain
   ratio: over ten OLTP runs it cut the spread of the run medians
   (quartile distance over median) from 0.20 as measured to 0.105, where
   the power 1.5 left 0.16.

   The task is the same on every checkout, so [speed] depends on the host
   alone, whatever the engine does: it scales the parent's and the
   child's figures alike when the host is in the same state. Its buffer
   is a bigarray, outside the OCaml heap, and it allocates nothing, so it
   neither shows in [peak_heap_mb] nor runs the collector: its time does
   not depend on the engine's heap. It does share the caches with the
   engine, so a change that shrinks the engine's working set by much could
   speed it up a little, and the scaled figures would then understate that
   change's gain by as much. *)
open Bigarray

type t = {
  region : (int, int_elt, c_layout) Array1.t;
  mutable pos : int;  (* where the next read starts *)
  mutable sink : int;  (* keeps the reads live *)
}

(* A 32 MiB region, read 1 MiB at a time in order. *)
let region_len = 1 lsl 22
let read_len = 1 lsl 17

(* The time of one [run] on a quiet 2-vCPU Xeon VM, the reference host.
   It only sets the unit of the scaled figures. *)
let nominal = 2.5e-4

(* How much faster than the reference host the engine runs now, given the
   time [run] takes now: an engine CPU second here is [speed] seconds
   there. *)
let speed ~time = nominal /. time

let create () =
  let region = Array1.create int c_layout region_len in
  for i = 0 to region_len - 1 do
    region.{i} <- i * 0x9e37
  done;
  { region; pos = 0; sink = 0 }

let run t =
  let region = t.region and pos = t.pos in
  let h = ref t.sink in
  for i = pos to pos + read_len - 1 do
    h := !h lxor Array1.unsafe_get region i
  done;
  t.pos <- (if pos + (2 * read_len) > region_len then 0 else pos + read_len);
  t.sink <- !h
