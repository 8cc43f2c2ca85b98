(* Self-time accounting for the traced run.

   The benchmark brackets each call it makes into a layer's public entry
   point with [time]. A row's self time is the bracket's duration minus the
   brackets opened inside it, and minus the log flushes that happened inside
   it and not inside a nested bracket: those are read from the engine's own
   [wal.flush_us] histogram and charged to the [wal] row. Off (the untraced
   runs), [time] is a single branch. *)

type row = {
  name : string;
  mutable self_s : float;
  mutable incl_s : float;
  mutable pins : int;  (* buffer-pool pins inside the bracket *)
  mutable calls : int;
  mutable samples : float list;  (* inclusive durations, when [keep] *)
  keep : bool;
}

type frame = {
  row : row;
  t0 : float;
  wal0 : float;
  pins0 : int;
  mutable child_s : float;
  mutable child_wal_s : float;
}

let on = ref false
let registry : row list ref = ref []
let stack : frame list ref = ref []
(* Seconds on the monotonic clock: the wall clock of this kind of host can
   step backwards by minutes. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let row ?(keep = false) name =
  let r = { name; self_s = 0.; incl_s = 0.; pins = 0; calls = 0; samples = []; keep } in
  registry := r :: !registry;
  r

(* Pins so far on the database being traced; set by the driver. *)
let pins = ref (fun () -> 0)

let wal = row "wal"
let wal_flush_us = Dmx_obs.Metrics.histogram "wal.flush_us"
let wal_s () = Dmx_obs.Metrics.histogram_sum wal_flush_us /. 1e6

let finish fr =
  let elapsed = now () -. fr.t0 in
  let wal_total = wal_s () -. fr.wal0 in
  let wal_direct = wal_total -. fr.child_wal_s in
  let r = fr.row in
  r.self_s <- r.self_s +. elapsed -. fr.child_s -. wal_direct;
  r.incl_s <- r.incl_s +. elapsed;
  r.pins <- r.pins + (!pins () - fr.pins0);
  r.calls <- r.calls + 1;
  if r.keep then r.samples <- elapsed :: r.samples;
  wal.self_s <- wal.self_s +. wal_direct;
  stack := List.tl !stack;
  match !stack with
  | parent :: _ ->
    parent.child_s <- parent.child_s +. elapsed;
    parent.child_wal_s <- parent.child_wal_s +. wal_total
  | [] -> ()

let time r f =
  if not !on then f ()
  else begin
    let fr =
      { row = r; t0 = now (); wal0 = wal_s (); pins0 = !pins (); child_s = 0.;
        child_wal_s = 0. }
    in
    stack := fr :: !stack;
    match f () with
    | v ->
      finish fr;
      v
    | exception e ->
      finish fr;
      raise e
  end

let reset () =
  List.iter
    (fun r ->
      r.self_s <- 0.;
      r.incl_s <- 0.;
      r.pins <- 0;
      r.calls <- 0;
      r.samples <- [])
    !registry;
  stack := []

let wal_at_start = ref 0.

let start () =
  reset ();
  wal_at_start := wal_s ();
  on := true

(* Log flushes outside every bracket (none are expected in the op loop)
   still belong to the [wal] row. *)
let stop () =
  on := false;
  wal.self_s <- Float.max wal.self_s (wal_s () -. !wal_at_start)

let rows () = List.rev !registry
