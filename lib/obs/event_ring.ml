type kind = Span | Event

type entry = {
  e_seq : int;
  e_ts : float;
  e_kind : kind;
  e_name : string;
  e_txid : int;
  e_us : float;
  e_outcome : string;
  e_slow : bool;
}

let env_int var default =
  match Sys.getenv_opt var with
  | None -> default
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some n when n > 0 -> n
    | Some _ | None -> default)

let env_float var default =
  match Sys.getenv_opt var with
  | None -> default
  | Some s -> (
    match float_of_string_opt (String.trim s) with
    | Some f when f >= 0. -> f
    | Some _ | None -> default)

let slow_threshold = ref (env_float "DMX_SLOW_US" 10_000.) [@@dmx.global "config-immutable-after-setup"]
let slow_us () = !slow_threshold
let set_slow_us us = slow_threshold := max 0. us

(* The circular buffer proper. [head] is the next write position; [size]
   saturates at the capacity; [seq] counts entries ever recorded. *)
type ring = {
  mutable entries : entry array;
  mutable head : int;
  mutable size : int;
  mutable seq : int;
}

let null_entry =
  {
    e_seq = 0;
    e_ts = 0.;
    e_kind = Event;
    e_name = "";
    e_txid = 0;
    e_us = 0.;
    e_outcome = "";
    e_slow = false;
  } [@@dmx.global "config-immutable-after-setup"]

let ring =
  {
    entries = Array.make (env_int "DMX_EVENT_RING" 512) null_entry;
    head = 0;
    size = 0;
    seq = 0;
  } [@@dmx.global "UNSAFE"]

let capacity () = Array.length ring.entries

let reset () =
  Array.fill ring.entries 0 (Array.length ring.entries) null_entry;
  ring.head <- 0;
  ring.size <- 0;
  ring.seq <- 0

let set_capacity n =
  ring.entries <- Array.make (max 1 n) null_entry;
  ring.head <- 0;
  ring.size <- 0;
  ring.seq <- 0

let push ~kind ~name ~txid ~us ~outcome =
  let cap = Array.length ring.entries in
  ring.seq <- ring.seq + 1;
  ring.entries.(ring.head) <-
    {
      e_seq = ring.seq;
      e_ts = Unix.gettimeofday ();
      e_kind = kind;
      e_name = name;
      e_txid = txid;
      e_us = us;
      e_outcome = outcome;
      e_slow = (!slow_threshold > 0. && us >= !slow_threshold);
    };
  ring.head <- (ring.head + 1) mod cap;
  if ring.size < cap then ring.size <- ring.size + 1

(* The ring's [Trace] subscription: every closed span and every event. *)
let consume (sp : Trace.span) =
  push
    ~kind:(if sp.instant then Event else Span)
    ~name:sp.name ~txid:sp.txid ~us:sp.us ~outcome:sp.outcome

let enabled () = Trace.subscribed consume
let set_enabled b = Trace.set_subscribed consume b
let () = Trace.subscribe_from_env "DMX_EVENTS" consume

let record ~kind ~name ~txid ~us ~outcome =
  if enabled () then push ~kind ~name ~txid ~us ~outcome

let snapshot () =
  let cap = Array.length ring.entries in
  let oldest = (ring.head - ring.size + cap) mod cap in
  List.init ring.size (fun i -> ring.entries.((oldest + i) mod cap))

let total () = ring.seq
let dropped () = ring.seq - ring.size

(* Loss signals were invisible: the ring forgets silently and the file sink
   truncates silently. Fold both into the metrics exposition so
   [show stats] / [dmx_metrics] can tell when telemetry itself is lossy. *)
let () =
  Metrics.register_probe "telemetry_loss" (fun () ->
      [
        ("events.dropped", dropped ());
        ("trace.truncated", if Trace.truncated () then 1 else 0);
      ])
