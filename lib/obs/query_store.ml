(* The statement store: bounded per-fingerprint cumulative statistics.

   Fingerprints are computed upstream (lib/query's [Fingerprint] — this
   library cannot see the parser) and arrive here as opaque int64 keys.
   Each entry accumulates calls/errors/rows, a private latency histogram,
   buffer-pool and WAL deltas, lock pressure and attachment vetoes, plus a
   short history of plan hashes so a plan flip is detectable the moment it
   happens.

   Disabled (the default) the observation path is one branch and allocates
   nothing — same discipline as [Metrics]/[Trace]; the caller is expected to
   gate the construction of the [exec] record on [Trace.enabled ()].

   Eviction is LRU by a monotonic touch tick; at capacity the victim is
   found by an O(capacity) min-scan. Capacity is a few hundred entries, the
   scan runs once per *new* fingerprint (not per execution), so the cost is
   negligible against parsing + planning a brand-new statement shape. *)

let default_capacity = 128
let max_plan_history = 4

let env_capacity () =
  match Sys.getenv_opt "DMX_QUERYSTORE_MAX" with
  | Some s -> (match int_of_string_opt s with Some n when n > 0 -> n | _ -> default_capacity)
  | None -> default_capacity

let capacity = ref (env_capacity ()) [@@dmx.global "config-immutable-after-setup"]

(* The store's [Trace] subscription takes nothing from the span stream: its
   totals arrive from [Stmt_obs] at statement close. Subscribing opens the
   shared gate, which is what arms [Stmt_obs]. *)
let subscription (_ : Trace.span) = ()
let enabled () = Trace.subscribed subscription
let () = Trace.subscribe_from_env "DMX_QUERYSTORE" subscription

(* Statement stats without counters would be blind — and the store's own
   histograms go through [Metrics.observe], which is gated on the metrics
   flag (the Trace precedent: set_enabled true pulls metrics up too). *)
let set_enabled b =
  Trace.set_subscribed subscription b;
  if b then Metrics.set_enabled true

let set_capacity n = if n > 0 then capacity := n
let current_capacity () = !capacity

type plan_use = {
  pu_hash : int64;
  pu_first_seen : float;  (* Unix time *)
  mutable pu_last_seen : float;
}

type entry = {
  e_fp : int64;
  e_text : string;  (* normalized statement text *)
  mutable e_sample : string;  (* last literal text observed *)
  mutable e_calls : int;
  mutable e_errors : int;
  mutable e_rows : int;
  e_latency : Metrics.histogram;
  mutable e_pool_hits : int;
  mutable e_pool_misses : int;
  mutable e_page_reads : int;
  mutable e_wal_bytes : int;
  mutable e_lock_conflicts : int;
  mutable e_lock_waits : int;
  mutable e_vetoes : int;
  e_first_seen : float;
  mutable e_last_seen : float;
  mutable e_plans : plan_use list;  (* newest first, capped *)
  mutable e_touch : int;  (* LRU tick *)
}

(* What one execution observed; the caller allocates this only when the
   store is enabled, so the disabled path stays allocation-free. *)
type exec = {
  x_fp : int64;
  x_text : string;
  x_sample : string;
  x_ts : float;  (* the [stmt.exec] span's start, Unix time *)
  x_us : float;  (* [us_of_ns] of the measured nanoseconds *)
  x_rows : int;
  x_error : bool;
  x_pool_hits : int;
  x_pool_misses : int;
  x_page_reads : int;
  x_wal_bytes : int;
  x_lock_conflicts : int;
  x_lock_waits : int;
  x_vetoes : int;
  x_plan : int64 option;
}

type plan_note =
  | Plan_off  (* store disabled: nothing recorded *)
  | Plan_none  (* no plan hash supplied (e.g. shell DML) *)
  | Plan_first  (* first plan ever seen for this fingerprint *)
  | Plan_same
  | Plan_changed of int64  (* previous hash, so the event can name both *)

let table : (int64, entry) Hashtbl.t = Hashtbl.create 64 [@@dmx.global "ctx-owned"]
let tick = ref 0 [@@dmx.global "ctx-owned"]
let evicted_total = ref 0 [@@dmx.global "ctx-owned"]
let recorded_total = ref 0 [@@dmx.global "ctx-owned"]

let size () = Hashtbl.length table
let evicted () = !evicted_total
let recorded () = !recorded_total

let reset () =
  Hashtbl.reset table;
  tick := 0;
  evicted_total := 0;
  recorded_total := 0

let evict_lru () =
  let victim =
    Hashtbl.fold
      (fun _ e acc ->
        match acc with
        | Some best when best.e_touch <= e.e_touch -> acc
        | _ -> Some e)
      table None
  in
  match victim with
  | Some e ->
    Hashtbl.remove table e.e_fp;
    incr evicted_total
  | None -> ()

(* Evict down below capacity, not just by one: after [set_capacity] lowers
   the bound the store shrinks back under it at the next insertion. *)
let fresh_entry x now =
  while Hashtbl.length table >= !capacity do
    evict_lru ()
  done;
  let e =
    {
      e_fp = x.x_fp;
      e_text = x.x_text;
      e_sample = x.x_sample;
      e_calls = 0;
      e_errors = 0;
      e_rows = 0;
      e_latency = Metrics.unregistered_histogram "stmt.latency_us";
      e_pool_hits = 0;
      e_pool_misses = 0;
      e_page_reads = 0;
      e_wal_bytes = 0;
      e_lock_conflicts = 0;
      e_lock_waits = 0;
      e_vetoes = 0;
      e_first_seen = now;
      e_last_seen = now;
      e_plans = [];
      e_touch = 0;
    }
  in
  Hashtbl.replace table x.x_fp e;
  e

let note_plan e hash now =
  match e.e_plans with
  | ({ pu_hash; _ } as cur) :: _ when pu_hash = hash ->
    cur.pu_last_seen <- now;
    Plan_same
  | prev ->
    (* a hash we are not currently on: either brand new or a flip back to
       an older plan — both are worth surfacing as a change *)
    let use =
      match List.find_opt (fun u -> u.pu_hash = hash) prev with
      | Some u ->
        u.pu_last_seen <- now;
        u
      | None -> { pu_hash = hash; pu_first_seen = now; pu_last_seen = now }
    in
    let rest = List.filter (fun u -> u.pu_hash <> hash) prev in
    let rest = List.filteri (fun i _ -> i < max_plan_history - 1) rest in
    e.e_plans <- use :: rest;
    (match prev with
    | [] -> Plan_first
    | { pu_hash = old; _ } :: _ -> Plan_changed old)

let record x =
  if not (enabled ()) then Plan_off
  else begin
    let now = x.x_ts in
    let e =
      match Hashtbl.find_opt table x.x_fp with
      | Some e -> e
      | None -> fresh_entry x now
    in
    incr tick;
    e.e_touch <- !tick;
    incr recorded_total;
    e.e_calls <- e.e_calls + 1;
    if x.x_error then e.e_errors <- e.e_errors + 1;
    e.e_rows <- e.e_rows + x.x_rows;
    Metrics.observe e.e_latency x.x_us;
    e.e_pool_hits <- e.e_pool_hits + x.x_pool_hits;
    e.e_pool_misses <- e.e_pool_misses + x.x_pool_misses;
    e.e_page_reads <- e.e_page_reads + x.x_page_reads;
    e.e_wal_bytes <- e.e_wal_bytes + x.x_wal_bytes;
    e.e_lock_conflicts <- e.e_lock_conflicts + x.x_lock_conflicts;
    e.e_lock_waits <- e.e_lock_waits + x.x_lock_waits;
    e.e_vetoes <- e.e_vetoes + x.x_vetoes;
    e.e_sample <- x.x_sample;
    e.e_last_seen <- now;
    match x.x_plan with
    | None -> Plan_none
    | Some h -> note_plan e h now
  end

let entries () =
  Hashtbl.fold (fun _ e acc -> e :: acc) table []
  |> List.sort (fun a b -> compare a.e_fp b.e_fp)

(* ---- the [stmt.exec] span: one observation record, online and offline ----

   [Stmt_obs] closes each statement's span with [exec_attrs x]; [dmx_prof]
   turns the span back into [x] with [exec_of_span] and folds it through
   [record], so a replayed trace and the live store aggregate the same
   values the same way. Latency travels as integer nanoseconds: a float
   would be rounded by the JSON rendering and could change bucket. The
   literal sample text stays out of the trace; a replay samples the
   normalized text. *)

let us_of_ns ns = float_of_int ns /. 1e3
let hex h = Printf.sprintf "%016Lx" h

let exec_attrs x =
  let int k v = (k, Obs_json.Int v) in
  [ ("fp", Obs_json.Str (hex x.x_fp));
    ("text", Obs_json.Str x.x_text);
    int "lat_ns" (Float.to_int (Float.round (x.x_us *. 1e3)));
    ("plan", Obs_json.Str (match x.x_plan with Some h -> hex h | None -> ""));
    int "rows" x.x_rows;
    int "pool_hits" x.x_pool_hits;
    int "pool_misses" x.x_pool_misses;
    int "page_reads" x.x_page_reads;
    int "wal_bytes" x.x_wal_bytes;
    int "lock_conflicts" x.x_lock_conflicts;
    int "lock_waits" x.x_lock_waits;
    int "vetoes" x.x_vetoes ]

let exec_of_span ~ts ~outcome attrs =
  let str k = Option.bind (List.assoc_opt k attrs) Obs_json.to_string_opt in
  let int k =
    Option.value ~default:0
      (Option.bind (List.assoc_opt k attrs) Obs_json.to_int_opt)
  in
  let hex_opt = function
    | Some s when s <> "" -> Int64.of_string_opt ("0x" ^ s)
    | _ -> None
  in
  match (hex_opt (str "fp"), List.assoc_opt "lat_ns" attrs) with
  | Some fp, Some (Obs_json.Int ns) ->
    let text = Option.value ~default:"" (str "text") in
    Some
      {
        x_fp = fp;
        x_text = text;
        x_sample = text;
        x_ts = ts;
        x_us = us_of_ns ns;
        x_rows = int "rows";
        x_error = outcome <> Some "ok";
        x_pool_hits = int "pool_hits";
        x_pool_misses = int "pool_misses";
        x_page_reads = int "page_reads";
        x_wal_bytes = int "wal_bytes";
        x_lock_conflicts = int "lock_conflicts";
        x_lock_waits = int "lock_waits";
        x_vetoes = int "vetoes";
        x_plan = hex_opt (str "plan");
      }
  | _ -> None

(* ---- the statement table: [show statements] and [dmx_prof] ---- *)

type order = [ `Calls | `Time | `Io ]

let io e = e.e_pool_hits + e.e_pool_misses + e.e_page_reads
let total_us e = Metrics.histogram_sum e.e_latency
let quantile e q = Option.value ~default:0. (Metrics.quantile e.e_latency q)

let ranked ?top by =
  let weight e =
    match by with
    | `Calls -> float_of_int e.e_calls
    | `Time -> total_us e
    | `Io -> float_of_int (io e)
  in
  let sorted =
    List.sort
      (fun a b ->
        match compare (weight b) (weight a) with
        | 0 -> Int64.unsigned_compare a.e_fp b.e_fp
        | c -> c)
      (entries ())
  in
  match top with
  | None -> sorted
  | Some n -> List.filteri (fun i _ -> i < n) sorted

(* One column list for both renderings: the JSON value is the cell, and
   the text table prints it (a plan list as its length). *)
let columns =
  let int f e = Obs_json.Int (f e) and flt f e = Obs_json.Float (f e) in
  [ ("fingerprint", Report_txt.L, fun e -> Obs_json.Str (hex e.e_fp));
    ("calls", Report_txt.R, int (fun e -> e.e_calls));
    ("errors", Report_txt.R, int (fun e -> e.e_errors));
    ("rows", Report_txt.R, int (fun e -> e.e_rows));
    ("total_us", Report_txt.R, flt total_us);
    ("p50_us", Report_txt.R, flt (fun e -> quantile e 0.5));
    ("p95_us", Report_txt.R, flt (fun e -> quantile e 0.95));
    ("io", Report_txt.R, int io);
    ("wal_bytes", Report_txt.R, int (fun e -> e.e_wal_bytes));
    ("lock_waits", Report_txt.R, int (fun e -> e.e_lock_waits));
    ("vetoes", Report_txt.R, int (fun e -> e.e_vetoes));
    ( "plans", Report_txt.R,
      fun e ->
        Obs_json.List
          (List.map (fun u -> Obs_json.Str (hex u.pu_hash)) e.e_plans) );
    ("statement", Report_txt.L, fun e -> Obs_json.Str e.e_text) ]

let cell = function
  | Obs_json.Int i -> string_of_int i
  | Obs_json.Float f -> Printf.sprintf "%.1f" f
  | Obs_json.Str s -> s
  | Obs_json.List l -> string_of_int (List.length l)
  | v -> Obs_json.to_string v

let pp_statements ?top by ppf () =
  let es = ranked ?top by in
  Report_txt.pp_table
    ~columns:(List.map (fun (k, a, _) -> (k, a)) columns)
    ppf
    (List.map (fun e -> List.map (fun (_, _, v) -> cell (v e)) columns) es);
  Fmt.pf ppf "(%d of %d fingerprint%s; %d evicted)@." (List.length es) (size ())
    (if size () = 1 then "" else "s")
    !evicted_total

let statements_json ?top by =
  Obs_json.List
    (List.map
       (fun e -> Obs_json.Obj (List.map (fun (k, _, v) -> (k, v e)) columns))
       (ranked ?top by))

(* Probe payload for dmx_metrics / bench counter deltas: aggregate store
   health, never per-entry values (those live in dmx_statements). *)
let probe () =
  [
    ("stmt.fingerprints", size ());
    ("stmt.recorded", !recorded_total);
    ("stmt.evicted", !evicted_total);
  ]

let () = Metrics.register_probe "query_store" probe
