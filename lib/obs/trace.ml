type key =
  | Smethod of int
  | Attachment of int
  | Lock
  | Wal
  | Bp
  | Span of string

type attrs = (string * Obs_json.t) list

type span = {
  id : int;
  parent : int;
  name : string;
  txid : int;
  key : key;
  start : float;
  instant : bool;
  attrs : unit -> attrs;
  mutable child_us : float;
  mutable us : float;
  mutable self_us : float;
  mutable outcome : string;
  mutable exit_attrs : unit -> attrs;
}

let env_enables var =
  match Sys.getenv_opt var with
  | Some ("1" | "true" | "yes" | "on") -> true
  | Some _ | None -> false

(* ---- subscribers: the one gate ---- *)

(* Every consumer (the JSON sink below, Profile, Event_ring, Query_store) is
   a function on closed spans. [on] is true iff at least one is subscribed;
   it is the only gate instrumented call sites read. *)
type consumer = span -> unit

let consumers : consumer list ref = ref [] [@@dmx.global "config-immutable-after-setup"]
let on = ref false [@@dmx.global "config-immutable-after-setup"]
let enabled () = !on
let subscribed c = List.memq c !consumers

let set_subscribed c b =
  let others = List.filter (fun c' -> c' != c) !consumers in
  consumers := if b then others @ [ c ] else others;
  on := !consumers <> []

let subscribe_from_env var c = if env_enables var then set_subscribed c true

(* ---- sink ---- *)

(* A file sink buffers writes (flushed on [Trace] disable and at exit) and
   honors a [DMX_TRACE_MAX_MB] byte budget: the first line that would
   exceed it is replaced by a single truncation marker and everything after
   is dropped, instead of growing the file without bound. *)
type file_sink = {
  fs_oc : out_channel;
  fs_cap : int option;  (* bytes; None = unbounded *)
  mutable fs_written : int;
  mutable fs_truncated : bool;
}

let cap_from_env () =
  match Sys.getenv_opt "DMX_TRACE_MAX_MB" with
  | None -> None
  | Some s -> (
    match float_of_string_opt (String.trim s) with
    | Some mb when mb > 0. -> Some (int_of_float (mb *. 1024. *. 1024.))
    | Some _ | None -> None)

let file_sinks : file_sink list ref = ref [] [@@dmx.global "config-immutable-after-setup"]

let flush_sink () =
  List.iter (fun fs -> try flush fs.fs_oc with Sys_error _ -> ()) !file_sinks

let () = at_exit flush_sink

let file_sink_write fs line =
  if not fs.fs_truncated then begin
    let len = String.length line + 1 in
    match fs.fs_cap with
    | Some cap when fs.fs_written + len > cap ->
      fs.fs_truncated <- true;
      let marker =
        Printf.sprintf "{\"ts\":%.6f,\"ev\":\"truncated\",\"cap_bytes\":%d}"
          (Unix.gettimeofday ()) cap
      in
      output_string fs.fs_oc marker;
      output_char fs.fs_oc '\n';
      flush fs.fs_oc
    | _ ->
      output_string fs.fs_oc line;
      output_char fs.fs_oc '\n';
      fs.fs_written <- fs.fs_written + len
  end

let truncated () = List.exists (fun fs -> fs.fs_truncated) !file_sinks

let make_file_sink path =
  let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
  let fs =
    {
      fs_oc = oc;
      fs_cap = cap_from_env ();
      fs_written = (try out_channel_length oc with Sys_error _ -> 0);
      fs_truncated = false;
    }
  in
  file_sinks := fs :: !file_sinks;
  file_sink_write fs

let default_sink =
  lazy
    (match Sys.getenv_opt "DMX_TRACE_FILE" with
    | Some path -> make_file_sink path
    | None -> prerr_endline) [@@dmx.global "config-immutable-after-setup"]

let sink_override : (string -> unit) option ref = ref None [@@dmx.global "config-immutable-after-setup"]
let set_sink f = sink_override := Some f
let open_file_sink path = sink_override := Some (make_file_sink path)
let use_default_sink () = sink_override := None

let emitted_count = ref 0 [@@dmx.global "UNSAFE"]

let emit line =
  incr emitted_count;
  match !sink_override with
  | Some f -> f line
  | None -> (Lazy.force default_sink) line

let emitted () = !emitted_count

(* The JSON-lines consumer. Attributes are built here, at render time, so
   no other consumer pays for them. *)
let render sp =
  let buf = Buffer.create 160 in
  Buffer.add_char buf '{';
  Buffer.add_string buf (Printf.sprintf "\"ts\":%.6f," sp.start);
  Buffer.add_string buf
    (Printf.sprintf "\"ev\":%S," (if sp.instant then "event" else "span"));
  Buffer.add_string buf
    (Printf.sprintf "\"id\":%d,\"parent\":%d,\"txn\":%d," sp.id sp.parent
       sp.txid);
  Buffer.add_string buf "\"name\":";
  Obs_json.to_buffer buf (Obs_json.Str sp.name);
  if not sp.instant then begin
    Buffer.add_string buf (Printf.sprintf ",\"us\":%.1f" sp.us);
    Buffer.add_string buf ",\"outcome\":";
    Obs_json.to_buffer buf (Obs_json.Str sp.outcome)
  end;
  (match sp.attrs () @ sp.exit_attrs () with
  | [] -> ()
  | attrs ->
    Buffer.add_string buf ",\"attrs\":";
    Obs_json.to_buffer buf (Obs_json.Obj attrs));
  Buffer.add_char buf '}';
  Buffer.contents buf

let json_consumer sp = emit (render sp)

let set_enabled b =
  set_subscribed json_consumer b;
  if b then Metrics.set_enabled true else flush_sink ()

let () = subscribe_from_env "DMX_TRACE" json_consumer

(* ---- span stack ---- *)

let next_id = ref 0 [@@dmx.global "UNSAFE"]
let stack : span list ref = ref [] [@@dmx.global "UNSAFE"]

let txn_root = "txn"

let depth () =
  let rec count n = function
    | [] -> n
    | s :: rest -> if String.equal s.name txn_root then n else count (n + 1) rest
  in
  count 0 !stack

let no_attrs () = []

let null_span =
  {
    id = 0; parent = 0; name = ""; txid = 0; key = Lock; start = 0.;
    instant = true; attrs = no_attrs; child_us = 0.; us = 0.; self_us = 0.;
    outcome = ""; exit_attrs = no_attrs;
  } [@@dmx.global "config-immutable-after-setup"]

let reset_for_testing () =
  stack := [];
  next_id := 0;
  emitted_count := 0

let publish sp = List.iter (fun c -> c sp) !consumers

(* A negative [txid] inherits the enclosing span's transaction. *)
let make ~instant ?key ~attrs ~txid name =
  incr next_id;
  let parent, inherited =
    match !stack with [] -> (0, 0) | s :: _ -> (s.id, s.txid)
  in
  {
    id = !next_id;
    parent;
    name;
    txid = (if txid >= 0 then txid else inherited);
    key = (match key with Some k -> k | None -> Span name);
    start = Unix.gettimeofday ();
    instant;
    attrs;
    child_us = 0.;
    us = 0.;
    self_us = 0.;
    outcome = (if instant then "" else "ok");
    exit_attrs = no_attrs;
  }

let enter ?key ?(attrs = no_attrs) ~txid name =
  if not !on then null_span
  else begin
    let sp = make ~instant:false ?key ~attrs ~txid name in
    stack := sp :: !stack;
    sp
  end

(* Duration and self time (duration minus direct children) are computed
   here, once, for every consumer. A span opened before its consumers left
   is still popped, so the stack stays balanced across a toggle. *)
let exit_span ?(outcome = "ok") ?attrs sp =
  if sp != null_span then begin
    (* pop up to and including [sp]; tolerate an unbalanced stack rather
       than wedging tracing (the sanitizer reports the imbalance). *)
    let rec pop = function
      | [] -> []
      | s :: rest -> if s == sp then rest else pop rest
    in
    stack := pop !stack;
    let us = (Unix.gettimeofday () -. sp.start) *. 1e6 in
    sp.us <- us;
    sp.self_us <- Float.max 0. (us -. sp.child_us);
    sp.outcome <- outcome;
    (match attrs with Some a -> sp.exit_attrs <- a | None -> ());
    (match !stack with p :: _ -> p.child_us <- p.child_us +. us | [] -> ());
    if !on then publish sp
  end

let event ?(txid = -1) ?(attrs = no_attrs) name =
  if !on then publish (make ~instant:true ~attrs ~txid name)

let with_span ?key ?attrs ?(txid = -1) name f =
  if not !on then f ()
  else begin
    let sp = enter ?key ?attrs ~txid name in
    match f () with
    | v ->
      exit_span sp;
      v
    | exception e ->
      exit_span sp ~outcome:"exn"
        ~attrs:(fun () -> [ ("exn", Obs_json.Str (Printexc.to_string e)) ]);
      raise e
  end
