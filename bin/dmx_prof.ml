(* dmx_prof — offline analyzer for DMX_TRACE_FILE JSON-Lines traces.

   Usage:
     dmx_prof.exe [--top N] [--json] [--statements] [TRACE_FILE]

   When TRACE_FILE is omitted, $DMX_TRACE_FILE is consulted, so the same
   environment variable that produced the trace can be reused to read it
   back. Reports: critical path of the slowest transaction, top-N slowest
   spans, per-relation and per-attachment latency quantiles, lock-contention
   pairs, deadlock victims, and per-statement fingerprint statistics: the
   trace's stmt.exec spans replayed through the query store, printed by the
   same table as the shell's show statements.
   --json emits the same report as one JSON object on stdout (CI diffs
   profiles across runs); text stays the default. --statements restricts
   the output to the statement section alone — with --json that is a bare
   list, convenient as a CI artifact. *)

let usage () =
  Fmt.epr "usage: dmx_prof [--top N] [--json] [--statements] [TRACE_FILE]@.";
  Fmt.epr "       TRACE_FILE defaults to $DMX_TRACE_FILE@.";
  exit 2

let () =
  let top = ref 10 in
  let json = ref false in
  let statements_only = ref false in
  let path = ref None in
  let rec parse = function
    | [] -> ()
    | "--top" :: n :: rest ->
      (match int_of_string_opt n with
      | Some n when n > 0 -> top := n
      | _ -> usage ());
      parse rest
    | "--json" :: rest ->
      json := true;
      parse rest
    | "--statements" :: rest ->
      statements_only := true;
      parse rest
    | ("--help" | "-h") :: _ -> usage ()
    | arg :: rest ->
      (match !path with None -> path := Some arg | Some _ -> usage ());
      parse rest
  in
  parse (List.tl (Array.to_list Sys.argv));
  let path =
    match !path with
    | Some p -> p
    | None -> (
      match Sys.getenv_opt "DMX_TRACE_FILE" with
      | Some p when p <> "" -> p
      | _ -> usage ())
  in
  if not (Sys.file_exists path) then begin
    Fmt.epr "dmx_prof: no such trace file: %s@." path;
    exit 1
  end;
  let records, errors = Dmx_obs.Trace_reader.load_file path in
  List.iter (fun e -> Fmt.epr "dmx_prof: %s@." e) errors;
  if records = [] then begin
    Fmt.epr "dmx_prof: %s: no trace records@." path;
    exit 1
  end;
  (* Statements replay through the live store's own aggregation; the
     capacity lift keeps every fingerprint the trace holds. *)
  let open Dmx_obs in
  Query_store.reset ();
  Query_store.set_capacity max_int;
  Query_store.set_enabled true;
  Trace_reader.replay_statements records;
  let statements_json () = Query_store.statements_json `Calls in
  match (!statements_only, !json) with
  | true, true -> Fmt.pr "%s@." (Obs_json.to_string (statements_json ()))
  | true, false -> Fmt.pr "%a@." (Query_store.pp_statements `Calls) ()
  | false, true ->
    let report =
      match Trace_reader.to_json ~top:!top records with
      | Obs_json.Obj kvs ->
        Obs_json.Obj (kvs @ [ ("statements", statements_json ()) ])
      | j -> j
    in
    Fmt.pr "%s@." (Obs_json.to_string report)
  | false, false ->
    Fmt.pr "%a@." (Trace_reader.pp_report ~top:!top) records;
    if Query_store.size () > 0 then
      Fmt.pr "statements (replayed through the query store):@.%a@."
        (Query_store.pp_statements `Calls) ()
