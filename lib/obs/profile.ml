(* Per-transaction latency attribution across the extension architecture's
   component boundaries. Profile is a [Trace] consumer: every closed span is
   charged to its (transaction, key) row — a storage-method slot, an
   attachment type, the lock table, the WAL, the buffer pool, or the span's
   own name. The span stack has already split the duration into self and
   child time (smethod.insert's self time excludes the WAL append it
   triggered, relation.insert's excludes both). *)

type kind = Trace.key =
  | Smethod of int
  | Attachment of int
  | Lock
  | Wal
  | Bp
  | Span of string

type entry = {
  mutable e_calls : int;
  mutable e_total_us : float;
  mutable e_self_us : float;
  mutable e_vetoes : int;
  mutable e_errors : int;
}

let table : (int * kind, entry) Hashtbl.t = Hashtbl.create 64 [@@dmx.global "UNSAFE"]

let entry_for key =
  match Hashtbl.find_opt table key with
  | Some e -> e
  | None ->
    let e =
      { e_calls = 0; e_total_us = 0.; e_self_us = 0.; e_vetoes = 0;
        e_errors = 0 }
    in
    Hashtbl.replace table key e;
    e

let charge (sp : Trace.span) =
  if not sp.instant then begin
    let e = entry_for (sp.txid, sp.key) in
    e.e_calls <- e.e_calls + 1;
    e.e_total_us <- e.e_total_us +. sp.us;
    e.e_self_us <- e.e_self_us +. sp.self_us;
    match sp.outcome with
    | "ok" -> ()
    | "veto" -> e.e_vetoes <- e.e_vetoes + 1
    | _ -> e.e_errors <- e.e_errors + 1
  end

let enabled () = Trace.subscribed charge
let set_enabled b = Trace.set_subscribed charge b
let () = Trace.subscribe_from_env "DMX_PROFILE" charge

(* ---- naming ---- *)

let namer : (kind -> string option) ref = ref (fun _ -> None) [@@dmx.global "config-immutable-after-setup"]
let set_key_namer f = namer := f

let display_name k =
  match !namer k with
  | Some s -> s
  | None -> (
    match k with
    | Smethod i -> Printf.sprintf "smethod:#%d" i
    | Attachment i -> Printf.sprintf "attach:#%d" i
    | Lock -> "lock"
    | Wal -> "wal"
    | Bp -> "buffer-pool"
    | Span s -> "span:" ^ s)

(* ---- reporting ---- *)

type row = {
  r_name : string;
  r_calls : int;
  r_total_us : float;
  r_self_us : float;
  r_vetoes : int;
  r_errors : int;
}

let rows_of_entries entries =
  (* aggregate by display name (cross-txn reports merge same-kind entries
     from different transactions) *)
  let byname : (string, row ref) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (kind, e) ->
      let name = display_name kind in
      let r =
        match Hashtbl.find_opt byname name with
        | Some r -> r
        | None ->
          let r =
            ref
              { r_name = name; r_calls = 0; r_total_us = 0.; r_self_us = 0.;
                r_vetoes = 0; r_errors = 0 }
          in
          Hashtbl.replace byname name r;
          r
      in
      r :=
        {
          !r with
          r_calls = !r.r_calls + e.e_calls;
          r_total_us = !r.r_total_us +. e.e_total_us;
          r_self_us = !r.r_self_us +. e.e_self_us;
          r_vetoes = !r.r_vetoes + e.e_vetoes;
          r_errors = !r.r_errors + e.e_errors;
        })
    entries;
  Hashtbl.fold (fun _ r acc -> !r :: acc) byname []
  |> List.sort (fun a b -> compare b.r_self_us a.r_self_us)

let report () =
  rows_of_entries
    (Hashtbl.fold (fun (_, kind) e acc -> (kind, e) :: acc) table [])

let txn_report txid =
  rows_of_entries
    (Hashtbl.fold
       (fun (t, kind) e acc -> if t = txid then (kind, e) :: acc else acc)
       table [])

let txids () =
  let seen = Hashtbl.create 8 in
  Hashtbl.iter (fun (t, _) _ -> Hashtbl.replace seen t ()) table;
  Hashtbl.fold (fun t () acc -> t :: acc) seen [] |> List.sort compare

let reset () = Hashtbl.reset table

let pp_rows ppf rows =
  let render r =
    [
      r.r_name;
      string_of_int r.r_calls;
      Report_txt.fmt_us r.r_total_us;
      Report_txt.fmt_us r.r_self_us;
      string_of_int r.r_vetoes;
      string_of_int r.r_errors;
    ]
  in
  Report_txt.pp_table
    ~columns:
      [
        ("component", Report_txt.L);
        ("calls", Report_txt.R);
        ("total", Report_txt.R);
        ("self", Report_txt.R);
        ("vetoes", Report_txt.R);
        ("errors", Report_txt.R);
      ]
    ppf (List.map render rows)

let pp_report ppf () =
  match report () with
  | [] -> Fmt.pf ppf "profile: no samples (is profiling on?)@."
  | rows ->
    Fmt.pf ppf "profile: attribution by self time, all transactions@.";
    pp_rows ppf rows;
    List.iter
      (fun txid ->
        match txn_report txid with
        | [] -> ()
        | rows ->
          Fmt.pf ppf "transaction %d:@." txid;
          pp_rows ppf rows)
      (List.filter (fun t -> t <> 0) (txids ()))
