(* Records per run for chunked scans; tests may override. *)
let default_run_length = 256
let run_length_override = ref None [@@dmx.global "config-immutable-after-setup"]
let set_run_length_for_testing n = run_length_override := n

let run_length () =
  Option.value !run_length_override ~default:default_run_length

(* The predicate service: compile the filter once per scan open when the
   caller can supply the schema; fall back to the interpreter otherwise. *)
let compiled_test ?filter ?schema () =
  match filter with
  | None -> None
  | Some pred -> begin
    match schema with
    | Some schema -> Some (Dmx_expr.Eval.compile schema pred)
    | None -> Some (fun record -> Dmx_expr.Eval.test record pred)
  end

let filtered_batch ?filter ?schema ~next_run ~close ~capture () =
  let test = compiled_test ?filter ?schema () in
  let rn_next () =
    match test with
    | None -> next_run ()
    | Some test ->
      let rec loop () =
        match next_run () with
        | None -> None
        | Some run ->
          let n = Array.length run in
          let count = ref 0 in
          for i = 0 to n - 1 do
            let _, record = run.(i) in
            if test record then begin
              (* compact qualifying hits toward the front in place: the raw
                 run is ours (producers build a fresh array per run) *)
              run.(!count) <- run.(i);
              incr count
            end
          done;
          if !count = 0 then loop ()
          else if !count = n then Some run
          else Some (Array.sub run 0 !count)
      in
      loop ()
  in
  { Intf.rn_next; rn_close = close; rn_capture = capture }

(* Chunk a record producer into runs of [run_length ()] raw records; the
   producer's position after a run is on the last record it returned. *)
let filtered ?filter ?schema ~next ~close ~capture () =
  let next_run () =
    let n = run_length () in
    let rec take acc count =
      if count >= n then acc
      else
        match next () with
        | None -> acc
        | Some hit -> take (hit :: acc) (count + 1)
    in
    match take [] 0 with
    | [] -> None
    | hits -> Some (Array.of_list (List.rev hits))
  in
  filtered_batch ?filter ?schema ~next_run ~close ~capture ()

(* The record view. Its capture pairs the run scan's position with the
   current run and the index in it, so a savepoint taken mid-run restores
   to the exact record. *)
let records (s : Intf.run_scan) =
  let run = ref [||] in
  let i = ref 0 in
  let rec rs_next () =
    if !i < Array.length !run then begin
      let hit = !run.(!i) in
      incr i;
      Some hit
    end
    else
      match s.rn_next () with
      | None -> None
      | Some r ->
        run := r;
        i := 0;
        rs_next ()
  in
  let rs_capture () =
    let restore = s.rn_capture () in
    let saved_run = !run and saved_i = !i in
    fun () ->
      restore ();
      run := saved_run;
      i := saved_i
  in
  { Intf.rs_next; rs_close = s.rn_close; rs_capture }

let key_scan_of ~next ~close ~capture () =
  { Intf.ks_next = next; ks_close = close; ks_capture = capture }

let record_scan_to_list (s : Intf.record_scan) =
  let rec loop acc =
    match s.rs_next () with
    | None ->
      s.rs_close ();
      List.rev acc
    | Some hit -> loop (hit :: acc)
  in
  loop []

let run_scan_to_list (s : Intf.run_scan) =
  let rec loop acc =
    match s.rn_next () with
    | None ->
      s.rn_close ();
      List.rev acc
    | Some run -> loop (List.rev_append (Array.to_list run) acc)
  in
  loop []

let key_scan_to_list (s : Intf.key_scan) =
  let rec loop acc =
    match s.ks_next () with
    | None ->
      s.ks_close ();
      List.rev acc
    | Some hit -> loop (hit :: acc)
  in
  loop []
