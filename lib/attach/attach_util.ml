open Dmx_value
open Dmx_core

type 'a instances = (int * string * 'a) list

let enc_instances enc_payload insts =
  let e = Codec.Enc.create () in
  Codec.Enc.list e
    (fun e (no, name, payload) ->
      Codec.Enc.varint e no;
      Codec.Enc.string e name;
      enc_payload e payload)
    insts;
  Codec.Enc.to_string e

let dec_instances dec_payload s =
  let d = Codec.Dec.of_string s in
  Codec.Dec.list d (fun d ->
      let no = Codec.Dec.varint d in
      let name = Codec.Dec.string d in
      let payload = dec_payload d in
      (no, name, payload))

let next_instance_no insts =
  1 + List.fold_left (fun m (no, _, _) -> max m no) 0 insts

let find_by_name insts name =
  List.find_map
    (fun (no, n, p) ->
      if String.lowercase_ascii n = String.lowercase_ascii name then
        Some (no, p)
      else None)
    insts

let find_by_no insts no =
  List.find_map (fun (n, _, p) -> if n = no then Some p else None) insts

let remove_by_name insts name =
  List.filter
    (fun (_, n, _) ->
      String.lowercase_ascii n <> String.lowercase_ascii name)
    insts

let parse_fields schema spec =
  let names = String.split_on_char ',' spec |> List.map String.trim in
  let rec loop acc = function
    | [] -> Ok (Array.of_list (List.rev acc))
    | n :: rest -> begin
      match Schema.field_index schema n with
      | Some i ->
        if List.mem i acc then Error (Fmt.str "duplicate field %S" n)
        else loop (i :: acc) rest
      | None -> Error (Fmt.str "unknown field %S" n)
    end
  in
  if names = [] || names = [ "" ] then Error "empty field list"
  else loop [] names

let scan_relation ctx (desc : Dmx_catalog.Descriptor.t) f =
  let (module M : Intf.STORAGE_METHOD) =
    Registry.storage_method desc.smethod_id
  in
  let scan = M.scan ctx desc () in
  let rec loop () =
    match scan.Intf.rn_next () with
    | None -> scan.Intf.rn_close ()
    | Some run ->
      Array.iter (fun (key, record) -> f key record) run;
      loop ()
  in
  loop ()

let encode_reckey_value key =
  Value.String (Bytes.to_string (Record_key.encode key))

let decode_reckey_value = function
  | Value.String s -> Record_key.decode (Bytes.of_string s)
  | v -> failwith (Fmt.str "not an encoded record key: %a" Value.pp v)
