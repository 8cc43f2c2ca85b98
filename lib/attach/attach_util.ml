open Dmx_value
open Dmx_core
module Descriptor = Dmx_catalog.Descriptor
module Attrlist = Dmx_catalog.Attrlist
module Catalog = Dmx_catalog.Catalog

type 'a instances = (int * string * 'a) list

let next_instance_no insts =
  1 + List.fold_left (fun m (no, _, _) -> max m no) 0 insts

let same_name a b = String.lowercase_ascii a = String.lowercase_ascii b

let find_by_name insts name =
  List.find_map
    (fun (no, n, p) -> if same_name n name then Some (no, p) else None)
    insts

let find_by_no insts no =
  List.find_map (fun (n, _, p) -> if n = no then Some p else None) insts

let remove_by_name insts name =
  List.filter (fun (_, n, _) -> not (same_name n name)) insts

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
  | v ->
    Error.raise_err
      (Error.Internal (Fmt.str "not an encoded record key: %a" Value.pp v))

module type PAYLOAD = sig
  type t

  val id : unit -> int
  val noun : string
  val enc : Codec.Enc.t -> t -> unit
  val dec : Codec.Dec.t -> t
end

let ( let* ) = Result.bind

module Instances (P : PAYLOAD) = struct
  let decode slot =
    let d = Codec.Dec.of_string slot in
    Codec.Dec.list d (fun d ->
        let no = Codec.Dec.varint d in
        let name = Codec.Dec.string d in
        let payload = P.dec d in
        (no, name, payload))

  let encode insts =
    let e = Codec.Enc.create () in
    Codec.Enc.list e
      (fun e (no, name, payload) ->
        Codec.Enc.varint e no;
        Codec.Enc.string e name;
        P.enc e payload)
      insts;
    Codec.Enc.to_string e

  let encode_opt = function [] -> None | insts -> Some (encode insts)

  let of_desc desc =
    match Descriptor.attachment_desc desc (P.id ()) with
    | None -> []
    | Some slot -> decode slot

  let each slot f =
    let rec loop = function
      | [] -> Ok ()
      | (no, name, inst) :: rest ->
        let* () = f no name inst in
        loop rest
    in
    loop (decode slot)

  let find_no ~slot no = find_by_no (decode slot) no
  let find desc ~name = find_by_name (of_desc desc) name
  let find_desc_no desc no = find_by_no (of_desc desc) no
  let names desc = List.map (fun (_, name, _) -> name) (of_desc desc)
  let number desc ~name = Option.map fst (find desc ~name)

  let append insts ~instance_name inst =
    insts @ [ (next_instance_no insts, instance_name, inst) ]

  let create desc ~instance_name specs attrs build =
    match Attrlist.validate specs attrs with
    | Error e -> Error (Error.Ddl_error e)
    | Ok () ->
      let insts = of_desc desc in
      if find_by_name insts instance_name <> None then
        Error
          (Error.Ddl_error
             (Fmt.str "%s %S already exists" P.noun instance_name))
      else
        let* inst = build ~no:(next_instance_no insts) in
        Ok (encode (append insts ~instance_name inst))

  let drop ?(release = ignore) desc ~instance_name =
    let insts = of_desc desc in
    match find_by_name insts instance_name with
    | None -> Error (Error.No_such_attachment instance_name)
    | Some (_, inst) ->
      release inst;
      Ok (encode_opt (remove_by_name insts instance_name))

  let for_undo ctx ~rel_id no =
    match Catalog.find_by_id ctx.Ctx.catalog rel_id with
    | None -> None
    | Some desc -> find_desc_no desc no

  let add_mirror ctx (other : Descriptor.t) ~instance_name inst =
    let old_desc = Descriptor.attachment_desc other (P.id ()) in
    let insts = match old_desc with None -> [] | Some s -> decode s in
    Ctx.set_attachment_slot ctx ~rel_id:other.rel_id ~slot:(P.id ()) ~old_desc
      (Some (encode (append insts ~instance_name inst)))

  let remove_mirror ctx ~rel_id ~instance_name =
    match Catalog.find_by_id ctx.Ctx.catalog rel_id with
    | None -> ()
    | Some other -> begin
      match Descriptor.attachment_desc other (P.id ()) with
      | None -> ()
      | Some slot ->
        Ctx.set_attachment_slot ctx ~rel_id ~slot:(P.id ())
          ~old_desc:(Some slot)
          (encode_opt (remove_by_name (decode slot) instance_name))
    end
end
