open Dmx_catalog

let max_storage_methods = 64

let smethods : (module Intf.STORAGE_METHOD) option array =
  Array.make max_storage_methods None [@@dmx.global "config-immutable-after-setup"]

let attaches : (module Intf.ATTACHMENT) option array =
  Array.make Descriptor.max_attachment_types None [@@dmx.global "config-immutable-after-setup"]

let sm_count = ref 0 [@@dmx.global "config-immutable-after-setup"]
let at_count = ref 0 [@@dmx.global "config-immutable-after-setup"]
let frozen = ref false [@@dmx.global "config-immutable-after-setup"]

let unregistered vec id =
  failwith
    (Fmt.str
       "Registry: dispatch through unregistered slot %d of vector %s — the \
        extension was linked but never registered in the default factory \
        (Db.register_defaults)"
       id vec)

(* Per-vector stub makers, shared by initialisation and reset so a stale
   entry always reports which vector and id was hit. *)
let stub_sm_insert id _ _ _ = unregistered "sm_insert" id
let stub_sm_update id _ _ _ _ = unregistered "sm_update" id
let stub_sm_delete id _ _ _ = unregistered "sm_delete" id
let stub_at_on_insert id _ _ ~slot:_ _ _ = unregistered "at_on_insert" id

let stub_at_on_update id _ _ ~slot:_ ~old_key:_ ~new_key:_ ~old_record:_
    ~new_record:_ =
  unregistered "at_on_update" id

let stub_at_on_delete id _ _ ~slot:_ _ _ = unregistered "at_on_delete" id

(* Per-operation procedure vectors; entries installed at registration. *)
module Vec = struct
  let sm_insert = Array.init max_storage_methods stub_sm_insert [@@dmx.global "config-immutable-after-setup"]
  let sm_update = Array.init max_storage_methods stub_sm_update [@@dmx.global "config-immutable-after-setup"]
  let sm_delete = Array.init max_storage_methods stub_sm_delete [@@dmx.global "config-immutable-after-setup"]
  let at_on_insert = Array.init Descriptor.max_attachment_types stub_at_on_insert [@@dmx.global "config-immutable-after-setup"]
  let at_on_update = Array.init Descriptor.max_attachment_types stub_at_on_update [@@dmx.global "config-immutable-after-setup"]
  let at_on_delete = Array.init Descriptor.max_attachment_types stub_at_on_delete [@@dmx.global "config-immutable-after-setup"]

  (* Optional batch entries. The default falls back to the per-record slot of
     the same vector index, so extensions that never register a batch routine
     keep exactly their per-record semantics; extensions with a cheaper bulk
     form override their entry via [set_sm_insert_batch]/[set_at_insert_batch]. *)
  let default_sm_insert_batch id ctx desc records =
    let rec loop i acc =
      if i >= Array.length records then Ok (Array.of_list (List.rev acc))
      else
        match sm_insert.(id) ctx desc records.(i) with
        | Ok key -> loop (i + 1) (key :: acc)
        | Error e -> Error e
    in
    loop 0 []

  let default_at_on_insert_batch id ctx desc ~slot entries =
    let rec loop i =
      if i >= Array.length entries then Ok ()
      else
        let key, record = entries.(i) in
        match at_on_insert.(id) ctx desc ~slot key record with
        | Ok () -> loop (i + 1)
        | Error e -> Error e
    in
    loop 0

  let sm_insert_batch = Array.init max_storage_methods default_sm_insert_batch [@@dmx.global "config-immutable-after-setup"]

  let at_on_insert_batch =
    Array.init Descriptor.max_attachment_types default_at_on_insert_batch [@@dmx.global "config-immutable-after-setup"]
end

let check_not_frozen what =
  if !frozen then
    invalid_arg
      (Fmt.str
         "Registry: cannot register %s after the database has opened — \
          extensions are bound at the factory"
         what)

(* Duplicate-name scan over the occupied prefix only: ids are assigned
   densely in registration order, so slots >= count are always None. *)
let check_unique_name count arr name_of what name =
  for i = 0 to count - 1 do
    match arr.(i) with
    | Some m when name_of m = name ->
      invalid_arg (Fmt.str "Registry: %s %S already registered" what name)
    | _ -> ()
  done

let register_storage_method (module M : Intf.STORAGE_METHOD) =
  check_not_frozen ("storage method " ^ M.name);
  if !sm_count >= max_storage_methods then
    invalid_arg "Registry: storage-method vector full";
  check_unique_name !sm_count smethods
    (fun (module O : Intf.STORAGE_METHOD) -> O.name)
    "storage method" M.name;
  let id = !sm_count in
  incr sm_count;
  smethods.(id) <- Some (module M);
  Vec.sm_insert.(id) <- M.insert;
  Vec.sm_update.(id) <- M.update;
  Vec.sm_delete.(id) <- M.delete;
  id

let register_attachment (module M : Intf.ATTACHMENT) =
  check_not_frozen ("attachment " ^ M.name);
  if !at_count >= Descriptor.max_attachment_types then
    invalid_arg "Registry: attachment vector full";
  check_unique_name !at_count attaches
    (fun (module O : Intf.ATTACHMENT) -> O.name)
    "attachment" M.name;
  let id = !at_count in
  incr at_count;
  attaches.(id) <- Some (module M);
  Vec.at_on_insert.(id) <- M.on_insert;
  Vec.at_on_update.(id) <- M.on_update;
  Vec.at_on_delete.(id) <- M.on_delete;
  id

let set_sm_insert_batch id f =
  check_not_frozen (Fmt.str "batch insert for storage method %d" id);
  if id < 0 || id >= max_storage_methods then
    invalid_arg "Registry.set_sm_insert_batch: bad id";
  Vec.sm_insert_batch.(id) <- f

let set_at_insert_batch id f =
  check_not_frozen (Fmt.str "batch insert for attachment %d" id);
  if id < 0 || id >= Descriptor.max_attachment_types then
    invalid_arg "Registry.set_at_insert_batch: bad id";
  Vec.at_on_insert_batch.(id) <- f

let freeze () = frozen := true
let is_frozen () = !frozen

let reset_for_testing () =
  frozen := false;
  sm_count := 0;
  at_count := 0;
  Array.fill smethods 0 (Array.length smethods) None;
  Array.fill attaches 0 (Array.length attaches) None;
  Array.iteri (fun i _ -> Vec.sm_insert.(i) <- stub_sm_insert i) Vec.sm_insert;
  Array.iteri (fun i _ -> Vec.sm_update.(i) <- stub_sm_update i) Vec.sm_update;
  Array.iteri (fun i _ -> Vec.sm_delete.(i) <- stub_sm_delete i) Vec.sm_delete;
  Array.iteri
    (fun i _ -> Vec.at_on_insert.(i) <- stub_at_on_insert i)
    Vec.at_on_insert;
  Array.iteri
    (fun i _ -> Vec.at_on_update.(i) <- stub_at_on_update i)
    Vec.at_on_update;
  Array.iteri
    (fun i _ -> Vec.at_on_delete.(i) <- stub_at_on_delete i)
    Vec.at_on_delete;
  Array.iteri
    (fun i _ -> Vec.sm_insert_batch.(i) <- Vec.default_sm_insert_batch i)
    Vec.sm_insert_batch;
  Array.iteri
    (fun i _ -> Vec.at_on_insert_batch.(i) <- Vec.default_at_on_insert_batch i)
    Vec.at_on_insert_batch

let storage_method id =
  match
    if id >= 0 && id < max_storage_methods then smethods.(id) else None
  with
  | Some m -> m
  | None -> invalid_arg (Fmt.str "Registry: no storage method with id %d" id)

let attachment id =
  match
    if id >= 0 && id < Descriptor.max_attachment_types then attaches.(id)
    else None
  with
  | Some m -> m
  | None -> invalid_arg (Fmt.str "Registry: no attachment with id %d" id)

let find_id arr count name_of name =
  let rec loop i =
    if i >= count then None
    else
      match arr.(i) with
      | Some m when String.lowercase_ascii (name_of m) = String.lowercase_ascii name ->
        Some i
      | _ -> loop (i + 1)
  in
  loop 0

let storage_method_id name =
  find_id smethods !sm_count
    (fun (module M : Intf.STORAGE_METHOD) -> M.name)
    name

let attachment_id name =
  find_id attaches !at_count (fun (module M : Intf.ATTACHMENT) -> M.name) name

let storage_method_name id =
  let (module M : Intf.STORAGE_METHOD) = storage_method id in
  M.name

let attachment_name id =
  let (module M : Intf.ATTACHMENT) = attachment id in
  M.name

let storage_methods () =
  List.init !sm_count (fun id -> (id, storage_method_name id))

let attachments () = List.init !at_count (fun id -> (id, attachment_name id))
