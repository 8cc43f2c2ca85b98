(* E11's reference readers: the record-at-a-time heap and btree_org scans
   the storage methods had before record runs became the only scan
   protocol. E11 measures the run path against them, so they keep the seed
   algorithm exactly: the heap reader pins a page per slot visit and copies
   each payload out before decoding, the btree reader decodes a leaf per
   record through [Btree.next]. *)

open Dmx_value
module Ctx = Dmx_core.Ctx
module Buffer_pool = Dmx_page.Buffer_pool
module Slotted = Dmx_page.Slotted
module Btree = Dmx_btree.Btree

type next = unit -> (Record_key.t * Record.t) option

(* The heap pages holding [rids], in page order. *)
let pages_of rids =
  List.filter_map
    (function Record_key.Rid { page; _ } -> Some page | _ -> None)
    rids
  |> List.sort_uniq compare

(* Position: index of the page and slot of the record the scan is "on". *)
let heap (ctx : Ctx.t) ~pages : next =
  let pages = Array.of_list pages in
  let pos = ref (-1, -1) in
  let with_page page f =
    let frame =
      Buffer_pool.pin ~txid:ctx.Ctx.txn.Dmx_txn.Txn.id ctx.Ctx.bp page
    in
    Fun.protect
      ~finally:(fun () -> Buffer_pool.unpin ctx.Ctx.bp frame)
      (fun () -> f frame.Buffer_pool.data)
  in
  fun () ->
    let rec advance page_idx slot =
      if page_idx >= Array.length pages then None
      else
        let page = pages.(page_idx) in
        let hit =
          with_page page (fun data ->
              let n = Slotted.slot_count data in
              let rec try_slot s =
                if s >= n then None
                else
                  match Slotted.read data s with
                  | Some payload -> Some (s, payload)
                  | None -> try_slot (s + 1)
              in
              try_slot slot)
        in
        match hit with
        | Some (s, payload) ->
          pos := (page_idx, s);
          Some
            ( Record_key.rid ~page ~slot:s,
              Codec.decode_record (Bytes.of_string payload) )
        | None -> advance (page_idx + 1) 0
    in
    let page_idx, slot = !pos in
    if page_idx < 0 then advance 0 0 else advance page_idx (slot + 1)

let btree ?lo ?hi tree : next =
  let cursor = Btree.cursor ?lo ?hi tree in
  fun () ->
    match Btree.next cursor with
    | None -> None
    | Some (key, payload) ->
      Some
        (Record_key.fields key, Codec.decode_record (Bytes.of_string payload))
