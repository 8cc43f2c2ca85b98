(** The B-tree-organised storage method.

    "The records of the relation ... may be stored in the leaves of a B-tree
    index" (paper p. 221). Record keys are composed from declared key fields
    (DDL attribute [key], e.g. [key=id] or [key=dept,id]); key-sequential
    access returns records in key order without a separate index, and the
    cost estimator recognises predicates on the key prefix. *)

include Dmx_core.Intf.STORAGE_METHOD

val register : unit -> int
val id : unit -> int

val tree : Dmx_core.Ctx.t -> Dmx_catalog.Descriptor.t -> Dmx_btree.Btree.t
(** The relation's record tree, for readers outside the storage method
    (benchmark reference readers); callers must not modify it. *)
