(* Self-test for the dmx-lint static pass: build small fixture trees that
   violate each invariant, run the linter library against them, and assert
   the file:line diagnostics. The last test lints the real source tree with
   the checked-in baseline — the same run `dune build @lint` performs. *)

let ( / ) = Filename.concat

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun e -> rm_rf (path / e)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let write_file path content =
  mkdir_p (Filename.dirname path);
  let oc = open_out path in
  output_string oc content;
  close_out oc

let fixture_counter = ref 0

(* A minimal well-formed tree: one registered storage method, one registered
   attachment, a factory that mentions both. Tests then overlay violations. *)
let with_fixture_tree f =
  incr fixture_counter;
  let root =
    Filename.get_temp_dir_name ()
    / Fmt.str "dmx_lint_fixture_%d" !fixture_counter
  in
  rm_rf root;
  write_file (root / "lib/smethod/goodheap.ml")
    "let register () = 0\nlet log_op x = x\n";
  write_file (root / "lib/smethod/goodheap.mli") "val register : unit -> int\n";
  write_file (root / "lib/attach/goodindex.ml") "let register () = 1\n";
  write_file (root / "lib/attach/goodindex.mli") "val register : unit -> int\n";
  write_file (root / "lib/txn/goodtxn.ml") "let commit () = Ok ()\n";
  write_file (root / "lib/txn/goodtxn.mli") "val commit : unit -> (unit, string) result\n";
  write_file (root / "lib/wal/goodwal.ml") "let append () = 1\n";
  write_file (root / "lib/wal/goodwal.mli") "val append : unit -> int\n";
  write_file (root / "lib/db/db.ml")
    "let register_defaults () =\n\
    \  ignore (Dmx_smethod.Goodheap.register ());\n\
    \  ignore (Dmx_attach.Goodindex.register ())\n";
  write_file (root / "lib/db/db.mli") "val register_defaults : unit -> unit\n";
  Fun.protect ~finally:(fun () -> rm_rf root) (fun () -> f root)

let run ?baseline ?update_baseline root =
  Lint_driver.run ?baseline ?update_baseline (Lint_driver.default_config ~root)

let check_diag what report ~rule ~file ~line =
  let found =
    List.exists
      (fun d ->
        d.Lint_diag.rule = rule && d.Lint_diag.file = file
        && d.Lint_diag.line = line)
      report.Lint_driver.violations
  in
  if not found then
    Alcotest.failf "%s: expected a %s diagnostic at %s:%d (got: %s)" what rule
      file line
      (String.concat "; "
         (List.map
            (fun d -> Fmt.str "%a" Lint_diag.pp d)
            report.Lint_driver.violations))

let test_clean_tree () =
  with_fixture_tree (fun root ->
      let report = run root in
      Alcotest.(check bool)
        (Fmt.str "clean fixture passes (got: %a)" Lint_driver.pp_report report)
        true (Lint_driver.ok report))

(* R1: a storage-method module with [val register] absent from the factory. *)
let test_unregistered_storage_method () =
  with_fixture_tree (fun root ->
      write_file (root / "lib/smethod/bogus.ml") "let register () = 7\n";
      write_file (root / "lib/smethod/bogus.mli")
        "(* a storage method the factory forgot *)\nval register : unit -> int\n";
      let report = run root in
      Alcotest.(check bool) "violations found" false (Lint_driver.ok report);
      check_diag "unregistered smethod" report ~rule:"vector-completeness"
        ~file:"lib/smethod/bogus.mli" ~line:2)

(* R1 on a sysview-shaped module: provider-registration entry points beside
   [val register] must not satisfy (or confuse) vector-completeness — only
   [<Mod>.register] in the factory does. *)
let test_sysview_stub_slots () =
  with_fixture_tree (fun root ->
      let mli =
        "val register : unit -> int\n\
         val register_provider : name:string -> (unit -> int list) -> unit\n\
         val provider_names : unit -> string list\n"
      in
      let ml =
        "let register () = 6\n\
         let register_provider ~name:_ _rows = ()\n\
         let provider_names () = []\n"
      in
      write_file (root / "lib/smethod/goodview.ml") ml;
      write_file (root / "lib/smethod/goodview.mli") mli;
      (* not in the factory yet: R1 fires on the [val register] line *)
      let report = run root in
      Alcotest.(check bool) "unmounted sysview flagged" false
        (Lint_driver.ok report);
      check_diag "unregistered sysview" report ~rule:"vector-completeness"
        ~file:"lib/smethod/goodview.mli" ~line:1;
      (* a factory that only calls the provider hook still misses R1 *)
      write_file (root / "lib/db/db.ml")
        "let register_defaults () =\n\
        \  ignore (Dmx_smethod.Goodheap.register ());\n\
        \  ignore (Dmx_attach.Goodindex.register ());\n\
        \  Dmx_smethod.Goodview.register_provider ~name:\"wal\" (fun () -> [])\n";
      let report = run root in
      check_diag "provider hook is not registration" report
        ~rule:"vector-completeness" ~file:"lib/smethod/goodview.mli" ~line:1;
      (* the real registration call satisfies it *)
      write_file (root / "lib/db/db.ml")
        "let register_defaults () =\n\
        \  ignore (Dmx_smethod.Goodheap.register ());\n\
        \  ignore (Dmx_attach.Goodindex.register ());\n\
        \  ignore (Dmx_smethod.Goodview.register ())\n";
      let report = run root in
      Alcotest.(check bool)
        (Fmt.str "mounted sysview passes (got: %a)" Lint_driver.pp_report
           report)
        true (Lint_driver.ok report))

(* R1 on a statement-store-shaped module: accumulation entry points
   ([record]/[entries]/[reset]) and a classified module-level table beside
   [val register] — only the factory's [<Mod>.register] call satisfies R1,
   and the classified global stays out of the strict R7 diagnostics. *)
let test_statement_store_slots () =
  with_fixture_tree (fun root ->
      let mli =
        "val register : unit -> int\n\
         val record : int -> unit\n\
         val entries : unit -> int list\n\
         val reset : unit -> unit\n"
      in
      let ml =
        "let table : (int, int) Hashtbl.t = Hashtbl.create 8 [@@dmx.global \
         \"ctx-owned\"]\n\
         let register () = 9\n\
         let record fp = Hashtbl.replace table fp fp\n\
         let entries () = Hashtbl.fold (fun _ v acc -> v :: acc) table []\n\
         let reset () = Hashtbl.reset table\n"
      in
      write_file (root / "lib/smethod/goodstore.ml") ml;
      write_file (root / "lib/smethod/goodstore.mli") mli;
      (* not in the factory: R1 fires on the [val register] line *)
      let report = run root in
      Alcotest.(check bool) "unmounted store flagged" false
        (Lint_driver.ok report);
      check_diag "unregistered store" report ~rule:"vector-completeness"
        ~file:"lib/smethod/goodstore.mli" ~line:1;
      (* a factory that only records into the store still misses R1 *)
      write_file (root / "lib/db/db.ml")
        "let register_defaults () =\n\
        \  ignore (Dmx_smethod.Goodheap.register ());\n\
        \  ignore (Dmx_attach.Goodindex.register ());\n\
        \  Dmx_smethod.Goodstore.record 1;\n\
        \  Dmx_smethod.Goodstore.reset ()\n";
      let report = run root in
      check_diag "accumulation calls are not registration" report
        ~rule:"vector-completeness" ~file:"lib/smethod/goodstore.mli" ~line:1;
      (* the classified table never shows up as a strict R7 diagnostic *)
      Alcotest.(check int)
        "classified global is clean" 0
        (List.length
           (List.filter
              (fun d -> d.Lint_diag.rule = "global-state")
              report.Lint_driver.violations));
      (* the real registration call satisfies R1 *)
      write_file (root / "lib/db/db.ml")
        "let register_defaults () =\n\
        \  ignore (Dmx_smethod.Goodheap.register ());\n\
        \  ignore (Dmx_attach.Goodindex.register ());\n\
        \  ignore (Dmx_smethod.Goodstore.register ())\n";
      let report = run root in
      Alcotest.(check bool)
        (Fmt.str "mounted store passes (got: %a)" Lint_driver.pp_report report)
        true (Lint_driver.ok report))

(* R2: a fresh failwith in an attachment. *)
let test_fresh_failwith_in_attach () =
  with_fixture_tree (fun root ->
      write_file (root / "lib/attach/bad.ml")
        "let register () = 2\n\nlet on_insert () =\n  failwith \"kaboom\"\n";
      write_file (root / "lib/attach/bad.mli") "val register : unit -> int\nval on_insert : unit -> unit\n";
      write_file (root / "lib/db/db.ml")
        "let register_defaults () =\n\
        \  ignore (Dmx_smethod.Goodheap.register ());\n\
        \  ignore (Dmx_attach.Goodindex.register ());\n\
        \  ignore (Dmx_attach.Bad.register ())\n";
      let report = run root in
      check_diag "fresh failwith" report ~rule:"error-discipline"
        ~file:"lib/attach/bad.ml" ~line:4)

(* R2 catches the whole banned set. *)
let test_banned_constructs () =
  with_fixture_tree (fun root ->
      write_file (root / "lib/txn/nasty.ml")
        "let a () = invalid_arg \"x\"\n\
         let b () = assert false\n\
         let c x = Obj.magic x\n\
         let d () = exit 1\n";
      write_file (root / "lib/txn/nasty.mli")
        "val a : unit -> 'a\nval b : unit -> 'a\nval c : 'a -> 'b\nval d : unit -> 'a\n";
      let report = run root in
      List.iter
        (fun line ->
          check_diag "banned construct" report ~rule:"error-discipline"
            ~file:"lib/txn/nasty.ml" ~line)
        [ 1; 2; 3; 4 ])

(* R3: catch-all exception handlers in lib/txn. *)
let test_exception_swallowing () =
  with_fixture_tree (fun root ->
      write_file (root / "lib/txn/swallow.ml")
        "let risky () = ()\n\
         let quiet () = try risky () with _ -> ()\n\
         let drops () = try risky () with e -> ignore e\n";
      write_file (root / "lib/txn/swallow.mli")
        "val risky : unit -> unit\nval quiet : unit -> unit\nval drops : unit -> unit\n";
      let report = run root in
      check_diag "with _ ->" report ~rule:"exception-swallowing"
        ~file:"lib/txn/swallow.ml" ~line:2;
      (* [with e -> ignore e] binds and uses the exception: not flagged *)
      Alcotest.(check int)
        "only the catch-all is flagged" 1
        (List.length
           (List.filter
              (fun d -> d.Lint_diag.rule = "exception-swallowing")
              report.Lint_driver.violations)))

(* R4: page mutation without a WAL call in the same function body. *)
let test_wal_before_page () =
  with_fixture_tree (fun root ->
      write_file (root / "lib/smethod/nolog.ml")
        "let register () = 3\n\n\
         let sneaky_write data payload =\n\
        \  Slotted.insert data payload\n\n\
         let logged_write ctx data payload =\n\
        \  ignore (Wal.append ctx 0 payload);\n\
        \  Slotted.insert data payload\n\n\
         let undo_write data payload = Slotted.insert_at data 0 payload\n\n\
         let batch_write ctx data payloads =\n\
        \  ignore (Ctx.log_many ctx payloads);\n\
        \  Slotted.insert data payloads\n\n\
         let batch_sneaky data payloads =\n\
        \  ignore (Buffer_pool.alloc data);\n\
        \  Slotted.insert data payloads\n";
      write_file (root / "lib/smethod/nolog.mli")
        "val register : unit -> int\n\
         val sneaky_write : 'a -> 'b -> 'c\n\
         val logged_write : 'a -> 'b -> 'c -> 'd\n\
         val undo_write : 'a -> 'b -> 'c\n\
         val batch_write : 'a -> 'b -> 'c -> 'd\n\
         val batch_sneaky : 'a -> 'b -> 'c\n";
      write_file (root / "lib/db/db.ml")
        "let register_defaults () =\n\
        \  ignore (Dmx_smethod.Goodheap.register ());\n\
        \  ignore (Dmx_smethod.Nolog.register ());\n\
        \  ignore (Dmx_attach.Goodindex.register ())\n";
      let report = run root in
      check_diag "unlogged mutator" report ~rule:"wal-before-page"
        ~file:"lib/smethod/nolog.ml" ~line:3;
      (* the batched logging entry point (Ctx.log_many) is recognized; an
         unlogged batch mutator is still flagged *)
      check_diag "unlogged batch mutator" report ~rule:"wal-before-page"
        ~file:"lib/smethod/nolog.ml" ~line:16;
      Alcotest.(check int)
        "logged, undo and batch-logged functions pass" 2
        (List.length
           (List.filter
              (fun d -> d.Lint_diag.rule = "wal-before-page")
              report.Lint_driver.violations)))

(* R5: a module without an interface. *)
let test_mli_coverage () =
  with_fixture_tree (fun root ->
      write_file (root / "lib/wal/nomli.ml") "let x = 1\n";
      let report = run root in
      check_diag "missing mli" report ~rule:"mli-coverage"
        ~file:"lib/wal/nomli.ml" ~line:1)

(* R6: Trace.enter without Trace.exit_span in the same binding. *)
let test_span_pairing () =
  with_fixture_tree (fun root ->
      write_file (root / "lib/wal/spans.ml")
        "let leaky name =\n\
        \  let sp = Trace.enter name in\n\
        \  ignore sp\n\n\
         let paired name =\n\
        \  let sp = Trace.enter name in\n\
        \  Trace.exit_span sp\n\n\
         let wrapped f = Trace.with_span \"ok\" f\n";
      write_file (root / "lib/wal/spans.mli")
        "val leaky : string -> unit\n\
         val paired : string -> unit\n\
         val wrapped : (unit -> 'a) -> 'a\n";
      let report = run root in
      check_diag "unpaired enter" report ~rule:"span-pairing"
        ~file:"lib/wal/spans.ml" ~line:2;
      (* the paired and with_span-only bindings are clean *)
      Alcotest.(check int)
        "only the leaky binding is flagged" 1
        (List.length
           (List.filter
              (fun d -> d.Lint_diag.rule = "span-pairing")
              report.Lint_driver.violations)))

(* Baseline: pinned counts pass; one extra violation fails; regeneration
   rewrites the file. *)
let test_baseline_enforcement () =
  with_fixture_tree (fun root ->
      write_file (root / "lib/attach/legacy.ml")
        "let register () = 4\nlet old_path () = failwith \"pre-lint\"\n";
      write_file (root / "lib/attach/legacy.mli")
        "val register : unit -> int\nval old_path : unit -> 'a\n";
      write_file (root / "lib/db/db.ml")
        "let register_defaults () =\n\
        \  ignore (Dmx_smethod.Goodheap.register ());\n\
        \  ignore (Dmx_attach.Goodindex.register ());\n\
        \  ignore (Dmx_attach.Legacy.register ())\n";
      let baseline = root / "baseline.sexp" in
      (* regenerate: records the one legacy failwith *)
      let report = run ~baseline ~update_baseline:true root in
      Alcotest.(check bool) "regeneration passes" true (Lint_driver.ok report);
      (* enforced: the pinned count is accepted *)
      let report = run ~baseline root in
      Alcotest.(check bool)
        (Fmt.str "pinned count passes (got: %a)" Lint_driver.pp_report report)
        true (Lint_driver.ok report);
      (* a second failwith exceeds the baseline and fails *)
      write_file (root / "lib/attach/legacy.ml")
        "let register () = 4\n\
         let old_path () = failwith \"pre-lint\"\n\
         let new_path () = failwith \"fresh\"\n";
      let report = run ~baseline root in
      Alcotest.(check bool) "regression fails" false (Lint_driver.ok report);
      check_diag "regression diagnostic" report ~rule:"error-discipline"
        ~file:"lib/attach/legacy.ml" ~line:2;
      (* a missing baseline file is itself an error *)
      Sys.remove baseline;
      let report = run ~baseline root in
      Alcotest.(check bool) "missing baseline fails" false (Lint_driver.ok report))

(* R7: module-level mutable state must carry a [@@dmx.global] class. *)
let test_global_state () =
  with_fixture_tree (fun root ->
      write_file (root / "lib/txn/globals.ml")
        "let unmarked = ref 0\n\
         let counted = ref 0 [@@dmx.global \"UNSAFE\"]\n\
         let registry : (string, int) Hashtbl.t = Hashtbl.create 8 \
         [@@dmx.global \"config-immutable-after-setup\"]\n\
         let bogus = ref 0 [@@dmx.global \"sometimes\"]\n\
         let local_ok () = let r = ref 0 in incr r; !r\n";
      write_file (root / "lib/txn/globals.mli")
        "val unmarked : int ref\n\
         val counted : int ref\n\
         val registry : (string, int) Hashtbl.t\n\
         val bogus : int ref\n\
         val local_ok : unit -> int\n";
      let report = run root in
      (* strict: unclassified and invalid classes *)
      check_diag "unclassified global" report ~rule:"global-state"
        ~file:"lib/txn/globals.ml" ~line:1;
      check_diag "invalid class" report ~rule:"global-state"
        ~file:"lib/txn/globals.ml" ~line:4;
      (* baselinable: the UNSAFE entry (fixture runs without a baseline) *)
      check_diag "UNSAFE entry" report ~rule:"global-state-unsafe"
        ~file:"lib/txn/globals.ml" ~line:2;
      (* the well-classified registry and the function-local ref are clean *)
      Alcotest.(check int)
        "exactly two strict global-state diagnostics" 2
        (List.length
           (List.filter
              (fun d -> d.Lint_diag.rule = "global-state")
              report.Lint_driver.violations));
      (* the inventory lists every module-level mutable binding *)
      Alcotest.(check int)
        "inventory has all four entries" 4
        (List.length report.Lint_driver.globals))

(* R8: lock acquisitions out of hierarchy order, and conflicting-mode
   re-acquires, across helper functions. *)
let test_lock_order () =
  with_fixture_tree (fun root ->
      write_file (root / "lib/txn/locky.ml")
        "let lock_rel ctx rid mode = Ctx.lock ctx ~mode (Lock_table.Relation \
         rid)\n\
         let lock_rec ctx rid key mode = Ctx.lock ctx ~mode \
         (Lock_table.Record (rid, key))\n\
         let good ctx rid key =\n\
        \  ignore (lock_rel ctx rid Lock_mode.IX);\n\
        \  ignore (lock_rec ctx rid key Lock_mode.X)\n\
         let bad ctx rid key =\n\
        \  ignore (lock_rec ctx rid key Lock_mode.X);\n\
        \  ignore (lock_rel ctx rid Lock_mode.IX)\n\
         let double ctx rid key =\n\
        \  ignore (lock_rec ctx rid key Lock_mode.X);\n\
        \  ignore (lock_rec ctx rid key Lock_mode.X)\n";
      write_file (root / "lib/txn/locky.mli")
        "val lock_rel : 'a -> int -> 'b -> 'c\n\
         val lock_rec : 'a -> int -> 'b -> 'c -> 'd\n\
         val good : 'a -> int -> 'b -> unit\n\
         val bad : 'a -> int -> 'b -> unit\n\
         val double : 'a -> int -> 'b -> unit\n";
      let report = run root in
      (* [bad] acquires the relation lock while holding a record lock; the
         diagnostic anchors at the acquisition site inside the helper *)
      check_diag "hierarchy inversion" report ~rule:"lock-order"
        ~file:"lib/txn/locky.ml" ~line:1;
      (* [double] re-acquires record-level X while holding X *)
      check_diag "conflicting re-acquire" report ~rule:"lock-order"
        ~file:"lib/txn/locky.ml" ~line:2;
      Alcotest.(check int)
        "exactly two lock-order diagnostics ([good] is clean)" 2
        (List.length
           (List.filter
              (fun d -> d.Lint_diag.rule = "lock-order")
              report.Lint_driver.violations));
      (* the derived order graph records relation -> record and stays
         cycle-free: the deviation must not double-report as a cycle *)
      Alcotest.(check bool)
        "relation -> record edge derived" true
        (List.exists
           (fun ((a, b), _) -> a = 1 && b = 2)
           report.Lint_driver.lock.Lint_callgraph.lr_edges);
      Alcotest.(check int)
        "no cycles" 0
        (List.length report.Lint_driver.lock.Lint_callgraph.lr_cycles))

(* R9: WAL logging hidden behind a helper that the syntactic R4 cannot see
   through — the exempt-named helper mutates, the caller must log first. *)
let test_wal_interproc () =
  with_fixture_tree (fun root ->
      write_file (root / "lib/smethod/deep.ml")
        "let unlogged_poke data payload = Slotted.insert data payload\n\n\
         let covert ctx data payload =\n\
        \  ignore ctx;\n\
        \  unlogged_poke data payload\n\n\
         let overt ctx data payload =\n\
        \  ignore (Ctx.log ctx payload);\n\
        \  unlogged_poke data payload\n";
      write_file (root / "lib/smethod/deep.mli")
        "val unlogged_poke : 'a -> 'b -> 'c\n\
         val covert : 'a -> 'b -> 'c -> 'd\n\
         val overt : 'a -> 'b -> 'c -> 'd\n";
      let report = run root in
      (* the syntactic R4 sees no page mutator in [covert]'s body and the
         helper is R4-exempt by name: only the interprocedural pass fires *)
      Alcotest.(check int)
        "R4 stays silent" 0
        (List.length
           (List.filter
              (fun d -> d.Lint_diag.rule = "wal-before-page")
              report.Lint_driver.violations));
      check_diag "unlogged path through helper" report ~rule:"wal-interproc"
        ~file:"lib/smethod/deep.ml" ~line:3;
      (* [overt] logs before the helper mutates: clean *)
      Alcotest.(check int)
        "exactly one wal-interproc diagnostic" 1
        (List.length
           (List.filter
              (fun d -> d.Lint_diag.rule = "wal-interproc")
              report.Lint_driver.violations)))

(* R2 over CLI dirs: [exit] is the interface there, [failwith] is not. *)
let test_cli_discipline () =
  with_fixture_tree (fun root ->
      write_file (root / "bin/tool.ml")
        "let usage () = exit 2\nlet boom () = failwith \"no\"\n";
      let report = run root in
      check_diag "failwith in bin" report ~rule:"error-discipline"
        ~file:"bin/tool.ml" ~line:2;
      Alcotest.(check int)
        "exit in bin is allowed" 1
        (List.length
           (List.filter
              (fun d -> d.Lint_diag.rule = "error-discipline")
              report.Lint_driver.violations)))

(* The merged tree itself must lint clean against the committed baseline —
   the same invocation `dune build @lint` runs. Test cwd is
   _build/default/test, so the copied source tree sits one level up. *)
let test_real_tree_clean () =
  let report =
    Lint_driver.run ~baseline:"../lint/baseline.sexp"
      (Lint_driver.default_config ~root:"..")
  in
  Alcotest.(check bool)
    (Fmt.str "real tree lints clean (got: %a)" Lint_driver.pp_report report)
    true (Lint_driver.ok report);
  if report.Lint_driver.checked_files < 20 then
    Alcotest.failf "suspiciously few files checked (%d) — wrong root?"
      report.Lint_driver.checked_files

let suite =
  [
    Alcotest.test_case "clean fixture tree passes" `Quick test_clean_tree;
    Alcotest.test_case "R1: unregistered storage method" `Quick
      test_unregistered_storage_method;
    Alcotest.test_case "R1: sysview stub slots" `Quick test_sysview_stub_slots;
    Alcotest.test_case "R1: statement store slots" `Quick
      test_statement_store_slots;
    Alcotest.test_case "R2: fresh failwith in attach" `Quick
      test_fresh_failwith_in_attach;
    Alcotest.test_case "R2: full banned set" `Quick test_banned_constructs;
    Alcotest.test_case "R3: catch-all handler in txn" `Quick
      test_exception_swallowing;
    Alcotest.test_case "R4: page mutation without WAL" `Quick
      test_wal_before_page;
    Alcotest.test_case "R5: missing mli" `Quick test_mli_coverage;
    Alcotest.test_case "R6: unpaired Trace.enter" `Quick test_span_pairing;
    Alcotest.test_case "baseline pins violation counts" `Quick
      test_baseline_enforcement;
    Alcotest.test_case "R7: global-state inventory and classes" `Quick
      test_global_state;
    Alcotest.test_case "R8: lock-order hierarchy and re-acquire" `Quick
      test_lock_order;
    Alcotest.test_case "R9: WAL logging hidden behind a helper" `Quick
      test_wal_interproc;
    Alcotest.test_case "R2 in CLI dirs: exit allowed, failwith not" `Quick
      test_cli_discipline;
    Alcotest.test_case "real tree lints clean" `Quick test_real_tree_clean;
  ]
