(* Tests for the reproduction driver behind `ndetect reproduce` and
   for its command-line grammar (Cli.reproduce, Cli.campaign). *)

module Driver = Ndetect_harness.Driver
module Cli = Ndetect_harness.Cli
module Api = Ndetect_harness.Api
module Checkpoint = Ndetect_harness.Checkpoint
module Registry = Ndetect_suite.Registry

let with_temp_dir f =
  let dir = Filename.temp_file "ndetect-test" "" in
  Sys.remove dir;
  Checkpoint.mkdir_recursive dir;
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists dir then begin
        Array.iter
          (fun entry -> Sys.remove (Filename.concat dir entry))
          (Sys.readdir dir);
        Sys.rmdir dir
      end)
    (fun () -> f dir)

let small_options =
  Driver.Options.make ~tier:Registry.Small ~k:20 ~k2:10 ~seed:1 ~only:"all"
    ~quiet:true ()

let parse_ok args =
  match Helpers.parse_cli Cli.reproduce args with
  | Ok opts -> opts
  | Error m -> Alcotest.fail ("unexpected parse error: " ^ m)

let failure_message term args =
  match Helpers.parse_cli term args with
  | Ok _ ->
    Alcotest.failf "expected a usage error for %s" (String.concat " " args)
  | Error m -> m

let expect_error term label args needle =
  Alcotest.(check bool)
    (label ^ " message mentions cause")
    true
    (Helpers.contains_substring (failure_message term args) needle)

let test_args_defaults () =
  Alcotest.(check bool) "no flags = default options" true
    (parse_ok [] = Driver.default_options)

let test_args_full () =
  let opts =
    parse_ok
      [ "--tier"; "large"; "--k"; "42"; "--k2"; "7"; "--seed"; "9";
        "--only"; "Table5"; "--quiet" ]
  in
  Alcotest.(check bool) "tier" true (opts.Driver.tier = Registry.Large);
  Alcotest.(check int) "k" 42 opts.Driver.k;
  Alcotest.(check int) "k2" 7 opts.Driver.k2;
  Alcotest.(check int) "seed" 9 opts.Driver.seed;
  Alcotest.(check string) "only lowercased" "table5" opts.Driver.only;
  Alcotest.(check bool) "quiet" true opts.Driver.quiet;
  (* The cmdliner spellings of -k name the same flag. *)
  Alcotest.(check int) "-k" 5 (parse_ok [ "-k"; "5" ]).Driver.k;
  Alcotest.(check int) "--sets" 6 (parse_ok [ "--sets"; "6" ]).Driver.k

let test_args_csv () =
  let opts = parse_ok [ "--csv"; "out/dir" ] in
  Alcotest.(check (option string)) "csv dir" (Some "out/dir")
    opts.Driver.csv_dir;
  Alcotest.(check (option string)) "default none" None
    (parse_ok []).Driver.csv_dir

let test_args_errors () =
  let rejected args = Result.is_error (Helpers.parse_cli Cli.reproduce args) in
  Alcotest.(check bool) "bad tier" true (rejected [ "--tier"; "gigantic" ]);
  Alcotest.(check bool) "unknown flag" true (rejected [ "--frobnicate" ]);
  (* The flags the driver never read are not part of its grammar. *)
  List.iter
    (fun args ->
      Alcotest.(check bool) (String.concat " " args ^ " rejected") true
        (rejected args))
    [
      [ "--samples"; "3" ]; [ "--strata"; "4" ]; [ "--confidence"; "0.9" ];
      [ "--workers"; "5" ]; [ "--lease-secs"; "10" ];
      [ "--max-unit-retries"; "2" ]; [ "--chaos" ]; [ "--ledger"; "x" ];
    ]

let test_args_friendly_messages () =
  let reproduce = failure_message Cli.reproduce in
  Alcotest.(check bool) "names flag and value" true
    (Helpers.contains_substring (reproduce [ "--k"; "abc" ])
       "expected an integer >= 1, got \"abc\"");
  Alcotest.(check bool) "missing value" true
    (Helpers.contains_substring (reproduce [ "--seed" ]) "--seed");
  let m = reproduce [ "--wat" ] in
  Alcotest.(check bool) "unknown arg quoted" true
    (Helpers.contains_substring m "unknown option '--wat'");
  Alcotest.(check bool) "usage appended" true
    (Helpers.contains_substring m "Usage: ndetect");
  Alcotest.(check bool) "non-positive timeout" true
    (Helpers.contains_substring
       (reproduce [ "--timeout-per-circuit=-3" ])
       "expected a positive number of seconds")

let test_args_result () =
  (match Helpers.parse_cli Cli.reproduce [ "--k"; "5" ] with
  | Ok opts -> Alcotest.(check int) "ok carries options" 5 opts.Driver.k
  | Error _ -> Alcotest.fail "expected Ok");
  match Helpers.parse_cli Cli.reproduce [ "--k"; "abc" ] with
  | Ok _ -> Alcotest.fail "expected Error"
  | Error m ->
    Alcotest.(check bool) "error names the flag" true
      (Helpers.contains_substring m "option '-k'")

(* Flag combinations that every individual parser accepts but that are
   wrong as a whole must be a usage error, not a run that silently does
   nothing (an unknown --only section selects zero tables; k/k2 < 1
   render every sampled table vacuously). *)
let test_args_rejects_contradictions () =
  let reproduce = expect_error Cli.reproduce in
  reproduce "unknown section" [ "--only"; "table9" ] "unknown section";
  reproduce "zero k" [ "--k"; "0" ] "expected an integer >= 1";
  reproduce "negative k2" [ "--k2=-5" ] "expected an integer >= 1";
  reproduce "resume without checkpoint" [ "--resume" ]
    "--resume requires --checkpoint";
  (* Campaign flags: degenerate values and contradictory combinations. *)
  let campaign label args needle =
    expect_error Cli.campaign label ([ "--ledger"; "l" ] @ args) needle
  in
  campaign "zero workers" [ "--workers"; "0" ] "expected an integer >= 1";
  campaign "non-integer workers" [ "--workers"; "two" ]
    "expected an integer >= 1";
  campaign "sub-second lease" [ "--lease-secs"; "0.5" ]
    "expected a number of seconds >= 1";
  campaign "zero retries" [ "--max-unit-retries"; "0" ]
    "expected an integer >= 1";
  campaign "chaos with one worker" [ "--chaos"; "--workers"; "1" ]
    "--chaos requires --workers >= 2";
  campaign "bad inject spec" [ "--inject"; "frazzle=x" ] "--inject";
  campaign "strata without samples" [ "--strata"; "4" ]
    "--strata requires --samples";
  (* Case-insensitivity and the valid spellings stay accepted. *)
  let accepted term args =
    match Helpers.parse_cli term args with
    | Ok _ -> ()
    | Error m -> Alcotest.failf "rejected %s: %s" (String.concat " " args) m
  in
  List.iter (accepted Cli.reproduce)
    [
      [ "--only"; "Table5" ]; [ "--only"; "figure2" ]; [ "--only"; "all" ];
      [ "--k"; "1" ]; [ "--resume"; "--checkpoint"; "ck" ];
    ];
  (* The default fleet has two workers, enough for chaos. *)
  List.iter (accepted Cli.campaign)
    [
      [ "--ledger"; "l"; "--chaos" ];
      [ "--ledger"; "l"; "--chaos"; "--workers"; "2" ];
      [ "--ledger"; "l"; "--workers"; "4"; "--lease-secs"; "30" ];
    ];
  (* The parsed campaign values round-trip. *)
  match
    Helpers.parse_cli Cli.campaign
      [ "--ledger"; "l"; "--workers"; "4"; "--lease-secs"; "12.5";
        "--max-unit-retries"; "5"; "--circuits"; "mc, s8"; "--set-chunk"; "0" ]
  with
  | Error m -> Alcotest.fail ("unexpected Error: " ^ m)
  | Ok c ->
    Alcotest.(check int) "workers" 4 c.Cli.workers;
    Alcotest.(check bool) "lease" true (c.Cli.lease_secs = Some 12.5);
    Alcotest.(check int) "retries" 5 c.Cli.max_unit_retries;
    Alcotest.(check bool) "chaos off by default" false c.Cli.chaos;
    Alcotest.(check (option (list string))) "circuits trimmed"
      (Some [ "mc"; "s8" ]) c.Cli.circuits;
    Alcotest.(check (option int)) "set-chunk 0 means K/8" None c.Cli.set_chunk

let test_args_telemetry_flags () =
  let opts = parse_ok [ "--trace"; "out.jsonl"; "--metrics" ] in
  Alcotest.(check (option string)) "trace file" (Some "out.jsonl")
    opts.Driver.trace;
  Alcotest.(check bool) "metrics" true opts.Driver.metrics;
  let defaults = parse_ok [] in
  Alcotest.(check (option string)) "trace off by default" None
    defaults.Driver.trace;
  Alcotest.(check bool) "metrics off by default" false
    defaults.Driver.metrics;
  Alcotest.(check bool) "--trace requires a value" true
    (Helpers.contains_substring
       (failure_message Cli.reproduce [ "--trace" ])
       "--trace")

let test_options_make () =
  Alcotest.(check bool) "no overrides = defaults" true
    (Driver.Options.make () = Driver.default_options);
  let opts = Driver.Options.make ~k:7 ~trace:"t.jsonl" () in
  Alcotest.(check int) "override applied" 7 opts.Driver.k;
  Alcotest.(check (option string)) "option field" (Some "t.jsonl")
    opts.Driver.trace;
  Alcotest.(check int) "untouched field keeps default"
    Driver.default_options.Driver.k2 opts.Driver.k2

let test_args_supervision_flags () =
  let opts =
    parse_ok
      [ "--checkpoint"; "ck/dir"; "--resume"; "--timeout-per-circuit"; "2.5";
        "--inject"; "crash=analyze:mc" ]
  in
  Alcotest.(check (option string)) "checkpoint" (Some "ck/dir")
    opts.Driver.checkpoint_dir;
  Alcotest.(check bool) "resume" true opts.Driver.resume;
  Alcotest.(check bool) "timeout" true
    (opts.Driver.timeout_per_circuit = Some 2.5);
  Alcotest.(check (option string)) "inject" (Some "crash=analyze:mc")
    opts.Driver.inject;
  Alcotest.(check bool) "resume needs checkpoint" true
    (Helpers.contains_substring
       (failure_message Cli.reproduce [ "--resume" ])
       "--resume requires --checkpoint");
  Alcotest.(check bool) "bad inject spec" true
    (Helpers.contains_substring
       (failure_message Cli.reproduce [ "--inject"; "frazzle=x" ])
       "--inject")

(* checkpoint *)

let stamp : Checkpoint.stamp =
  { Checkpoint.version = Checkpoint.version; seed = 1; tier = "small";
    k = 20; k2 = 10 }

let test_checkpoint_roundtrip () =
  with_temp_dir (fun dir ->
      let ck = Checkpoint.create ~dir ~stamp in
      Alcotest.(check bool) "absent" false (Checkpoint.mem ck ~key:"xs");
      Checkpoint.store ck ~key:"xs" [ 1; 2; 3 ];
      Alcotest.(check bool) "present" true (Checkpoint.mem ck ~key:"xs");
      Alcotest.(check (option (list int))) "roundtrip" (Some [ 1; 2; 3 ])
        (Checkpoint.load ck ~key:"xs");
      (* Overwrite is atomic-replace, last write wins. *)
      Checkpoint.store ck ~key:"xs" [ 9 ];
      Alcotest.(check (option (list int))) "overwritten" (Some [ 9 ])
        (Checkpoint.load ck ~key:"xs"))

let test_checkpoint_stamp_mismatch () =
  with_temp_dir (fun dir ->
      let ck = Checkpoint.create ~dir ~stamp in
      Checkpoint.store ck ~key:"xs" [ 1 ];
      let other = Checkpoint.create ~dir ~stamp:{ stamp with seed = 2 } in
      Alcotest.(check (option (list int)))
        "different seed sees nothing" None
        (Checkpoint.load other ~key:"xs");
      let same = Checkpoint.create ~dir ~stamp in
      Alcotest.(check (option (list int))) "same stamp still loads"
        (Some [ 1 ])
        (Checkpoint.load same ~key:"xs"))

let test_checkpoint_corruption () =
  with_temp_dir (fun dir ->
      let ck = Checkpoint.create ~dir ~stamp in
      Checkpoint.store ck ~key:"xs" [ 1 ];
      (* Clobber the entry on disk; load must degrade to None, not raise. *)
      Array.iter
        (fun entry ->
          let oc = open_out (Filename.concat dir entry) in
          output_string oc "garbage";
          close_out oc)
        (Sys.readdir dir);
      Alcotest.(check (option (list int))) "corrupt entry ignored" None
        (Checkpoint.load ck ~key:"xs"))

let test_write_atomic () =
  with_temp_dir (fun dir ->
      let path = Filename.concat dir "out.csv" in
      Checkpoint.write_atomic ~path "a,b\n1,2\n";
      Alcotest.(check string) "contents" "a,b\n1,2\n"
        (In_channel.with_open_bin path In_channel.input_all);
      Checkpoint.write_atomic ~path "new\n";
      Alcotest.(check string) "replaced" "new\n"
        (In_channel.with_open_bin path In_channel.input_all);
      (* No stray temp files left behind. *)
      Alcotest.(check (list string)) "single file" [ "out.csv" ]
        (Array.to_list (Sys.readdir dir)))

(* table cache *)

module Table_cache = Ndetect_harness.Table_cache
module Detection_table = Ndetect_core.Detection_table
module Fault_sim = Ndetect_sim.Fault_sim
module Bitvec = Ndetect_util.Bitvec

let tables_identical a b =
  Detection_table.target_count a = Detection_table.target_count b
  && Detection_table.untargeted_count a = Detection_table.untargeted_count b
  && Detection_table.universe a = Detection_table.universe b
  && Detection_table.undetectable_target_count a
     = Detection_table.undetectable_target_count b
  && List.for_all
       (fun fi ->
         Bitvec.equal
           (Detection_table.target_set a fi)
           (Detection_table.target_set b fi)
         && Detection_table.target_label a fi = Detection_table.target_label b fi)
       (List.init (Detection_table.target_count a) Fun.id)
  && List.for_all
       (fun gj ->
         Bitvec.equal
           (Detection_table.untargeted_set a gj)
           (Detection_table.untargeted_set b gj)
         && Detection_table.untargeted_label a gj
            = Detection_table.untargeted_label b gj)
       (List.init (Detection_table.untargeted_count a) Fun.id)

let test_table_cache_roundtrip () =
  with_temp_dir (fun dir ->
      let net = Registry.circuit (Option.get (Registry.find "lion")) in
      let built = Detection_table.build net in
      let key = Table_cache.key net in
      Table_cache.store ~dir ~key built;
      match Table_cache.load ~dir ~key net with
      | None -> Alcotest.fail "expected a cache hit"
      | Some restored ->
        Alcotest.(check bool) "bit-identical tables" true
          (tables_identical built restored);
        (* The restored table feeds the analyses exactly like a built
           one: worst-case distributions agree entry for entry. *)
        let module Worst_case = Ndetect_core.Worst_case in
        Alcotest.(check (array int)) "same nmin distribution"
          (Worst_case.distribution (Worst_case.compute built))
          (Worst_case.distribution (Worst_case.compute restored)))

let test_table_cache_corruption () =
  with_temp_dir (fun dir ->
      let net = Registry.circuit (Option.get (Registry.find "lion")) in
      let key = Table_cache.key net in
      Table_cache.store ~dir ~key (Detection_table.build net);
      let path = Filename.concat dir (key ^ ".tbl") in
      (* Truncate mid-payload: the magic survives but the snapshot blob
         is torn. Load must miss, not raise. *)
      let raw = In_channel.with_open_bin path In_channel.input_all in
      let oc = open_out_bin path in
      output_string oc (String.sub raw 0 (String.length raw / 2));
      close_out oc;
      Alcotest.(check bool) "torn file is a miss" true
        (Table_cache.load ~dir ~key net = None);
      (* Arbitrary garbage (wrong magic). *)
      let oc = open_out_bin path in
      output_string oc "not a table at all";
      close_out oc;
      Alcotest.(check bool) "garbage is a miss" true
        (Table_cache.load ~dir ~key net = None))

(* Exhaustive damage sweep over the current (v3) format: truncations at
   structural boundaries and single-bit flips in every region — magic,
   header fields (version, key, digests, lengths), the alignment pad,
   the meta section, and the raw words (first, middle, last — the words
   are covered by their own FNV digest and the 62-bit range check, the
   meta by its digest) — must all degrade to a miss, never raise, never
   return a wrong table. Each must bump the "table_cache.corrupt"
   counter and delete the damaged file (corrupt entries can only miss
   again). *)
let test_table_cache_damage_sweep () =
  with_temp_dir (fun dir ->
      let module Telemetry = Ndetect_util.Telemetry in
      let net = Registry.circuit (Option.get (Registry.find "lion")) in
      let key = Table_cache.key net in
      Table_cache.store ~dir ~key (Detection_table.build net);
      let path = Filename.concat dir (key ^ ".tbl") in
      let pristine = In_channel.with_open_bin path In_channel.input_all in
      let len = String.length pristine in
      let header_end = String.index_from pristine 14 '\n' in
      (* Region boundaries straight from the header:
         "3 key meta_fnv meta_len words_off nwords fnv". The pad sits
         between header and meta, so meta ends exactly at words_off. *)
      let meta_len, words_off, nwords =
        match
          String.split_on_char ' '
            (String.sub pristine 14 (header_end - 14))
        with
        | [ _v; _key; _meta_fnv; meta_len; words_off; nwords; _fnv ] ->
          ( int_of_string meta_len,
            int_of_string words_off,
            int_of_string nwords )
        | _ -> Alcotest.fail "unexpected v3 header shape"
      in
      let pad_start = header_end + 1 in
      let meta_start = words_off - meta_len in
      Alcotest.(check int) "file size = words_off + 8*nwords" len
        (words_off + (8 * nwords));
      let write raw =
        let oc = open_out_bin path in
        output_string oc raw;
        close_out oc
      in
      let flip raw pos =
        let b = Bytes.of_string raw in
        Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 1));
        Bytes.to_string b
      in
      let expect_corrupt_miss label raw =
        write raw;
        let corrupt_before = Telemetry.counter_value "table_cache.corrupt" in
        Alcotest.(check bool)
          (label ^ " is a miss")
          true
          (Table_cache.load ~dir ~key net = None);
        Alcotest.(check int)
          (label ^ " counted as corrupt")
          (corrupt_before + 1)
          (Telemetry.counter_value "table_cache.corrupt");
        Alcotest.(check bool)
          (label ^ " file deleted")
          false (Sys.file_exists path)
      in
      (* Truncations: empty file, torn magic, torn header, meta torn,
         words torn mid-word and at the last byte. *)
      List.iter
        (fun cut ->
          expect_corrupt_miss
            (Printf.sprintf "truncated to %d/%d bytes" cut len)
            (String.sub pristine 0 cut))
        [ 0; 7; header_end - 3; meta_start; words_off - 1; words_off + 3;
          len - 8; len - 1 ];
      (* Single-bit flips, one per structural region: magic, version
         digit, key, digests/lengths, meta fixed fields, meta arrays,
         alignment pad (must be zero), first / middle / last word —
         including the top bit of a word, which an OCaml bigarray read
         cannot even see (Val_long drops bit 63) but the C digest pass
         over the raw mapped memory must catch. *)
      let top_bit_of_last_word =
        let b = Bytes.of_string pristine in
        (* Words are little-endian: byte 7 of the word holds bit 63. *)
        let pos = len - 1 in
        Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0x80));
        Bytes.to_string b
      in
      List.iter
        (fun pos ->
          expect_corrupt_miss
            (Printf.sprintf "bit flip at byte %d/%d" pos len)
            (flip pristine pos))
        ([ 0; 14; 16; header_end - 2; header_end - 1; meta_start;
           meta_start + 40; words_off - 1; words_off;
           words_off + (8 * (nwords / 2)); len - 1 ]
        @ (if meta_start > pad_start then [ pad_start ] else []));
      expect_corrupt_miss "top bit of last word" top_bit_of_last_word;
      (* And the pristine bytes restored still hit. *)
      write pristine;
      Alcotest.(check bool) "pristine file hits again" true
        (Table_cache.load ~dir ~key net <> None))

let test_table_cache_version_mismatch () =
  with_temp_dir (fun dir ->
      let net = Registry.circuit (Option.get (Registry.find "lion")) in
      let key = Table_cache.key net in
      (* A file from a future format version: consistent header and
         digest, but the payload type is unknowable — it must be
         rejected from the version field alone, and (unlike a corrupt
         file) left on disk: a rolled-back binary must not destroy a
         newer binary's cache. *)
      let payload = Marshal.to_string () [] in
      let buf = Buffer.create 256 in
      Buffer.add_string buf "ndetect-table\n";
      Buffer.add_string buf
        (Printf.sprintf "%d %s %s %d\n" (Table_cache.version + 1) key
           (Digest.to_hex (Digest.string payload))
           (String.length payload))
      ;
      Buffer.add_string buf payload;
      let path = Filename.concat dir (key ^ ".tbl") in
      Checkpoint.write_atomic ~path (Buffer.contents buf);
      Alcotest.(check bool) "future version is a miss" true
        (Table_cache.load ~dir ~key net = None);
      Alcotest.(check bool) "future-version file is spared deletion" true
        (Sys.file_exists path);
      (* A past version that is no longer read at all (v1) is ordinary
         corruption: miss, and reclaimed. *)
      let v1 = Buffer.contents buf in
      let v1 =
        let b = Bytes.of_string v1 in
        Bytes.set b 14 '1';
        Bytes.to_string b
      in
      Checkpoint.write_atomic ~path v1;
      Alcotest.(check bool) "unreadable past version is a miss" true
        (Table_cache.load ~dir ~key net = None);
      Alcotest.(check bool) "unreadable past version reclaimed" false
        (Sys.file_exists path))

(* One release of coexistence: a v2 (marshalled snapshot) entry still
   loads — identically, just without the mmap fast path — and the next
   store rewrites it in the current format, after which loads go
   through the map (table.mmap_hits / table.mmap_bytes advance). *)
let test_table_cache_v2_coexistence () =
  with_temp_dir (fun dir ->
      let module Telemetry = Ndetect_util.Telemetry in
      let net = Registry.circuit (Option.get (Registry.find "lion")) in
      let built = Detection_table.build net in
      let key = Table_cache.key net in
      let path = Filename.concat dir (key ^ ".tbl") in
      let version_token () =
        let raw = In_channel.with_open_bin path In_channel.input_all in
        String.sub raw 14 (String.index_from raw 14 ' ' - 14)
      in
      Table_cache.store_v2 ~dir ~key built;
      Alcotest.(check string) "written as v2" "2" (version_token ());
      let mmap_before = Telemetry.counter_value "table.mmap_hits" in
      (match Table_cache.load ~dir ~key net with
      | None -> Alcotest.fail "v2 file must still load"
      | Some restored ->
        Alcotest.(check bool) "v2 restore identical" true
          (tables_identical built restored));
      Alcotest.(check int) "v2 load does not mmap" mmap_before
        (Telemetry.counter_value "table.mmap_hits");
      Table_cache.store ~dir ~key built;
      Alcotest.(check string) "rewritten in the current format"
        (string_of_int Table_cache.version)
        (version_token ());
      let bytes_before = Telemetry.counter_value "table.mmap_bytes" in
      (match Table_cache.load ~dir ~key net with
      | None -> Alcotest.fail "rewritten file must load"
      | Some restored ->
        Alcotest.(check bool) "v3 restore identical" true
          (tables_identical built restored));
      Alcotest.(check int) "v3 load mapped the words" (mmap_before + 1)
        (Telemetry.counter_value "table.mmap_hits");
      Alcotest.(check bool) "mapped bytes accounted" true
        (Telemetry.counter_value "table.mmap_bytes" > bytes_before))

let test_table_cache_key_covers_params () =
  let net = Registry.circuit (Option.get (Registry.find "lion")) in
  let base = Table_cache.key net in
  Alcotest.(check bool) "collapse in key" true
    (base <> Table_cache.key ~collapse:false net);
  Alcotest.(check bool) "model in key" true
    (base
    <> Table_cache.key
         ~model:(Detection_table.Wired Ndetect_faults.Wired.Wired_and)
         net);
  let other = Registry.circuit (Option.get (Registry.find "mc")) in
  Alcotest.(check bool) "netlist in key" true (base <> Table_cache.key other)

let test_table_cache_warm_run_simulates_nothing () =
  with_temp_dir (fun dir ->
      let opts = { small_options with Driver.table_cache = Some dir } in
      let reference = Driver.create small_options in
      let cold = Driver.create opts in
      let expected_t2 = Driver.table2_csv reference in
      Alcotest.(check string) "cold cached run matches uncached" expected_t2
        (Driver.table2_csv cold);
      (* Warm run: every table restored from disk, zero fault
         simulations, byte-identical output. *)
      let before = Fault_sim.detection_sets_computed () in
      let warm = Driver.create opts in
      Alcotest.(check string) "warm run byte-identical" expected_t2
        (Driver.table2_csv warm);
      Alcotest.(check int) "zero fault simulations when warm" before
        (Fault_sim.detection_sets_computed ());
      Alcotest.(check int) "no failures" 0
        (List.length (Driver.failures warm)))

(* telemetry wiring: tracing/metrics never change results, warm cache
   runs trace no simulation, deterministic counters ignore --domains *)

let test_output_identical_with_telemetry () =
  with_temp_dir (fun dir ->
      let plain = Driver.create small_options in
      let expected = Driver.run_table2 plain in
      let path = Filename.concat dir "trace.jsonl" in
      let traced =
        Driver.create
          { small_options with Driver.trace = Some path; metrics = true }
      in
      let got = Driver.run_table2 traced in
      Driver.finish traced;
      Alcotest.(check string) "table2 byte-identical" expected got;
      Alcotest.(check bool) "trace written" true (Sys.file_exists path);
      (* finish is idempotent. *)
      Driver.finish traced)

let trace_begin_names path =
  In_channel.with_open_bin path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l ->
         Helpers.contains_substring l "\"type\":\"begin\"")

let test_warm_cache_trace_has_no_sim_spans () =
  with_temp_dir (fun cache ->
      with_temp_dir (fun dir ->
          (* Cold run fills the cache (untraced). *)
          let cold =
            Driver.create
              { small_options with Driver.table_cache = Some cache }
          in
          ignore (Driver.run_table2 cold);
          let path = Filename.concat dir "trace.jsonl" in
          let warm =
            Driver.create
              { small_options with
                Driver.table_cache = Some cache;
                trace = Some path }
          in
          ignore (Driver.run_table2 warm);
          Driver.finish warm;
          let begins = trace_begin_names path in
          Alcotest.(check bool) "cache lookups traced" true
            (List.exists
               (fun l ->
                 Helpers.contains_substring l "\"name\":\"table_cache.lookup\"")
               begins);
          (* The whole point of a warm cache: no table construction, no
             fault simulation — so no such spans in the trace. *)
          List.iter
            (fun forbidden ->
              Alcotest.(check bool) (forbidden ^ " absent") true
                (not
                   (List.exists
                      (fun l -> Helpers.contains_substring l forbidden)
                      begins)))
            [
              "\"name\":\"table.build\"";
              "\"name\":\"table.sim.targets\"";
              "\"name\":\"table.sim.untargeted\"";
            ]))

(* The deterministic work counters (simulation, kernel, dedup activity)
   must not depend on the domain count; sample them per supervised unit
   via --metrics and compare across --domains values. *)
let deterministic_unit_metrics driver =
  List.map
    (fun (label, delta) ->
      ( label,
        List.filter
          (fun (name, _) ->
            List.exists
              (fun prefix -> String.starts_with ~prefix name)
              [ "sim."; "worst."; "table." ])
          delta ))
    (Driver.unit_metrics driver)

let test_metrics_domain_invariant () =
  let run domains =
    let driver =
      Driver.create
        { small_options with Driver.metrics = true; domains = Some domains }
    in
    ignore (Driver.run_table2 driver);
    let m = deterministic_unit_metrics driver in
    Driver.finish driver;
    m
  in
  let reference = run 1 in
  Alcotest.(check bool) "counters moved" true
    (List.exists (fun (_, delta) -> delta <> []) reference);
  List.iter
    (fun domains ->
      Alcotest.(check bool)
        (Printf.sprintf "domains %d matches domains 1" domains)
        true
        (run domains = reference))
    [ 2; 4 ];
  (* A Definition 2 request (Table 6 on mark1, four sets so that two
     domains split them): the oracle's work counters must not depend on
     the domain count either. *)
  let def2 domains =
    let req =
      Api.Request.make ~sections:[ Api.Request.Average_def2 ] ~k2:4 ~domains
        ~label:"mark1" (Api.Request.Suite "mark1")
    in
    match Api.run req with
    | Error message -> Alcotest.fail message
    | Ok resp ->
      List.filter
        (fun (name, _) -> String.starts_with ~prefix:"def2." name)
        resp.Api.Response.counters
  in
  let def2_reference = def2 1 in
  Alcotest.(check bool) "def2 counters moved" true
    (List.length def2_reference = 2);
  Alcotest.(check (list (pair string int)))
    "def2 counters, domains 2 matches domains 1" def2_reference (def2 2)

(* supervision: containment, timeout rows, kill-and-resume *)

let test_crash_containment () =
  let clean = Driver.create small_options in
  let clean_t2 = Driver.run_table2 clean in
  let faulty =
    Driver.create
      { small_options with
        Driver.inject = Some "crash=analyze:mc,crash=analyze:lion" }
  in
  let t2 = Driver.run_table2 faulty in
  Alcotest.(check int) "both failures recorded" 2
    (List.length (Driver.failures faulty));
  Alcotest.(check bool) "crashed rows rendered" true
    (Helpers.contains_substring t2 "(crashed: injected fault: at analyze:mc)"
    && Helpers.contains_substring t2 "(crashed: injected fault")
  ;
  (* Unaffected circuits produce their normal cells. *)
  List.iter
    (fun needle ->
      Alcotest.(check bool) (needle ^ " intact") true
        (Helpers.contains_substring t2 needle
        && Helpers.contains_substring clean_t2 needle))
    [ "bbtas"; "modulo12" ];
  Driver.create small_options |> ignore
(* final create clears the global injection plan *)

let test_timeout_row () =
  let driver =
    Driver.create
      { small_options with
        Driver.inject = Some "stall=analyze:mc:30";
        timeout_per_circuit = Some 2.0 }
  in
  let t2 = Driver.run_table2 driver in
  Alcotest.(check bool) "timed out row" true
    (Helpers.contains_substring t2 "(timed out after 2s)");
  (match Driver.failures driver with
  | [ (label, failure) ] ->
    Alcotest.(check string) "label" "analyze mc" label;
    Alcotest.(check bool) "failure kind" true
      (match failure with
      | Ndetect_util.Supervise.Timed_out _ -> true
      | _ -> false)
  | fs -> Alcotest.fail (Printf.sprintf "expected 1 failure, got %d"
                           (List.length fs)));
  Driver.create small_options |> ignore

let test_kill_and_resume_equivalence () =
  with_temp_dir (fun dir ->
      let clean = Driver.create small_options in
      let expected_t2 = Driver.table2_csv clean in
      let expected_t3 = Driver.table3_csv clean in
      (* "Kill": a run that checkpoints but crashes on one circuit. *)
      let interrupted =
        Driver.create
          { small_options with
            Driver.checkpoint_dir = Some dir;
            inject = Some "crash=analyze:mc" }
      in
      let broken_t2 = Driver.table2_csv interrupted in
      Alcotest.(check bool) "interrupted run differs" true
        (broken_t2 <> expected_t2);
      Alcotest.(check int) "one failure" 1
        (List.length (Driver.failures interrupted));
      (* Resume without the fault: only mc is recomputed, the rest is
         loaded, and the output is byte-identical to the clean run. *)
      let resumed =
        Driver.create
          { small_options with
            Driver.checkpoint_dir = Some dir;
            resume = true }
      in
      Alcotest.(check string) "table2 csv identical" expected_t2
        (Driver.table2_csv resumed);
      Alcotest.(check string) "table3 csv identical" expected_t3
        (Driver.table3_csv resumed);
      Alcotest.(check int) "no failures after resume" 0
        (List.length (Driver.failures resumed)))

(* The same kill/resume contract under parallel execution: a
   checkpointed --domains 2 run crashed mid-run, then resumed with
   --domains 2, must be byte-identical to an uninterrupted --domains 2
   run — and to the sequential one (parallel analysis is
   deterministic), so a checkpoint written by a parallel run cannot
   poison a later resume in either configuration. *)
let test_kill_and_resume_equivalence_parallel () =
  with_temp_dir (fun dir ->
      let parallel_options = { small_options with Driver.domains = Some 2 } in
      let clean = Driver.create parallel_options in
      let expected_t2 = Driver.table2_csv clean in
      let expected_t3 = Driver.table3_csv clean in
      Alcotest.(check string) "parallel clean run matches sequential"
        (Driver.table2_csv (Driver.create small_options))
        expected_t2;
      let interrupted =
        Driver.create
          { parallel_options with
            Driver.checkpoint_dir = Some dir;
            inject = Some "crash=analyze:mc" }
      in
      Alcotest.(check bool) "interrupted parallel run differs" true
        (Driver.table2_csv interrupted <> expected_t2);
      Alcotest.(check int) "one failure" 1
        (List.length (Driver.failures interrupted));
      let resumed =
        Driver.create
          { parallel_options with
            Driver.checkpoint_dir = Some dir;
            resume = true }
      in
      Alcotest.(check string) "table2 csv identical" expected_t2
        (Driver.table2_csv resumed);
      Alcotest.(check string) "table3 csv identical" expected_t3
        (Driver.table3_csv resumed);
      Alcotest.(check int) "no failures after resume" 0
        (List.length (Driver.failures resumed)))

let test_resume_skips_checkpointed_work () =
  with_temp_dir (fun dir ->
      let opts = { small_options with Driver.checkpoint_dir = Some dir } in
      let first = Driver.create opts in
      ignore (Driver.run_table2 first);
      (* A resumed driver must answer from the checkpoint without
         reanalyzing: inject crashes at every analysis site; loads make
         them unreachable. *)
      let entries = Registry.of_tier small_options.Driver.tier in
      let everything_crashes =
        String.concat ","
          (List.map (fun e -> "crash=analyze:" ^ e.Registry.name) entries)
      in
      let resumed =
        Driver.create
          { opts with Driver.resume = true;
            inject = Some everything_crashes }
      in
      Alcotest.(check string) "answered from checkpoint"
        (Driver.table2_csv first) (Driver.table2_csv resumed);
      Alcotest.(check int) "no analysis ran" 0
        (List.length (Driver.failures resumed));
      Driver.create small_options |> ignore)

let test_table1_content () =
  let driver = Driver.create small_options in
  let out = Driver.run_table1 driver in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (needle ^ " present") true
        (Helpers.contains_substring out needle))
    [ "T((9,0,10,1)) = {6 7}"; "nmin((9,0,10,1)) = 3"; "9/1"; "11/0" ]

let test_table4_content () =
  let driver = Driver.create small_options in
  let out = Driver.run_table4 driver in
  Alcotest.(check bool) "has g6 line" true
    (Helpers.contains_substring out "T(g6) = {12}")

let test_tables_2_3_shape () =
  let driver = Driver.create small_options in
  let t2 = Driver.run_table2 driver in
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " in table 2") true
        (Helpers.contains_substring t2 name))
    [ "lion"; "mc"; "bbtas"; "modulo12" ];
  let t3 = Driver.run_table3 driver in
  Alcotest.(check bool) "table 3 rendered" true
    (Helpers.contains_substring t3 "n>=100")

let test_figure2_runs () =
  let driver = Driver.create small_options in
  let out = Driver.run_figure2 driver in
  Alcotest.(check bool) "names a circuit" true
    (Helpers.contains_substring out "circuit:")

let test_caching () =
  let driver = Driver.create small_options in
  let entry = Option.get (Registry.find "lion") in
  let a1 = Driver.analysis_of driver entry in
  let a2 = Driver.analysis_of driver entry in
  Alcotest.(check bool) "same analysis object" true (a1 == a2)

let () =
  Alcotest.run "harness"
    [
      ( "args",
        [
          Alcotest.test_case "defaults" `Quick test_args_defaults;
          Alcotest.test_case "full" `Quick test_args_full;
          Alcotest.test_case "csv flag" `Quick test_args_csv;
          Alcotest.test_case "errors" `Quick test_args_errors;
          Alcotest.test_case "friendly messages" `Quick
            test_args_friendly_messages;
          Alcotest.test_case "result form" `Quick test_args_result;
          Alcotest.test_case "contradictory flags rejected" `Quick
            test_args_rejects_contradictions;
          Alcotest.test_case "telemetry flags" `Quick
            test_args_telemetry_flags;
          Alcotest.test_case "options make" `Quick test_options_make;
          Alcotest.test_case "supervision flags" `Quick
            test_args_supervision_flags;
        ] );
      ( "checkpoint",
        [
          Alcotest.test_case "roundtrip" `Quick test_checkpoint_roundtrip;
          Alcotest.test_case "stamp mismatch" `Quick
            test_checkpoint_stamp_mismatch;
          Alcotest.test_case "corruption tolerated" `Quick
            test_checkpoint_corruption;
          Alcotest.test_case "atomic writes" `Quick test_write_atomic;
        ] );
      ( "table-cache",
        [
          Alcotest.test_case "roundtrip bit-identical" `Quick
            test_table_cache_roundtrip;
          Alcotest.test_case "corruption tolerated" `Quick
            test_table_cache_corruption;
          Alcotest.test_case "damage sweep: truncations and bit flips" `Quick
            test_table_cache_damage_sweep;
          Alcotest.test_case "version mismatch tolerated" `Quick
            test_table_cache_version_mismatch;
          Alcotest.test_case "v2 coexistence: loads, rewritten as v3" `Quick
            test_table_cache_v2_coexistence;
          Alcotest.test_case "key covers parameters" `Quick
            test_table_cache_key_covers_params;
          Alcotest.test_case "warm run simulates nothing" `Quick
            test_table_cache_warm_run_simulates_nothing;
        ] );
      ( "telemetry",
        [
          Alcotest.test_case "output identical with telemetry" `Quick
            test_output_identical_with_telemetry;
          Alcotest.test_case "warm cache trace has no sim spans" `Quick
            test_warm_cache_trace_has_no_sim_spans;
          Alcotest.test_case "metrics ignore domain count" `Quick
            test_metrics_domain_invariant;
        ] );
      ( "supervision",
        [
          Alcotest.test_case "crash containment" `Quick
            test_crash_containment;
          Alcotest.test_case "timeout row" `Quick test_timeout_row;
          Alcotest.test_case "kill and resume" `Quick
            test_kill_and_resume_equivalence;
          Alcotest.test_case "kill and resume (domains 2)" `Quick
            test_kill_and_resume_equivalence_parallel;
          Alcotest.test_case "resume skips work" `Quick
            test_resume_skips_checkpointed_work;
        ] );
      ( "driver",
        [
          Alcotest.test_case "table 1 content" `Quick test_table1_content;
          Alcotest.test_case "table 4 content" `Quick test_table4_content;
          Alcotest.test_case "tables 2/3" `Quick test_tables_2_3_shape;
          Alcotest.test_case "figure 2" `Quick test_figure2_runs;
          Alcotest.test_case "analysis caching" `Quick test_caching;
        ] );
    ]
