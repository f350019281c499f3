(* Golden regression values: the whole pipeline (synthetic FSM generation,
   synthesis, multilevel restructuring, fault enumeration, exhaustive
   analysis) is deterministic, so these exact numbers must not drift
   unless a pipeline change is intentional — in which case update them
   together with DESIGN.md/EXPERIMENTS.md. *)

module Netlist = Ndetect_circuit.Netlist
module Analysis = Ndetect_core.Analysis
module Worst_case = Ndetect_core.Worst_case
module Registry = Ndetect_suite.Registry

let analyze name =
  Analysis.analyze ~name (Registry.circuit (Option.get (Registry.find name)))

let check_summary name ~targets ~untargeted ~max_nmin ~pct1 =
  let a = analyze name in
  let s = a.Analysis.summary in
  Alcotest.(check int) (name ^ " |F|") targets s.Analysis.target_faults;
  Alcotest.(check int) (name ^ " |G|") untargeted s.Analysis.untargeted_faults;
  Alcotest.(check (option int)) (name ^ " max nmin") max_nmin
    s.Analysis.max_finite_nmin;
  Alcotest.(check (float 0.01)) (name ^ " %@n=1") pct1
    (List.assoc 1 s.Analysis.percent_below)

(* lion and mc come from hand-written KISS2, so they are stable against
   generator changes; dk27 and mark1 additionally pin the synthetic
   generator and the multilevel pass. *)
let test_lion () =
  check_summary "lion" ~targets:58 ~untargeted:159 ~max_nmin:(Some 2)
    ~pct1:94.34

let test_mc () =
  check_summary "mc" ~targets:65 ~untargeted:235 ~max_nmin:(Some 4)
    ~pct1:94.89

let test_dk27 () =
  let a = analyze "dk27" in
  let s = a.Analysis.summary in
  Alcotest.(check bool) "|G| stable" true (s.Analysis.untargeted_faults > 0);
  (* Pin the exact counts. *)
  Alcotest.(check int) "|F|" 116 s.Analysis.target_faults;
  Alcotest.(check int) "|G|" 1512 s.Analysis.untargeted_faults

let test_mark1_tail () =
  let a = analyze "mark1" in
  Alcotest.(check int) "hard faults (nmin > 10)" 9
    (Array.length (Analysis.hard_faults a ~nmax:10));
  Alcotest.(check (option int)) "max nmin" (Some 17)
    a.Analysis.summary.Analysis.max_finite_nmin

let test_c17 () =
  (* c17 is the real ISCAS-85 netlist, so these values are externally
     checkable: 22 collapsed stuck-at faults (the standard count), all
     detectable. *)
  let a = analyze "c17" in
  let table = a.Analysis.table in
  let module Detection_table = Ndetect_core.Detection_table in
  Alcotest.(check int) "22 collapsed faults" 22
    (Detection_table.target_count table);
  Alcotest.(check int) "all detectable" 0
    (Detection_table.undetectable_target_count table);
  Alcotest.(check int) "26 detectable bridges" 26
    (Detection_table.untargeted_count table);
  (* Full nmin distribution of the bridging faults. *)
  let dist =
    Array.to_list (Worst_case.distribution a.Analysis.worst)
    |> List.sort Int.compare
  in
  Alcotest.(check (list int)) "nmin distribution"
    [ 1; 1; 1; 1; 2; 2; 2; 2; 2; 2; 2; 2; 2; 2; 2; 2; 2; 2; 3; 3; 4; 4; 4;
      5; 6; 6 ]
    dist;
  (* Spot-check detection set sizes of well-known faults. *)
  let n_of label =
    let rec find i =
      if Detection_table.target_label table i = label then
        Detection_table.target_n table i
      else find (i + 1)
    in
    find 0
  in
  Alcotest.(check int) "N(22/0)" 18 (n_of "22/0");
  Alcotest.(check int) "N(1/1)" 6 (n_of "1/1");
  Alcotest.(check int) "N(16/0)" 19 (n_of "16/0")

let test_example_distribution () =
  let a = Analysis.analyze ~name:"example" (Ndetect_suite.Example.circuit ()) in
  let dist =
    Array.to_list (Worst_case.distribution a.Analysis.worst)
    |> List.sort Int.compare
  in
  Alcotest.(check (list int)) "all ten nmin values"
    [ 1; 1; 1; 1; 3; 3; 3; 3; 4; 4 ]
    dist

(* The daemon's dedup key and the campaign ledger stamp, recorded before
   the command line was rebuilt on cmdliner terms: the requests and
   campaigns the command line builds must not move either. *)

module Api = Ndetect_harness.Api
module Cli = Ndetect_harness.Cli
module Serve = Ndetect_harness.Serve
module Shard_spec = Ndetect_shard.Spec

let cli_ok term args =
  match Helpers.parse_cli term args with
  | Ok v -> v
  | Error m -> Alcotest.fail m

let test_request_fingerprints () =
  Alcotest.(check string) "exhaustive defaults"
    "6ba242c526e4a13d03ee5aeb11a7268c"
    (Serve.fingerprint (cli_ok Cli.analyze [ "lion" ]));
  Alcotest.(check string) "sampled 2000/16/0.9"
    "b59eb034d577eab6033c19a6016f6b5b"
    (Serve.fingerprint
       (cli_ok Cli.analyze
          [ "rie"; "--samples"; "2000"; "--strata"; "16"; "--confidence";
            "0.9" ]));
  let every_field =
    Api.Request.make
      ~sections:
        [ Api.Request.Worst; Api.Request.Average; Api.Request.Average_def2 ]
      ~universe:
        (Api.Request.Sampled
           { Api.Estimate.Spec.samples = 2000; strata = 16; confidence = 0.9 })
      ~k:50 ~k2:20 ~nmax:5 ~seed:7 ~scheme:Ndetect_synth.Encode.Gray ~domains:2
      ~kernel_backend:"swar" ~sim_strategy:"cone" ~cache_dir:"tc" ~deadline:2.5
      ~label:"mc" (Api.Request.Suite "mc")
  in
  Alcotest.(check string) "every optional field set"
    "796b710a1f3dda8daffe596d29d8681b"
    (Serve.fingerprint every_field);
  match Api.Request.of_json (Api.Request.to_json every_field) with
  | Ok decoded ->
    Alcotest.(check string) "wire round trip keeps the key"
      (Serve.fingerprint every_field) (Serve.fingerprint decoded)
  | Error m -> Alcotest.fail m

let test_campaign_stamps () =
  let stamp args =
    let c =
      cli_ok Cli.campaign ([ "--tier"; "small"; "--ledger"; "l" ] @ args)
    in
    let samples, strata, confidence =
      match c.Cli.universe with
      | Api.Request.Exhaustive -> (None, None, None)
      | Api.Request.Sampled s ->
        ( Some s.Api.Estimate.Spec.samples,
          Some s.Api.Estimate.Spec.strata,
          Some s.Api.Estimate.Spec.confidence )
    in
    Shard_spec.stamp
      (Shard_spec.make_campaign ~fault_block:c.Cli.fault_block
         ?set_chunk:c.Cli.set_chunk ?circuits:c.Cli.circuits ~nmax:c.Cli.nmax
         ?samples ?strata ?confidence ~tier:c.Cli.tier ~seed:c.Cli.seed
         ~set_count:c.Cli.set_count ())
  in
  let small =
    "[c17,lion,dk27,ex5,train4,bbtas,dk15,dk512,dk14,dk17,firstex,lion9,mc,\
     modulo12,s8,tav,ex7,train11,beecount,ex3]"
  in
  Alcotest.(check string) "exhaustive small tier"
    ("v2 tier=small seed=1 K=1000 nmax=10 block=256 chunk=125 samples=0 \
      strata=0 conf=0 " ^ small)
    (stamp []);
  Alcotest.(check string) "sampled small tier"
    ("v2 tier=small seed=1 K=1000 nmax=10 block=256 chunk=125 samples=2000 \
      strata=16 conf=0.9 " ^ small)
    (stamp [ "--samples"; "2000"; "--strata"; "16"; "--confidence"; "0.9" ])

let () =
  Alcotest.run "golden"
    [
      ( "pipeline",
        [
          Alcotest.test_case "lion" `Quick test_lion;
          Alcotest.test_case "mc" `Quick test_mc;
          Alcotest.test_case "dk27" `Quick test_dk27;
          Alcotest.test_case "mark1 tail" `Quick test_mark1_tail;
          Alcotest.test_case "c17 (real ISCAS-85)" `Quick test_c17;
          Alcotest.test_case "example distribution" `Quick
            test_example_distribution;
        ] );
      ( "keys",
        [
          Alcotest.test_case "request fingerprints" `Quick
            test_request_fingerprints;
          Alcotest.test_case "campaign stamps" `Quick test_campaign_stamps;
        ] );
    ]
