(* Tests for the request/response core (Api), the ndetect-rpc/1 codec
   and the in-process analysis daemon (Serve). The daemon tests drive a
   real Unix-domain socket but stay in-process via Serve.start/stop —
   never Supervise.request_termination, whose flag is sticky and would
   poison every later supervised test in this binary. *)

module Api = Ndetect_harness.Api
module Rpc = Ndetect_harness.Rpc
module Serve = Ndetect_harness.Serve
module Cli = Ndetect_harness.Cli
module Supervise = Ndetect_util.Supervise
module Telemetry = Ndetect_util.Telemetry

(* rpc codec: qcheck round trips *)

let json_gen =
  let open QCheck.Gen in
  let any_byte_string = string_size ~gen:(map Char.chr (int_range 0 255)) (int_bound 24) in
  let finite_float =
    map
      (fun (f, integral) -> if integral then Float.round f else f)
      (pair (float_range (-1e9) 1e9) bool)
  in
  let scalar =
    oneof
      [
        return Rpc.Null;
        map (fun b -> Rpc.Bool b) bool;
        map (fun n -> Rpc.Int n)
          (frequency
             [ (4, small_signed_int); (1, oneofl [ min_int; max_int; 0 ]) ]);
        map (fun f -> Rpc.Float f) finite_float;
        map (fun s -> Rpc.Str s) any_byte_string;
      ]
  in
  let rec doc depth =
    if depth = 0 then scalar
    else
      frequency
        [
          (3, scalar);
          ( 1,
            map (fun l -> Rpc.List l) (list_size (int_bound 4) (doc (depth - 1)))
          );
          ( 1,
            map
              (fun kvs -> Rpc.Obj kvs)
              (list_size (int_bound 4)
                 (pair any_byte_string (doc (depth - 1)))) );
        ]
  in
  doc 3

let json_arbitrary = QCheck.make ~print:Rpc.to_string json_gen

let prop_json_roundtrip =
  QCheck.Test.make ~count:500 ~name:"rpc json round trip" json_arbitrary
    (fun j -> Rpc.of_string (Rpc.to_string j) = Ok j)

let prop_escape_roundtrip =
  QCheck.Test.make ~count:500 ~name:"rpc string escaping round trip"
    (QCheck.make ~print:(Printf.sprintf "%S")
       QCheck.Gen.(string_size ~gen:(map Char.chr (int_range 0 255)) (int_bound 64)))
    (fun s -> Rpc.of_string ("\"" ^ Rpc.escape s ^ "\"") = Ok (Rpc.Str s))

(* Frames written back to back must read back as the same sequence of
   documents, regardless of payload contents (embedded newlines in
   escaped strings must never split a frame), then hit a clean EOF
   error. *)
let prop_framing_roundtrip =
  QCheck.Test.make ~count:100 ~name:"rpc framing round trip"
    (QCheck.make
       ~print:(fun docs -> String.concat " | " (List.map Rpc.to_string docs))
       QCheck.Gen.(list_size (int_range 1 5) json_gen))
    (fun docs ->
      let path = Filename.temp_file "ndetect-rpc" ".bin" in
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          let oc = open_out_bin path in
          List.iter (fun d -> output_string oc (Rpc.frame d)) docs;
          close_out oc;
          let ic = open_in_bin path in
          Fun.protect
            ~finally:(fun () -> close_in ic)
            (fun () ->
              let read_back =
                List.map (fun _ -> Rpc.read_frame ic) docs
              in
              read_back = List.map (fun d -> Ok d) docs
              && Result.is_error (Rpc.read_frame ic))))

let test_rpc_rejects_oversized_frame () =
  let path = Filename.temp_file "ndetect-rpc" ".bin" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out_bin path in
      Printf.fprintf oc "%d\n" (Rpc.max_frame + 1);
      close_out oc;
      let ic = open_in_bin path in
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          Alcotest.(check bool) "oversized frame rejected" true
            (Result.is_error (Rpc.read_frame ic))))

(* request encoding *)

let full_request =
  Api.Request.make
    ~sections:[ Api.Request.Worst; Api.Request.Average; Api.Request.Average_def2 ]
    ~k:7 ~k2:3 ~nmax:4 ~seed:9 ~domains:2 ~kernel_backend:"portable"
    ~cache_dir:"/tmp/tables" ~deadline:2.5 ~label:"lion"
    (Api.Request.Suite "lion")

let test_request_roundtrip () =
  List.iter
    (fun req ->
      match Api.Request.of_json (Api.Request.to_json req) with
      | Error m -> Alcotest.fail ("round trip: " ^ m)
      | Ok back ->
        Alcotest.(check bool)
          ("request round trips: " ^ req.Api.Request.label)
          true (back = req))
    [
      full_request;
      Api.Request.make ~label:"defaults" (Api.Request.Suite "mc");
      Api.Request.make ~label:"inline"
        (Api.Request.Inline_bench "INPUT(a)\nOUTPUT(z)\nz = NOT(a)\n");
      Api.Request.make ~label:"file" (Api.Request.File "x.bench");
      Api.Request.make ~label:"sampled"
        ~universe:
          (Api.Request.Sampled
             { Api.Estimate.Spec.samples = 500; strata = 8; confidence = 0.9 })
        (Api.Request.Suite "mc");
    ]

(* The universe field round-trips for every validly constructible spec,
   not just hand-picked ones (the daemon's dedup fingerprint is the
   encoded request, so any encode/decode asymmetry would split or
   alias cache entries). *)
let prop_universe_roundtrip =
  QCheck.Test.make ~count:200 ~name:"request universe JSON round trip"
    (QCheck.make
       ~print:(fun (samples, strata, conf_mil) ->
         Printf.sprintf "samples=%d strata=%d confidence=%d/1000" samples
           strata conf_mil)
       QCheck.Gen.(
         triple (int_range 1 5000) (int_range 1 64) (int_range 1 999)))
    (fun (samples, strata, conf_mil) ->
      let universe =
        match
          Api.Estimate.Spec.make ~strata
            ~confidence:(float_of_int conf_mil /. 1000.0)
            ~samples ()
        with
        | Ok spec -> Api.Request.Sampled spec
        | Error _ -> Api.Request.Exhaustive
      in
      let req =
        Api.Request.make ~label:"prop" ~universe (Api.Request.Suite "mc")
      in
      match Api.Request.of_json (Api.Request.to_json req) with
      | Ok back -> back = req
      | Error _ -> false)

let test_request_of_json_errors () =
  Alcotest.(check bool) "non-object rejected" true
    (Result.is_error (Api.Request.of_json (Rpc.Str "nope")));
  Alcotest.(check bool) "bad section rejected" true
    (Result.is_error
       (Api.Request.of_json
          (Rpc.Obj
             [
               ("label", Rpc.Str "x");
               ("source", Rpc.Obj [ ("suite", Rpc.Str "lion") ]);
               ("sections", Rpc.List [ Rpc.Str "table9" ]);
             ])));
  let with_universe u =
    Api.Request.of_json
      (Rpc.Obj
         [
           ("label", Rpc.Str "x");
           ( "source",
             Rpc.Obj
               [ ("kind", Rpc.Str "suite"); ("value", Rpc.Str "lion") ] );
           ("universe", u);
         ])
  in
  (* The error cases below must fail on the universe field, not on an
     accidentally malformed envelope. *)
  (match with_universe Rpc.Null with
  | Ok _ -> ()
  | Error m -> Alcotest.failf "envelope itself rejected: %s" m);
  let universe_error u =
    match with_universe u with
    | Ok _ -> false
    | Error m -> Helpers.contains_substring m "universe"
  in
  Alcotest.(check bool) "invalid sampled universe rejected" true
    (universe_error
       (Rpc.Obj
          [
            ("samples", Rpc.Int 0); ("strata", Rpc.Int 4);
            ("confidence", Rpc.Float 0.95);
          ]));
  Alcotest.(check bool) "confidence 1.0 rejected" true
    (universe_error
       (Rpc.Obj
          [
            ("samples", Rpc.Int 100); ("strata", Rpc.Int 4);
            ("confidence", Rpc.Float 1.0);
          ]));
  (* Old encoders omit the field entirely; both spellings of "not
     sampled" must decode to Exhaustive. *)
  (match with_universe Rpc.Null with
  | Ok req ->
    Alcotest.(check bool) "null universe is exhaustive" true
      (req.Api.Request.universe = Api.Request.Exhaustive)
  | Error m -> Alcotest.fail m)

let test_section_names () =
  List.iter
    (fun s ->
      Alcotest.(check bool)
        ("section name round trips: " ^ Api.Request.section_name s)
        true
        (Api.Request.section_of_name (Api.Request.section_name s) = Some s))
    [ Api.Request.Worst; Api.Request.Average; Api.Request.Average_def2 ];
  Alcotest.(check bool) "unknown section name" true
    (Api.Request.section_of_name "table9" = None)

(* command line -> request *)

let parse_request term args =
  match Helpers.parse_cli term args with
  | Ok req -> req
  | Error m -> Alcotest.fail ("unexpected usage error: " ^ m)

let test_options_to_request () =
  let req =
    parse_request Cli.analyze
      [ "lion"; "--timeout"; "1.5"; "--table-cache"; "tc"; "--domains"; "2";
        "--kernel-backend"; "SWAR"; "--sim-strategy"; "cone" ]
  in
  Alcotest.(check bool) "analyze is worst" true
    (req.Api.Request.sections = [ Api.Request.Worst ]);
  Alcotest.(check bool) "suite source" true
    (req.Api.Request.source = Api.Request.Suite "lion");
  Alcotest.(check string) "label" "lion" req.Api.Request.label;
  Alcotest.(check bool) "deadline carried" true
    (req.Api.Request.deadline = Some 1.5);
  Alcotest.(check (option string)) "cache carried" (Some "tc")
    req.Api.Request.cache_dir;
  Alcotest.(check (option int)) "domains carried" (Some 2)
    req.Api.Request.domains;
  Alcotest.(check (option string)) "backend lowercased" (Some "swar")
    req.Api.Request.kernel_backend;
  Alcotest.(check (option string)) "strategy carried" (Some "cone")
    req.Api.Request.sim_strategy;
  Alcotest.(check bool) "analyze defaults are the request defaults" true
    (parse_request Cli.analyze [ "lion" ]
    = Api.Request.make ~label:"lion" (Api.Request.Suite "lion"));
  let req =
    parse_request Cli.average [ "lion"; "-k"; "11"; "--seed"; "3"; "--nmax"; "4" ]
  in
  Alcotest.(check bool) "average section" true
    (req.Api.Request.sections = [ Api.Request.Average ]);
  Alcotest.(check int) "k carried" 11 req.Api.Request.k;
  Alcotest.(check int) "k2 default" 200 req.Api.Request.k2;
  Alcotest.(check int) "seed carried" 3 req.Api.Request.seed;
  Alcotest.(check int) "nmax carried" 4 req.Api.Request.nmax;
  let req = parse_request Cli.average [ "lion"; "--def2"; "-k"; "5" ] in
  Alcotest.(check bool) "--def2 section" true
    (req.Api.Request.sections = [ Api.Request.Average_def2 ]);
  Alcotest.(check int) "--def2 -k sets k2" 5 req.Api.Request.k2;
  Alcotest.(check int) "--def2 leaves k at its default" 1000
    req.Api.Request.k;
  (match
     parse_request Cli.client
       [ "lion"; "--sections"; "worst, average_def2"; "--k2"; "7" ]
   with
  | None -> Alcotest.fail "client with a CIRCUIT builds a request"
  | Some req ->
    Alcotest.(check bool) "client sections" true
      (req.Api.Request.sections
      = [ Api.Request.Worst; Api.Request.Average_def2 ]);
    Alcotest.(check int) "client k2" 7 req.Api.Request.k2);
  Alcotest.(check bool) "client without CIRCUIT" true
    (parse_request Cli.client [] = None);
  Alcotest.(check bool) "unknown client section rejected" true
    (Result.is_error
       (Helpers.parse_cli Cli.client [ "lion"; "--sections"; "table9" ]));
  (* Sampled-universe lowering: the three flags become the request's
     universe, with defaults filled in. *)
  let sampled args =
    (parse_request Cli.analyze ("lion" :: args)).Api.Request.universe
  in
  Alcotest.(check bool) "sampled universe lowered" true
    (sampled [ "--samples"; "300"; "--strata"; "4"; "--confidence"; "0.99" ]
    = Api.Request.Sampled
        { Api.Estimate.Spec.samples = 300; strata = 4; confidence = 0.99 });
  Alcotest.(check bool) "strata and confidence default" true
    (sampled [ "--samples"; "300" ]
    = Api.Request.Sampled
        {
          Api.Estimate.Spec.samples = 300;
          strata = 16;
          confidence = Api.Estimate.Spec.default_confidence;
        });
  Alcotest.(check bool) "no samples is exhaustive" true
    (sampled [] = Api.Request.Exhaustive);
  List.iter
    (fun (label, term, args) ->
      Alcotest.(check bool) label true
        (Result.is_error (Helpers.parse_cli term args)))
    [
      ("samples below strata rejected", Cli.analyze,
       [ "lion"; "--samples"; "3"; "--strata"; "8" ]);
      ("confidence 1.0 rejected", Cli.analyze,
       [ "lion"; "--samples"; "10"; "--confidence"; "1.0" ]);
      ("unknown backend rejected", Cli.analyze,
       [ "lion"; "--kernel-backend"; "gpu" ]);
      ("zero k rejected", Cli.average, [ "lion"; "-k"; "0" ]);
      ("non-integer k rejected", Cli.average, [ "lion"; "-k"; "x" ]);
    ]

(* A non-positive threshold is a usage error on the command line and a
   decode error on the wire, with one message: both go through
   Api.Request.validate. Before, the CLI patched nmax in after
   validation and the bad value reached Procedure 1. *)
let test_nmax_validated_once () =
  List.iter
    (fun nmax ->
      let cli =
        match
          Helpers.parse_cli Cli.average
            [ "lion"; Printf.sprintf "--nmax=%d" nmax ]
        with
        | Ok _ -> Alcotest.failf "--nmax=%d accepted" nmax
        | Error m -> m
      in
      let wire =
        match
          Api.Request.of_json
            (Api.Request.to_json
               (Api.Request.make ~nmax ~label:"lion" (Api.Request.Suite "lion")))
        with
        | Ok _ -> Alcotest.failf "nmax %d decoded" nmax
        | Error m -> m
      in
      let direct =
        match
          Api.Request.validate
            (Api.Request.make ~nmax ~label:"lion" (Api.Request.Suite "lion"))
        with
        | Ok _ -> Alcotest.failf "nmax %d validated" nmax
        | Error m -> m
      in
      Alcotest.(check string) "wire message is validate's" direct wire;
      Alcotest.(check bool) "CLI message is validate's" true
        (Helpers.contains_substring cli direct))
    [ 0; -2 ]

(* in-process daemon *)

let fresh_dir () =
  let dir = Filename.temp_file "ndetect-serve" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  dir

let rm_rf dir =
  Array.iter
    (fun entry -> try Sys.remove (Filename.concat dir entry) with _ -> ())
    (Sys.readdir dir);
  try Unix.rmdir dir with _ -> ()

let with_server ?(cache = false) ?(queue_capacity = 16) f =
  let dir = fresh_dir () in
  let cache_dir =
    if cache then begin
      let c = Filename.concat dir "tables" in
      Unix.mkdir c 0o755;
      Some c
    end
    else None
  in
  let config =
    {
      (Serve.default_config ~socket:(Filename.concat dir "s")) with
      Serve.cache_dir;
      queue_capacity;
      quiet = true;
    }
  in
  match Serve.start config with
  | Error m ->
    rm_rf dir;
    Alcotest.fail ("server start: " ^ m)
  | Ok t ->
    Fun.protect
      ~finally:(fun () ->
        Supervise.set_injection [];
        Serve.stop t;
        Option.iter rm_rf cache_dir;
        rm_rf dir)
      (fun () -> f config.Serve.socket)

let connect socket =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX socket);
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  (match Rpc.read_frame ic with
  | Ok hello ->
    Alcotest.(check (option string)) "hello speaks the protocol"
      (Some Rpc.protocol)
      (Option.bind (Rpc.member "protocol" hello) Rpc.to_str)
  | Error m -> Alcotest.fail ("hello: " ^ m));
  (fd, ic, oc)

let disconnect (fd, _, oc) =
  (try flush oc with _ -> ());
  try Unix.close fd with _ -> ()

let send_request (_, _, oc) req =
  Rpc.write_frame oc
    (Rpc.Obj
       [ ("type", Rpc.Str "request"); ("request", Api.Request.to_json req) ])

type reply = {
  render : string;
  remote_failures : int;
  trace : string list;
  failure_spans : string list list;
      (* one entry per failure frame: its open-span stack *)
  overloaded : bool;
  counters : (string * int) list;  (* the response's counter delta *)
}

let read_reply (_, ic, _) =
  let trace = ref [] in
  let failure_spans = ref [] in
  let rec loop () =
    match Rpc.read_frame ic with
    | Error m -> Alcotest.fail ("reply: " ^ m)
    | Ok j -> (
      match Option.bind (Rpc.member "type" j) Rpc.to_str with
      | Some "trace" ->
        (match Option.bind (Rpc.member "line" j) Rpc.to_str with
        | Some line -> trace := line :: !trace
        | None -> ());
        loop ()
      | Some "failure" ->
        let spans =
          match Rpc.member "spans" j with
          | Some (Rpc.List l) -> List.filter_map Rpc.to_str l
          | _ -> []
        in
        failure_spans := spans :: !failure_spans;
        loop ()
      | Some "done" ->
        {
          render =
            Option.value ~default:""
              (Option.bind (Rpc.member "render" j) Rpc.to_str);
          remote_failures =
            Option.value ~default:0
              (Option.bind (Rpc.member "failures" j) Rpc.to_int);
          trace = List.rev !trace;
          failure_spans = List.rev !failure_spans;
          overloaded = false;
          counters =
            (match Rpc.member "counters" j with
            | Some (Rpc.Obj members) ->
              List.filter_map
                (fun (name, v) -> Option.map (fun n -> (name, n)) (Rpc.to_int v))
                members
            | _ -> []);
        }
      | Some "overloaded" ->
        {
          render = "";
          remote_failures = 0;
          trace = [];
          failure_spans = [];
          overloaded = true;
          counters = [];
        }
      | Some "error" ->
        Alcotest.fail
          ("server error: "
          ^ Option.value ~default:"?"
              (Option.bind (Rpc.member "message" j) Rpc.to_str))
      | Some _ | None -> loop ())
  in
  loop ()

let one_shot socket req =
  let conn = connect socket in
  Fun.protect
    ~finally:(fun () -> disconnect conn)
    (fun () ->
      send_request conn req;
      read_reply conn)

let has_span trace needle =
  List.exists (fun line -> Helpers.contains_substring line needle) trace

let span_count trace =
  List.length
    (List.filter
       (fun line -> Helpers.contains_substring line "\"type\":\"begin\"")
       trace)

let quick_request ?deadline ?cache_dir label =
  Api.Request.make ~sections:[ Api.Request.Worst ] ~nmax:3 ?deadline
    ?cache_dir ~label (Api.Request.Suite "lion")

(* The core acceptance property: the daemon's render is byte-identical
   to running the same request locally, because both print
   Api.Response.render of the same value. *)
let test_serve_matches_local_run () =
  with_server (fun socket ->
      let req =
        Api.Request.make
          ~sections:[ Api.Request.Worst; Api.Request.Average ]
          ~k:5 ~nmax:3 ~label:"lion" (Api.Request.Suite "lion")
      in
      let reply = one_shot socket req in
      match Api.run req with
      | Error m -> Alcotest.fail m
      | Ok local ->
        Alcotest.(check string) "daemon render byte-identical to local"
          (Api.Response.render local) reply.render;
        Alcotest.(check int) "clean run" 0 reply.remote_failures;
        Alcotest.(check bool) "trace streamed" true (span_count reply.trace > 0))

let test_serve_stats_frame () =
  with_server (fun socket ->
      ignore (one_shot socket (quick_request "lion"));
      let conn = connect socket in
      Fun.protect
        ~finally:(fun () -> disconnect conn)
        (fun () ->
          let _, ic, oc = conn in
          Rpc.write_frame oc (Rpc.Obj [ ("type", Rpc.Str "stats") ]);
          match Rpc.read_frame ic with
          | Error m -> Alcotest.fail m
          | Ok j ->
            let counters =
              match Rpc.member "counters" j with
              | Some (Rpc.Obj members) -> members
              | _ -> Alcotest.fail "stats frame has no counters object"
            in
            Alcotest.(check bool) "requests counted" true
              (match List.assoc_opt "serve.requests" counters with
              | Some (Rpc.Int n) -> n >= 1
              | _ -> false)))

(* Two identical requests in flight: the second joins the first's
   computation. Exactly one of the two traces carries spans; the
   joiner's is the schema-valid empty document. *)
let test_serve_dedups_concurrent_identical_requests () =
  with_server ~cache:true (fun socket ->
      (match Supervise.parse_injection_spec "stall=analyze:lion:0.6" with
      | Ok plan -> Supervise.set_injection plan
      | Error m -> Alcotest.fail m);
      let joins_before = Telemetry.counter_value "serve.dedup_joins" in
      let req = quick_request "lion" in
      let a = connect socket and b = connect socket in
      Fun.protect
        ~finally:(fun () ->
          Supervise.set_injection [];
          disconnect a;
          disconnect b)
        (fun () ->
          send_request a req;
          send_request b req;
          let ra = read_reply a and rb = read_reply b in
          Alcotest.(check string) "joiner got the owner's answer" ra.render
            rb.render;
          Alcotest.(check int) "both clean" 0
            (ra.remote_failures + rb.remote_failures);
          Alcotest.(check int) "one dedup join counted" (joins_before + 1)
            (Telemetry.counter_value "serve.dedup_joins");
          let spans = List.sort compare [ span_count ra.trace; span_count rb.trace ] in
          Alcotest.(check bool) "exactly one computation traced" true
            (List.hd spans = 0 && List.nth spans 1 > 0)))

(* Deadline from admission: a stalled unit comes back as a structured
   timeout row; the daemon survives and answers the next request. *)
let test_serve_deadline_is_structured () =
  with_server (fun socket ->
      (match Supervise.parse_injection_spec "stall=analyze:dl:10" with
      | Ok plan -> Supervise.set_injection plan
      | Error m -> Alcotest.fail m);
      let reply =
        Fun.protect
          ~finally:(fun () -> Supervise.set_injection [])
          (fun () ->
            one_shot socket
              {
                (quick_request ~deadline:0.4 "dl") with
                Api.Request.source = Api.Request.Suite "lion";
              })
      in
      Alcotest.(check int) "one failure row" 1 reply.remote_failures;
      Alcotest.(check bool) "render names the timeout" true
        (Helpers.contains_substring reply.render "timed out");
      (* The failure frame carries the span stack that was open when
         the deadline unwound — the budget went into the analysis. *)
      (match reply.failure_spans with
      | [ spans ] ->
        Alcotest.(check bool) "timeout reports its open span stack" true
          (List.exists
             (fun s -> Helpers.contains_substring s "analyze")
             spans)
      | other ->
        Alcotest.fail
          (Printf.sprintf "expected 1 failure frame, got %d"
             (List.length other)));
      (* The daemon is still alive and clean for the next request. *)
      let after = one_shot socket (quick_request "lion") in
      Alcotest.(check int) "daemon survived the timeout" 0
        after.remote_failures)

(* Clean-then-warm: with a cache directory, the second identical
   (sequential, so not deduplicated) request answers from the resident
   table — its trace has no simulation or build spans at all. *)
let test_serve_warm_request_simulates_nothing () =
  with_server ~cache:true (fun socket ->
      let req = quick_request "lion" in
      let cold = one_shot socket req in
      let warm = one_shot socket req in
      Alcotest.(check string) "warm answer identical" cold.render warm.render;
      Alcotest.(check bool) "cold run built the table" true
        (has_span cold.trace "\"name\":\"table.build\"");
      Alcotest.(check bool) "warm run still traced" true
        (span_count warm.trace > 0);
      List.iter
        (fun forbidden ->
          Alcotest.(check bool)
            (forbidden ^ " absent from warm trace")
            true
            (not (has_span warm.trace forbidden)))
        [ "\"name\":\"table.build\""; "\"name\":\"table.sim" ])

(* A full admission queue answers overloaded immediately instead of
   queueing unbounded work. *)
let test_serve_overload_is_structured () =
  with_server ~queue_capacity:1 (fun socket ->
      (match Supervise.parse_injection_spec "stall=analyze:ov:1.2" with
      | Ok plan -> Supervise.set_injection plan
      | Error m -> Alcotest.fail m);
      let a = connect socket and b = connect socket and c = connect socket in
      Fun.protect
        ~finally:(fun () ->
          Supervise.set_injection [];
          disconnect a;
          disconnect b;
          disconnect c)
        (fun () ->
          send_request a (quick_request "ov");
          (* Let the executor dequeue the stalled request so the queue
             is empty, then fill it and overflow it with two distinct
             requests (identical ones would dedup, not queue). Their
             connection threads race, so either may be the one shed —
             but with a stalled executor and a one-slot queue, exactly
             one of them must be. *)
          Unix.sleepf 0.3;
          send_request b (quick_request "ov-b");
          send_request c (quick_request "ov-c");
          let rb = read_reply b in
          let rc = read_reply c in
          let ra = read_reply a in
          Alcotest.(check bool) "exactly one request shed" true
            (rb.overloaded <> rc.overloaded);
          let admitted = if rb.overloaded then rc else rb in
          Alcotest.(check int) "queued and running requests answered" 0
            (ra.remote_failures + admitted.remote_failures);
          Alcotest.(check bool) "overload counted" true
            (Telemetry.counter_value "serve.overloaded" >= 1)))

(* A request that names no kernel backend or simulation strategy runs on
   the process's startup selection, not on whatever the previous request
   selected: after a cone request, a default request's counter deltas
   (sim.* in particular) equal those of the same request run alone. *)
let test_serve_runtime_does_not_leak () =
  let default_request = quick_request "lion" in
  let alone =
    with_server (fun socket -> (one_shot socket default_request).counters)
  in
  let after_cone =
    with_server (fun socket ->
        let cone =
          one_shot socket
            (Api.Request.make ~sim_strategy:"cone" ~kernel_backend:"swar"
               ~label:"mc" (Api.Request.Suite "mc"))
        in
        Alcotest.(check bool) "cone request propagated per fault" true
          (List.mem_assoc "sim.cone_propagations" cone.counters);
        (one_shot socket default_request).counters)
  in
  Alcotest.(check bool) "the default request simulated" true
    (List.mem_assoc "sim.stem_regions" alone);
  (* The resident-store gauges differ by construction: the cone run left
     mc resident. *)
  let work =
    List.filter (fun (name, _) ->
        not (String.starts_with ~prefix:"serve." name))
  in
  Alcotest.(check (list (pair string int))) "same counter deltas" (work alone)
    (work after_cone)

let () =
  Alcotest.run "serve"
    [
      ( "rpc",
        [
          Helpers.qcheck prop_json_roundtrip;
          Helpers.qcheck prop_escape_roundtrip;
          Helpers.qcheck prop_framing_roundtrip;
          Alcotest.test_case "oversized frame rejected" `Quick
            test_rpc_rejects_oversized_frame;
        ] );
      ( "request",
        [
          Alcotest.test_case "json round trip" `Quick test_request_roundtrip;
          Helpers.qcheck prop_universe_roundtrip;
          Alcotest.test_case "of_json errors" `Quick
            test_request_of_json_errors;
          Alcotest.test_case "section names" `Quick test_section_names;
          Alcotest.test_case "options lowering" `Quick
            test_options_to_request;
          Alcotest.test_case "nmax validated once" `Quick
            test_nmax_validated_once;
        ] );
      ( "daemon",
        [
          Alcotest.test_case "matches local run" `Quick
            test_serve_matches_local_run;
          Alcotest.test_case "stats frame" `Quick test_serve_stats_frame;
          Alcotest.test_case "dedups concurrent identical requests" `Quick
            test_serve_dedups_concurrent_identical_requests;
          Alcotest.test_case "deadline is a structured row" `Quick
            test_serve_deadline_is_structured;
          Alcotest.test_case "warm request simulates nothing" `Quick
            test_serve_warm_request_simulates_nothing;
          Alcotest.test_case "overload is structured" `Quick
            test_serve_overload_is_structured;
          Alcotest.test_case "runtime selection does not leak" `Quick
            test_serve_runtime_does_not_leak;
        ] );
    ]
