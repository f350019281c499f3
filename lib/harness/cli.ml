module Registry = Ndetect_suite.Registry
module Encode = Ndetect_synth.Encode
module Estimate = Ndetect_estimate.Estimate
module Kernel = Ndetect_util.Kernel
module Strategy = Ndetect_sim.Strategy
module Supervise = Ndetect_util.Supervise
open Cmdliner

(* Value kinds. Each converter carries its value's check, so a bad value
   is a cmdliner parse error that names the flag. *)

let checked ~expects ~ok of_string pp =
  Arg.conv'
    ( (fun s ->
        match of_string s with
        | Some v when ok v -> Ok v
        | Some _ | None ->
          Error (Printf.sprintf "expected %s, got %S" expects s)),
      pp )

let count =
  checked ~expects:"an integer >= 1" ~ok:(fun n -> n >= 1)
    int_of_string_opt Format.pp_print_int

let pp_float ppf f = Format.fprintf ppf "%g" f

let seconds =
  checked ~expects:"a positive number of seconds"
    ~ok:(fun s -> s > 0.0)
    float_of_string_opt pp_float

let lease_seconds =
  checked ~expects:"a number of seconds >= 1"
    ~ok:(fun s -> s >= 1.0)
    float_of_string_opt pp_float

let probability =
  checked ~expects:"a probability strictly inside (0, 1)"
    ~ok:(fun p -> p > 0.0 && p < 1.0)
    float_of_string_opt pp_float

(* A case-insensitive name from a fixed list. *)
let one_of ~what choices =
  Arg.conv'
    ( (fun s ->
        Option.to_result
          (List.assoc_opt (String.lowercase_ascii s) choices)
          ~none:
            (Printf.sprintf "unknown %s %S (expected %s)" what s
               (String.concat ", " (List.map fst choices)))),
      fun ppf v ->
        Format.pp_print_string ppf
          (fst (List.find (fun (_, v') -> v' = v) choices)) )

let names = List.map (fun name -> (name, name))

let tier =
  one_of ~what:"tier"
    [ ("small", Registry.Small); ("medium", Registry.Medium);
      ("large", Registry.Large) ]

let kernel_backend =
  one_of ~what:"backend" (names (List.map fst Kernel.backends))

let sim_strategy = one_of ~what:"strategy" (names (List.map fst Strategy.names))
let only = one_of ~what:"section" (names Driver.sections)

let inject_spec =
  Arg.conv'
    ( (fun s -> Result.map (fun _ -> s) (Supervise.parse_injection_spec s)),
      Format.pp_print_string )

let scheme_conv =
  Arg.conv'
    ( (fun s ->
        Option.to_result (Encode.of_string s)
          ~none:(Printf.sprintf "unknown encoding %s" s)),
      fun ppf s -> Format.pp_print_string ppf (Encode.to_string s) )

let request_section =
  Arg.conv'
    ( (fun s ->
        Option.to_result
          (Api.Request.section_of_name (String.trim s))
          ~none:
            (Printf.sprintf
               "unknown section %s (worst, average or average_def2)" s)),
      fun ppf s -> Format.pp_print_string ppf (Api.Request.section_name s) )

(* Flags, one term each. *)

let circuit =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"CIRCUIT"
        ~doc:
          "Circuit to analyze: a suite benchmark name (see $(b,ndetect \
           list)) or a netlist/FSM file (.bench, .kiss2, .pla, .blif).")

let scheme =
  Arg.(
    value
    & opt scheme_conv Encode.Binary
    & info [ "encoding" ] ~docv:"SCHEME"
        ~doc:"State encoding: binary, gray or one-hot.")

let seed =
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N" ~doc:"Random seed.")

let tier_flag =
  Arg.(
    value & opt tier Registry.Medium
    & info [ "tier" ] ~docv:"TIER" ~doc:"Suite tier: small, medium or large.")

let k =
  Arg.(
    value & opt count 1000
    & info [ "k"; "sets" ] ~docv:"K"
        ~doc:
          "Random test sets drawn by Procedure 1 (Table 5); also spelled \
           $(b,--k).")

let k2 =
  Arg.(
    value & opt count 200
    & info [ "k2" ] ~docv:"K"
        ~doc:"Test sets per definition for Definition 1 vs 2 (Table 6).")

let nmax =
  Arg.(
    value & opt int 10
    & info [ "nmax" ] ~docv:"N" ~doc:"Largest number of detections (>= 1).")

let domains =
  Arg.(
    value
    & opt (some count) None
    & info [ "domains" ] ~docv:"N" ~doc:"Procedure-1 worker domains.")

let table_cache =
  Arg.(
    value
    & opt (some string) None
    & info [ "table-cache" ] ~docv:"DIR"
        ~doc:"Detection-table cache directory.")

let kernel_backend_flag =
  Arg.(
    value
    & opt (some kernel_backend) None
    & info [ "kernel-backend" ] ~docv:"NAME"
        ~doc:"Intersection kernel backend (swar or c).")

let sim_strategy_flag =
  Arg.(
    value
    & opt (some sim_strategy) None
    & info [ "sim-strategy" ] ~docv:"NAME"
        ~doc:"Fault-simulation strategy (cone or stem).")

let timeout =
  Arg.(
    value
    & opt (some seconds) None
    & info [ "timeout" ] ~docv:"SECS"
        ~doc:"Wall-clock budget per supervised unit.")

let timeout_per_circuit =
  Arg.(
    value
    & opt (some seconds) None
    & info [ "timeout-per-circuit" ] ~docv:"SECS"
        ~doc:"Wall-clock budget per supervised per-circuit unit.")

let deadline =
  Arg.(
    value
    & opt (some seconds) None
    & info [ "deadline" ] ~docv:"SECS"
        ~doc:
          "Per-request budget, counted from admission (queue time included).")

let inject =
  Arg.(
    value
    & opt (some inject_spec) None
    & info [ "inject" ] ~docv:"SPEC"
        ~doc:
          "Deterministic fault-injection plan (self-test), e.g. \
           $(b,crash=analyze:mc); a campaign forwards it to every worker.")

let quiet =
  Arg.(
    value & flag & info [ "quiet" ] ~doc:"Suppress progress and timing lines.")

let samples =
  Arg.(
    value
    & opt (some count) None
    & info [ "samples" ] ~docv:"N"
        ~doc:
          "Estimate from N stratified random vectors (with confidence \
           intervals) instead of enumerating all 2^PI.")

let strata =
  Arg.(
    value
    & opt (some count) None
    & info [ "strata" ] ~docv:"N"
        ~doc:"Sampling strata (requires --samples; default 16).")

let confidence =
  Arg.(
    value
    & opt (some probability) None
    & info [ "confidence" ] ~docv:"P"
        ~doc:
          "Interval confidence, strictly between 0 and 1 (requires \
           --samples; default 0.95).")

let universe =
  let open Term.Syntax in
  Term.term_result' ~usage:true
  @@
  let+ samples = samples and+ strata = strata and+ confidence = confidence in
  match samples with
  | None ->
    if strata <> None then Error "--strata requires --samples"
    else if confidence <> None then Error "--confidence requires --samples"
    else Ok Api.Request.Exhaustive
  | Some samples ->
    Estimate.Spec.make ?strata ?confidence ~samples ()
    |> Result.map (fun spec -> Api.Request.Sampled spec)
    |> Result.map_error (fun msg -> "--samples: " ^ msg)

(* Composite terms. *)

let validated term =
  Term.term_result' ~usage:true (Term.map Api.Request.validate term)

let analyze =
  let open Term.Syntax in
  validated
  @@
  let+ spec = circuit
  and+ scheme = scheme
  and+ deadline = timeout
  and+ cache_dir = table_cache
  and+ domains = domains
  and+ kernel_backend = kernel_backend_flag
  and+ sim_strategy = sim_strategy_flag
  and+ universe = universe in
  Api.Request.make ~sections:[ Api.Request.Worst ] ~universe ~scheme ?deadline
    ?cache_dir ?domains ?kernel_backend ?sim_strategy ~label:spec
    (Api.source_of_spec spec)

let average =
  let def2 =
    Arg.(
      value & flag
      & info [ "def2" ]
          ~doc:
            "Compare Definition 1 against Definition 2 (pairwise-different \
             tests); $(b,-k) then sets the test sets per definition.")
  in
  let open Term.Syntax in
  validated
  @@
  let+ spec = circuit
  and+ scheme = scheme
  and+ sets = k
  and+ nmax = nmax
  and+ def2 = def2
  and+ seed = seed
  and+ deadline = timeout
  and+ cache_dir = table_cache
  and+ domains = domains
  and+ universe = universe in
  let sections, k, k2 =
    if def2 then ([ Api.Request.Average_def2 ], None, Some sets)
    else ([ Api.Request.Average ], Some sets, None)
  in
  Api.Request.make ~sections ~universe ?k ?k2 ~nmax ~seed ~scheme ?deadline
    ?cache_dir ?domains ~label:spec (Api.source_of_spec spec)

let client =
  let spec =
    Arg.(
      value
      & pos 0 (some string) None
      & info [] ~docv:"CIRCUIT"
          ~doc:
            "Suite benchmark name or netlist file (.bench content is shipped \
             inline).")
  in
  let sections =
    Arg.(
      value
      & opt (list request_section) [ Api.Request.Worst ]
      & info [ "sections" ] ~docv:"LIST"
          ~doc:"Comma-separated sections: worst, average, average_def2.")
  in
  let open Term.Syntax in
  Term.term_result' ~usage:true
  @@
  let+ spec = spec
  and+ sections = sections
  and+ k = k
  and+ k2 = k2
  and+ nmax = nmax
  and+ seed = seed
  and+ deadline = deadline
  and+ domains = domains
  and+ universe = universe in
  match spec with
  | None -> Ok None
  | Some spec ->
    Api.Request.make ~sections ~universe ~k ~k2 ~nmax ~seed ?deadline ?domains
      ~label:spec (Api.source_of_spec spec)
    |> Api.Request.validate |> Result.map Option.some

let reproduce =
  let only_flag =
    Arg.(
      value & opt only "all"
      & info [ "only" ] ~docv:"WHAT"
          ~doc:"One of table1..table6, figure2, or all.")
  in
  let dir names doc =
    Arg.(value & opt (some string) None & info names ~docv:"DIR" ~doc)
  in
  let csv_dir =
    dir [ "csv" ] "Also write table2/3/5/6.csv and figure2.csv here."
  in
  let checkpoint_dir =
    dir [ "checkpoint" ] "Persist each finished unit of work here."
  in
  let resume =
    Arg.(
      value & flag
      & info [ "resume" ]
          ~doc:"Reload finished units from the $(b,--checkpoint) directory.")
  in
  let trace =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:"Stream every telemetry span to FILE as ndetect-trace/1 JSONL.")
  in
  let metrics =
    Arg.(
      value & flag
      & info [ "metrics" ]
          ~doc:"Print per-unit counters and the span profile after the run.")
  in
  let open Term.Syntax in
  Term.term_result' ~usage:true
  @@
  let+ tier = tier_flag
  and+ k = k
  and+ k2 = k2
  and+ seed = seed
  and+ only = only_flag
  and+ quiet = quiet
  and+ csv_dir = csv_dir
  and+ checkpoint_dir = checkpoint_dir
  and+ resume = resume
  and+ timeout_per_circuit = timeout_per_circuit
  and+ inject = inject
  and+ domains = domains
  and+ table_cache = table_cache
  and+ trace = trace
  and+ metrics = metrics
  and+ kernel_backend = kernel_backend_flag
  and+ sim_strategy = sim_strategy_flag in
  if resume && checkpoint_dir = None then
    Error "--resume requires --checkpoint DIR"
  else
    Ok
      {
        Driver.tier;
        k;
        k2;
        seed;
        only;
        quiet;
        csv_dir;
        checkpoint_dir;
        resume;
        timeout_per_circuit;
        inject;
        domains;
        table_cache;
        trace;
        metrics;
        kernel_backend;
        sim_strategy;
      }

type campaign = {
  tier : Registry.tier;
  set_count : int;
  seed : int;
  nmax : int;
  fault_block : int;
  set_chunk : int option;
  circuits : string list option;
  universe : Api.Request.universe;
  workers : int;
  lease_secs : float option;
  max_unit_retries : int;
  chaos : bool;
  ledger : string;
  inject : string option;
  quiet : bool;
  max_wall_secs : float option;
}

let campaign =
  let fault_block =
    Arg.(
      value & opt count 256
      & info [ "fault-block" ] ~docv:"N"
          ~doc:"Untargeted faults per worst-case work unit.")
  in
  let set_chunk =
    Arg.(
      value & opt int 0
      & info [ "set-chunk" ] ~docv:"N"
          ~doc:"Test sets per average-case work unit (0 = K/8).")
  in
  let circuits =
    Arg.(
      value
      & opt (some string) None
      & info [ "circuits" ] ~docv:"NAMES"
          ~doc:"Comma-separated subset of the tier's circuits.")
  in
  let workers =
    Arg.(
      value & opt count 2
      & info [ "workers" ] ~docv:"N" ~doc:"Worker subprocesses (>= 1).")
  in
  let lease_secs =
    Arg.(
      value
      & opt (some lease_seconds) None
      & info [ "lease-secs" ] ~docv:"SECS"
          ~doc:"Heartbeat lease before a worker is presumed dead (>= 1).")
  in
  let max_unit_retries =
    Arg.(
      value & opt count 3
      & info [ "max-unit-retries" ] ~docv:"N"
          ~doc:"Failed attempts before a unit is poisoned.")
  in
  let chaos =
    Arg.(
      value & flag
      & info [ "chaos" ]
          ~doc:
            "Chaos mode: randomly SIGKILL and stall workers mid-campaign \
             (requires at least 2 workers). The merged report must stay \
             byte-identical.")
  in
  let ledger =
    Arg.(
      required
      & opt (some string) None
      & info [ "ledger" ] ~docv:"DIR" ~doc:"Work-ledger directory.")
  in
  let max_wall_secs =
    Arg.(
      value
      & opt (some float) None
      & info [ "max-wall-secs" ] ~docv:"SECS"
          ~doc:"Abort (resumably) past this wall-clock budget.")
  in
  let open Term.Syntax in
  Term.term_result' ~usage:true
  @@
  let+ tier = tier_flag
  and+ set_count = k
  and+ seed = seed
  and+ nmax = nmax
  and+ fault_block = fault_block
  and+ set_chunk = set_chunk
  and+ circuits = circuits
  and+ universe = universe
  and+ workers = workers
  and+ lease_secs = lease_secs
  and+ max_unit_retries = max_unit_retries
  and+ chaos = chaos
  and+ ledger = ledger
  and+ inject = inject
  and+ quiet = quiet
  and+ max_wall_secs = max_wall_secs in
  (* Chaos kills workers mid-campaign; with fewer than two there is
     nothing left to make progress while the victim is down. *)
  if chaos && workers < 2 then Error "--chaos requires --workers >= 2"
  else
    Ok
      {
        tier;
        set_count;
        seed;
        nmax;
        fault_block;
        set_chunk = (if set_chunk > 0 then Some set_chunk else None);
        circuits =
          Option.map
            (fun names -> List.map String.trim (String.split_on_char ',' names))
            circuits;
        universe;
        workers;
        lease_secs;
        max_unit_retries;
        chaos;
        ledger;
        inject;
        quiet;
        max_wall_secs;
      }

(* cmdliner spells a one-letter option with a single dash and would
   read "--k" as an abbreviation of "--k2"; the historical "--k"
   spelling is kept by rewriting it before parsing. *)
let argv = Array.map (function "--k" -> "-k" | arg -> arg)
