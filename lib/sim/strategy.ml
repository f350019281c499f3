module Telemetry = Ndetect_util.Telemetry

type t = Cone | Stem

let names = [ ("cone", Cone); ("stem", Stem) ]
let default_name = "stem"
let env_var = "NDETECT_SIM"

let name_of = function Cone -> "cone" | Stem -> "stem"

(* Which strategy simulated is part of a run's observability: gauge
   value = position in [names] (0 = cone, 1 = stem), reported by
   --metrics and the trace counters footer. *)
let g_strategy = Telemetry.Gauge.create "sim.strategy"

let state = ref Stem

let index_of name =
  let rec go i = function
    | [] -> -1
    | (n, _) :: rest -> if String.equal n name then i else go (i + 1) rest
  in
  go 0 names

let select name =
  match List.assoc_opt name names with
  | None ->
    Error
      (Printf.sprintf "unknown simulation strategy %S (expected %s)" name
         (String.concat ", " (List.map fst names)))
  | Some s ->
    state := s;
    Telemetry.Gauge.set g_strategy (index_of name);
    Ok ()

let current () = !state
let current_name () = name_of !state

(* Initial selection: NDETECT_SIM when it names a registered strategy,
   the stem default otherwise. An unknown value is deliberately ignored
   (not fatal): a stale environment must not break runs, and the
   driver's --sim-strategy flag still validates strictly. *)
let startup_name =
  match Sys.getenv_opt env_var with
  | Some v when List.mem_assoc v names -> v
  | Some _ | None -> default_name

let () = match select startup_name with Ok () -> () | Error _ -> ()
