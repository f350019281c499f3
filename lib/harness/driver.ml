module Analysis = Ndetect_core.Analysis
module Detection_table = Ndetect_core.Detection_table
module Worst_case = Ndetect_core.Worst_case
module Procedure1 = Ndetect_core.Procedure1
module Average_case = Ndetect_core.Average_case
module Registry = Ndetect_suite.Registry
module Example = Ndetect_suite.Example
module Paper_tables = Ndetect_report.Paper_tables
module Bitvec = Ndetect_util.Bitvec
module Supervise = Ndetect_util.Supervise
module Telemetry = Ndetect_util.Telemetry

type options = {
  tier : Registry.tier;
  k : int;
  k2 : int;
  seed : int;
  only : string;
  quiet : bool;
  csv_dir : string option;
  checkpoint_dir : string option;
  resume : bool;
  timeout_per_circuit : float option;
  inject : string option;
  domains : int option;
  table_cache : string option;
  trace : string option;
  metrics : bool;
  kernel_backend : string option;
  sim_strategy : string option;
}

let default_options =
  {
    tier = Registry.Medium;
    k = 1000;
    k2 = 200;
    seed = 1;
    only = "all";
    quiet = false;
    csv_dir = None;
    checkpoint_dir = None;
    resume = false;
    timeout_per_circuit = None;
    inject = None;
    domains = None;
    table_cache = None;
    trace = None;
    metrics = false;
    kernel_backend = None;
    sim_strategy = None;
  }

let sections =
  [ "table1"; "table2"; "table3"; "table4"; "table5"; "table6"; "figure2";
    "all" ]

module Options = struct
  type nonrec t = options

  let make ?(tier = default_options.tier) ?(k = default_options.k)
      ?(k2 = default_options.k2) ?(seed = default_options.seed)
      ?(only = default_options.only) ?(quiet = default_options.quiet)
      ?csv_dir ?checkpoint_dir ?(resume = default_options.resume)
      ?timeout_per_circuit ?inject ?domains ?table_cache ?trace
      ?(metrics = default_options.metrics) ?kernel_backend ?sim_strategy () =
    {
      tier;
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
end

(* Per-circuit execution state. [Summarized] means only the worst-case
   summary was recovered from a checkpoint; the full analysis is
   recomputed on demand if a later table needs it. *)
type status =
  | Full of Analysis.t
  | Summarized of Analysis.worst_summary
  | Failed of Supervise.failure

type t = {
  options : options;
  statuses : (string, status) Hashtbl.t;
  checkpoint : Checkpoint.t option;
  mutable failures : (string * Supervise.failure) list;  (* newest first *)
  mutable example : Analysis.t option;
  mutable trace_sink : Telemetry.Jsonl.t option;
  mutable memory_sink : Telemetry.Memory.t option;
  mutable unit_metrics : (string * (string * int) list) list;  (* newest first *)
}

let tier_name = function
  | Registry.Small -> "small"
  | Registry.Medium -> "medium"
  | Registry.Large -> "large"

let create options =
  (* Backend and strategy selection before any analysis touches a
     Bitvec or builds a table. The names were validated at parse time;
     re-validate anyway for programmatic [Options.make] callers. *)
  (match
     Api.select_runtime ~kernel_backend:options.kernel_backend
       ~sim_strategy:options.sim_strategy
   with
  | Ok () -> ()
  | Error message -> failwith message);
  (match options.inject with
  | None -> Supervise.set_injection []
  | Some spec -> (
    match Supervise.parse_injection_spec spec with
    | Ok plan -> Supervise.set_injection plan
    | Error message -> failwith (Printf.sprintf "--inject: %s" message)));
  let checkpoint =
    Option.map
      (fun dir ->
        Checkpoint.create ~dir
          ~stamp:
            {
              Checkpoint.version = Checkpoint.version;
              seed = options.seed;
              tier = tier_name options.tier;
              k = options.k;
              k2 = options.k2;
            })
      options.checkpoint_dir
  in
  (* Fail fast on an unusable --csv target rather than crashing after
     the (possibly hours-long) run when the first table is written. *)
  Option.iter
    (fun dir ->
      Checkpoint.mkdir_recursive dir;
      if not (Sys.is_directory dir) then
        failwith (Printf.sprintf "csv path %s is not a directory" dir))
    options.csv_dir;
  (* Sinks are attached for the driver's lifetime and released by
     {!finish} (run_all calls it): --trace streams every span to the
     JSONL file, --metrics additionally keeps the span tree in memory
     for the final profile table. *)
  let trace_sink =
    Option.map (fun path -> Telemetry.Jsonl.attach ~path) options.trace
  in
  let memory_sink =
    if options.metrics then Some (Telemetry.Memory.attach ()) else None
  in
  {
    options;
    statuses = Hashtbl.create 64;
    checkpoint;
    failures = [];
    example = None;
    trace_sink;
    memory_sink;
    unit_metrics = [];
  }

let failures t = List.rev t.failures

let unit_metrics t = List.rev t.unit_metrics

let finish t =
  Option.iter Telemetry.Jsonl.detach t.trace_sink;
  t.trace_sink <- None;
  Option.iter Telemetry.Memory.detach t.memory_sink;
  t.memory_sink <- None

let timed t label f =
  if t.options.quiet then f ()
  else begin
    let t0 = Unix.gettimeofday () in
    let r = f () in
    Printf.printf "[%s: %.2fs]\n%!" label (Unix.gettimeofday () -. t0);
    r
  end

(* Checkpoint plumbing. Entries are only read back under --resume; a
   plain --checkpoint run starts from scratch but still persists. *)
let load_ck t key =
  match t.checkpoint with
  | Some ck when t.options.resume -> Checkpoint.load ck ~key
  | Some _ | None -> None

let store_ck t key payload =
  Option.iter (fun ck -> Checkpoint.store ck ~key payload) t.checkpoint

(* One supervised unit of work: deadline from --timeout-per-circuit,
   deterministic injection at [site], bounded retry for I/O errors, and
   the failure recorded for the final exit status. *)
let supervised t ~label ~site f =
  let before = if t.options.metrics then Telemetry.counters () else [] in
  let result =
    Supervise.run ?deadline:t.options.timeout_per_circuit ~retries:2
      (fun cancel ->
        (* The span lives inside the supervised attempt so a crash or
           timeout unwinds through it and the failure is annotated with
           the open span stack. *)
        Telemetry.with_span label
          ~args:[ ("site", site) ]
          (fun () ->
            Supervise.inject ~cancel site;
            f cancel))
  in
  if t.options.metrics then
    t.unit_metrics <-
      (label, Telemetry.delta ~before ~after:(Telemetry.counters ()))
      :: t.unit_metrics;
  (match result with
  | Error failure -> t.failures <- (label, failure) :: t.failures
  | Ok _ -> ());
  result

(* With --table-cache, detection tables are looked up in (and persisted
   to) the cache directory instead of being rebuilt by fault simulation
   on every run; the cache key covers the netlist and the default build
   parameters, so stale entries are impossible by construction. *)
let table_builder t = Api.table_builder ~cache_dir:t.options.table_cache

let compute_analysis t entry =
  let name = entry.Registry.name in
  match
    supervised t ~label:("analyze " ^ name) ~site:("analyze:" ^ name)
      (fun cancel ->
        timed t
          (Printf.sprintf "analyze %s" name)
          (fun () ->
            Analysis.analyze ?build:(table_builder t) ~cancel ~name
              (Registry.circuit entry)))
  with
  | Ok a ->
    store_ck t ("summary-" ^ name) a.Analysis.summary;
    Hashtbl.replace t.statuses name (Full a);
    Ok a
  | Error failure ->
    Hashtbl.replace t.statuses name (Failed failure);
    Error failure

let status_of t entry =
  let name = entry.Registry.name in
  match Hashtbl.find_opt t.statuses name with
  | Some s -> s
  | None -> (
    match load_ck t ("summary-" ^ name) with
    | Some (summary : Analysis.worst_summary) ->
      let s = Summarized summary in
      Hashtbl.replace t.statuses name s;
      s
    | None -> (
      match compute_analysis t entry with
      | Ok a -> Full a
      | Error failure -> Failed failure))

let summary_result t entry =
  match status_of t entry with
  | Full a -> Ok a.Analysis.summary
  | Summarized s -> Ok s
  | Failed f -> Error f

let analysis_result t entry =
  match status_of t entry with
  | Full a -> Ok a
  | Failed f -> Error f
  | Summarized _ -> compute_analysis t entry

let analysis_of t entry =
  match analysis_result t entry with
  | Ok a -> a
  | Error failure ->
    failwith (entry.Registry.name ^ ": " ^ Supervise.describe failure)

let example_analysis t =
  match t.example with
  | Some a -> a
  | None ->
    let a =
      Analysis.analyze ?build:(table_builder t) ~name:"example"
        (Example.circuit ())
    in
    t.example <- Some a;
    a

let find_bridge table (victim, vv, aggressor, av) =
  Detection_table.find_untargeted table ~victim ~victim_value:vv ~aggressor
    ~aggressor_value:av

let run_table1 t =
  let a = example_analysis t in
  match find_bridge a.Analysis.table Example.g0 with
  | None -> "example bridge g0 not found (unexpected)\n"
  | Some gj -> Paper_tables.table1 a ~gj

let summary_entries t =
  Registry.of_tier t.options.tier
  |> List.map (fun e ->
         match summary_result t e with
         | Ok s -> Paper_tables.Row s
         | Error failure ->
           Paper_tables.Failed_row
             {
               circuit = e.Registry.name;
               reason = Supervise.describe failure;
             })

let run_table2 t = Paper_tables.table2_entries (summary_entries t)
let run_table3 t = Paper_tables.table3_entries (summary_entries t)
let table2_csv t = Paper_tables.table2_csv_entries (summary_entries t)
let table3_csv t = Paper_tables.table3_csv_entries (summary_entries t)

(* nmin > 10 (hard_faults ~nmax:10) is exactly the Table 3 threshold
   nmin >= 11, so the count can be read off a summary — which keeps
   resumed runs from reanalyzing circuits just to pick Figure 2's
   subject or to skip hard-fault-free circuits in Tables 5/6. *)
let hard_count_of_summary (s : Analysis.worst_summary) =
  match List.find_opt (fun (n0, _, _) -> n0 = 11) s.Analysis.count_at_least with
  | Some (_, count, _) -> count
  | None -> 0

let hardest_entry t =
  let entries = Registry.of_tier t.options.tier in
  match
    List.find_opt (fun e -> String.equal e.Registry.name "dvram") entries
  with
  | Some e -> Some e
  | None ->
    List.fold_left
      (fun acc e ->
        match summary_result t e with
        | Error _ -> acc
        | Ok s -> (
          let hard = hard_count_of_summary s in
          match acc with
          | Some (_, best) when best >= hard -> acc
          | Some _ | None -> Some (e, hard)))
      None entries
    |> Option.map fst

type figure2_data = {
  fig_circuit : string;
  fig_min_value : int;
  fig_histogram : (int * int) list;
}

let figure2_data t =
  match load_ck t "figure2" with
  | Some (d : figure2_data) -> Some (Ok d)
  | None -> (
    match hardest_entry t with
    | None -> None
    | Some e -> (
      match analysis_result t e with
      | Error failure -> Some (Error (e.Registry.name, failure))
      | Ok a ->
        let has_100 =
          Array.exists
            (fun v -> v >= 100 && v <> Worst_case.unbounded)
            (Worst_case.distribution a.Analysis.worst)
        in
        let min_value = if has_100 then 100 else 11 in
        let d =
          {
            fig_circuit = e.Registry.name;
            fig_min_value = min_value;
            fig_histogram =
              Worst_case.histogram a.Analysis.worst ~min_value;
          }
        in
        store_ck t "figure2" d;
        Some (Ok d)))

let run_figure2 t =
  match figure2_data t with
  | None -> "(no circuits in tier)\n"
  | Some (Error (circuit, failure)) ->
    Printf.sprintf "circuit: %s (%s)\n" circuit (Supervise.describe failure)
  | Some (Ok d) ->
    Printf.sprintf "circuit: %s\n%s" d.fig_circuit
      (Paper_tables.figure2_of_histogram d.fig_histogram
         ~min_value:d.fig_min_value)

let run_table4 t =
  let a = example_analysis t in
  let config =
    {
      Procedure1.seed = t.options.seed;
      set_count = 10;
      nmax = 2;
      mode = Procedure1.Definition1;
    }
  in
  let outcome =
    Procedure1.run ?domains:t.options.domains a.Analysis.table config
  in
  let g6_line =
    match find_bridge a.Analysis.table Example.g6 with
    | None -> ""
    | Some gj ->
      Printf.sprintf
        "g6 = %s, T(g6) = %s: d(1,g6) = %d, d(2,g6) = %d (of K = 10)\n"
        (Detection_table.untargeted_label a.Analysis.table gj)
        (Format.asprintf "%a" Bitvec.pp
           (Detection_table.untargeted_set a.Analysis.table gj))
        (Procedure1.detected_count outcome ~n:1 ~gj)
        (Procedure1.detected_count outcome ~n:2 ~gj)
  in
  Paper_tables.table4 outcome ^ g6_line

(* Tables 5 and 6: one supervised Procedure-1 unit per circuit, each
   checkpointed as its finished row ([None] records "no hard faults, not
   listed" so resume skips the analysis entirely). *)
type 'row item =
  | Item_row of 'row
  | Item_failed of string * Supervise.failure  (* circuit, reason *)

let per_circuit_rows t ~key_prefix ~label_prefix ~compute_row =
  Registry.of_tier t.options.tier
  |> List.filter_map (fun e ->
         let name = e.Registry.name in
         let key = key_prefix ^ "-" ^ name in
         match load_ck t key with
         | Some (cached : _ option) ->
           Option.map (fun row -> Item_row row) cached
         | None -> (
           match summary_result t e with
           | Error failure -> Some (Item_failed (name, failure))
           | Ok s when hard_count_of_summary s = 0 ->
             store_ck t key None;
             None
           | Ok _ -> (
             match analysis_result t e with
             | Error failure -> Some (Item_failed (name, failure))
             | Ok a -> (
               let hard = Analysis.hard_faults a ~nmax:10 in
               match
                 supervised t
                   ~label:(label_prefix ^ " " ^ name)
                   ~site:(key_prefix ^ ":" ^ name)
                   (fun cancel -> compute_row ~cancel ~name ~a ~hard)
               with
               | Ok row ->
                 store_ck t key (Some row);
                 Some (Item_row row)
               | Error failure -> Some (Item_failed (name, failure))))))

let split_items items =
  let rows =
    List.filter_map (function Item_row r -> Some r | _ -> None) items
  in
  let failed =
    List.filter_map
      (function Item_failed (c, f) -> Some (c, f) | _ -> None)
      items
  in
  (rows, failed)

let failed_footer failed =
  String.concat ""
    (List.map
       (fun (circuit, failure) ->
         Printf.sprintf "(%s: %s)\n" circuit (Supervise.describe failure))
       failed)

let table5_items t =
  per_circuit_rows t ~key_prefix:"table5" ~label_prefix:"procedure1"
    ~compute_row:(fun ~cancel ~name ~a ~hard ->
      let config =
        {
          Procedure1.seed = t.options.seed;
          set_count = t.options.k;
          nmax = 10;
          mode = Procedure1.Definition1;
        }
      in
      let outcome =
        timed t
          (Printf.sprintf "procedure1 %s" name)
          (fun () ->
            Procedure1.run ~cancel ?domains:t.options.domains
              ~report_faults:hard a.Analysis.table config)
      in
      {
        Paper_tables.circuit = name;
        hard_faults = Array.length hard;
        row = Average_case.summarize outcome ~n:10;
      })

let run_table5 t =
  let rows, failed = split_items (table5_items t) in
  (match rows with
  | [] -> "(no circuits with nmin >= 11 faults)\n"
  | rows -> Paper_tables.table5 ~nmax:10 rows)
  ^ failed_footer failed

let table6_items t =
  per_circuit_rows t ~key_prefix:"table6" ~label_prefix:"procedure1-def2"
    ~compute_row:(fun ~cancel ~name ~a ~hard ->
      let run mode label =
        timed t
          (Printf.sprintf "procedure1 %s (%s)" name label)
          (fun () ->
            Procedure1.run ~cancel ?domains:t.options.domains
              ~report_faults:hard a.Analysis.table
              {
                Procedure1.seed = t.options.seed;
                set_count = t.options.k2;
                nmax = 10;
                mode;
              })
      in
      let def1 = run Procedure1.Definition1 "def1" in
      let def2 = run Procedure1.Definition2 "def2" in
      ( name,
        Array.length hard,
        Average_case.summarize def1 ~n:10,
        Average_case.summarize def2 ~n:10 ))

let run_table6 t =
  let rows, failed = split_items (table6_items t) in
  (match rows with
  | [] -> "(no circuits with nmin >= 11 faults)\n"
  | rows -> Paper_tables.table6 ~nmax:10 rows)
  ^ failed_footer failed

let write_csv t ~name content =
  match t.options.csv_dir with
  | None -> ()
  | Some dir ->
    Checkpoint.mkdir_recursive dir;
    let path = Filename.concat dir name in
    Checkpoint.write_atomic ~path content;
    if not t.options.quiet then Printf.printf "[wrote %s]\n%!" path

(* A finished section (text plus optional CSV) is persisted whole, but
   only when the run is failure-free so far: a section containing
   (crashed)/(timed out) rows must be rebuilt — and its circuits
   retried — by the resumed run. *)
let cached_section t ~key f =
  match load_ck t key with
  | Some (section : string * (string * string) option) -> section
  | None ->
    let section = f () in
    if t.failures = [] then store_ck t key section;
    section

(* The --metrics report: per-supervised-unit counter deltas (only the
   counters the unit moved), the process-wide totals, and — from the
   in-memory sink — the aggregated span profile. *)
let print_metrics t =
  print_string "== Telemetry ==\n\n";
  List.iter
    (fun (label, delta) ->
      Printf.printf "%s:\n" label;
      if delta = [] then print_string "  (no counter activity)\n"
      else
        List.iter (fun (name, v) -> Printf.printf "  %-28s %d\n" name v) delta)
    (unit_metrics t);
  print_string "totals:\n";
  List.iter
    (fun (name, v) -> Printf.printf "  %-28s %d\n" name v)
    (Telemetry.counters ());
  Option.iter
    (fun sink -> Printf.printf "\n%s" (Telemetry.Memory.render sink))
    t.memory_sink;
  flush stdout

let run_all t =
  let wants what = t.options.only = "all" || t.options.only = what in
  let emit title (text, csv) =
    Printf.printf "== %s ==\n\n%s\n%!" title text;
    Option.iter (fun (name, content) -> write_csv t ~name content) csv
  in
  if wants "table1" then
    emit "Table 1 (worked example, Figure 1 circuit)"
      (cached_section t ~key:"section-table1" (fun () ->
           (run_table1 t, None)));
  if wants "table4" then
    emit "Table 4 (K = 10 random test sets for the example circuit)"
      (cached_section t ~key:"section-table4" (fun () ->
           (run_table4 t, None)));
  if wants "table2" then
    emit "Table 2 (worst-case percentages, small n)"
      (cached_section t ~key:"section-table2" (fun () ->
           (run_table2 t, Some ("table2.csv", table2_csv t))));
  if wants "table3" then
    emit "Table 3 (worst-case counts, large n)"
      (cached_section t ~key:"section-table3" (fun () ->
           (run_table3 t, Some ("table3.csv", table3_csv t))));
  if wants "figure2" then
    emit "Figure 2 (distribution of nmin for the hardest circuit)"
      (cached_section t ~key:"section-figure2" (fun () ->
           ( run_figure2 t,
             match figure2_data t with
             | Some (Ok d) ->
               Some
                 ( "figure2.csv",
                   Paper_tables.figure2_csv_of_histogram d.fig_histogram )
             | Some (Error _) | None -> None )));
  if wants "table5" then
    emit
      (Printf.sprintf "Table 5 (average-case probabilities, K = %d)"
         t.options.k)
      (cached_section t ~key:"section-table5" (fun () ->
           let rows, failed = split_items (table5_items t) in
           let text =
             (match rows with
             | [] -> "(no circuits with nmin >= 11 faults)\n"
             | rows -> Paper_tables.table5 ~nmax:10 rows)
             ^ failed_footer failed
           in
           let csv =
             if rows = [] then None
             else Some ("table5.csv", Paper_tables.table5_csv rows)
           in
           (text, csv)));
  if wants "table6" then
    emit
      (Printf.sprintf "Table 6 (Definition 1 vs Definition 2, K = %d)"
         t.options.k2)
      (cached_section t ~key:"section-table6" (fun () ->
           let rows, failed = split_items (table6_items t) in
           let text =
             (match rows with
             | [] -> "(no circuits with nmin >= 11 faults)\n"
             | rows -> Paper_tables.table6 ~nmax:10 rows)
             ^ failed_footer failed
           in
           let csv =
             if rows = [] then None
             else Some ("table6.csv", Paper_tables.table6_csv rows)
           in
           (text, csv)));
  if t.options.metrics then print_metrics t;
  finish t;
  if failures t <> [] then begin
    Printf.eprintf "%d supervised unit(s) failed:\n" (List.length (failures t));
    List.iter
      (fun (label, failure) ->
        Printf.eprintf "  %s: %s\n" label (Supervise.describe failure))
      (failures t);
    flush stderr
  end
