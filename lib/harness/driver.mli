(** The reproduction driver behind [ndetect reproduce]: regenerates
    every table and figure of the paper on the embedded benchmark
    suite. Its options are built from the command line by
    {!Cli.reproduce}.

    Every per-circuit computation runs as one supervised unit
    ({!Ndetect_util.Supervise.run}): it gets its own cancellation
    deadline from [--timeout-per-circuit], passes through the
    deterministic fault-injection sites [analyze:CIRCUIT],
    [table5:CIRCUIT] and [table6:CIRCUIT], and on failure is recorded in
    {!failures} while the tables render an explicit [(timed out)] /
    [(crashed: ...)] row instead of aborting the run. With
    [--checkpoint DIR] each finished unit is persisted
    ({!Checkpoint.store}); [--resume] reads those entries back so an
    interrupted run restarts where it left off and retries only the
    failed or missing circuits. *)

module Registry = Ndetect_suite.Registry
module Analysis = Ndetect_core.Analysis
module Supervise = Ndetect_util.Supervise
module Paper_tables = Ndetect_report.Paper_tables

type options = {
  tier : Registry.tier;
  k : int;  (** Procedure 1 test sets for Table 5. *)
  k2 : int;  (** Test sets per definition for Table 6. *)
  seed : int;
  only : string;  (** One of {!sections}. *)
  quiet : bool;  (** Suppress per-step timing lines. *)
  csv_dir : string option;
      (** When set, [run_all] also writes table2/3/5/6.csv and
          figure2.csv into this directory. *)
  checkpoint_dir : string option;
      (** When set, persist each finished unit of work here. *)
  resume : bool;
      (** Reload finished units from [checkpoint_dir] instead of
          recomputing them. Requires [checkpoint_dir]. *)
  timeout_per_circuit : float option;
      (** Wall-clock budget (seconds) for each supervised unit. *)
  inject : string option;
      (** Raw fault-injection spec, as accepted by
          {!Supervise.parse_injection_spec} (self-test only). *)
  domains : int option;
      (** Domain count for the parallel Procedure-1 construction
          (default: {!Ndetect_util.Parallel.default_domains}). Output is
          bit-identical for every value, so this is a pure throughput
          knob and is deliberately excluded from the checkpoint
          stamp. *)
  table_cache : string option;
      (** When set, detection tables are loaded from / persisted to this
          directory ({!Table_cache}); a warm run performs no fault
          simulation. Tables are keyed by netlist content, so — like
          [domains] — the cache never changes any result and is excluded
          from the checkpoint stamp. *)
  trace : string option;
      (** When set, every {!Ndetect_util.Telemetry} span of the run is
          streamed to this file as JSONL (schema ["ndetect-trace/1"]).
          Pure observability: never changes any result. *)
  metrics : bool;
      (** Print a telemetry report after [run_all]: per-supervised-unit
          counter deltas, process-wide totals and the aggregated span
          profile. Pure observability, like [trace]. *)
  kernel_backend : string option;
      (** {!create} selects the process-wide intersection kernel
          ({!Ndetect_util.Kernel.select}) before any analysis runs: this
          name, or {!Ndetect_util.Kernel.startup_name} (the
          [NDETECT_KERNEL] environment default) when unset.
          Both backends are bit-identical, so — like [domains] — this is
          a pure throughput knob, excluded from checkpoint stamps and
          cache keys. The selection is visible as the
          ["kernel.backend"] gauge in [--metrics] and traces. *)
  sim_strategy : string option;
      (** {!create} selects the process-wide fault-simulation strategy
          ({!Ndetect_sim.Strategy.select}) before any analysis runs:
          this name, or {!Ndetect_sim.Strategy.startup_name} (the
          [NDETECT_SIM] environment default, ["stem"]) when unset. Both strategies produce bit-identical detection
          tables, so this is a pure throughput knob like
          [kernel_backend], excluded from checkpoint stamps and cache
          keys. Visible as the ["sim.strategy"] gauge in [--metrics]
          and traces. *)
}

val sections : string list
(** The [only] values: ["table1".."table6"], ["figure2"] and ["all"]. *)

val default_options : options
(** Medium tier, [k = 1000], [k2 = 200], [seed = 1], everything; no
    checkpointing, no timeout, no injection, no telemetry. *)

(** Smart constructor: build an {!options} value by overriding only the
    fields you care about, robust to future field additions (unlike a
    record literal, which every new field breaks). *)
module Options : sig
  type t = options

  val make :
    ?tier:Registry.tier ->
    ?k:int ->
    ?k2:int ->
    ?seed:int ->
    ?only:string ->
    ?quiet:bool ->
    ?csv_dir:string ->
    ?checkpoint_dir:string ->
    ?resume:bool ->
    ?timeout_per_circuit:float ->
    ?inject:string ->
    ?domains:int ->
    ?table_cache:string ->
    ?trace:string ->
    ?metrics:bool ->
    ?kernel_backend:string ->
    ?sim_strategy:string ->
    unit ->
    t
  (** Every omitted argument takes its {!default_options} value. *)
end

type t
(** A driver instance caching per-circuit results across tables. *)

val create : options -> t
(** Also installs the [inject] plan ({!Supervise.set_injection}) and
    opens the checkpoint directory, stamped with the options' seed,
    tier, [k] and [k2]. *)

val failures : t -> (string * Supervise.failure) list
(** Supervised units that failed so far, in execution order, labelled
    ["analyze CIRCUIT"] / ["procedure1 CIRCUIT"] / .... Empty after a
    fully clean run; [ndetect reproduce] exits 3 when non-empty. *)

val unit_metrics : t -> (string * (string * int) list) list
(** With [metrics] set: per supervised unit (execution order), the
    telemetry counters that unit moved ({!Ndetect_util.Telemetry.delta}
    of the registry across the unit). Empty otherwise. *)

val finish : t -> unit
(** Detach the driver's telemetry sinks: flushes and closes the [trace]
    JSONL file (writing its final counters record) and releases the
    in-memory profile. Idempotent; [run_all] calls it. Only needed
    directly when using the per-table entry points below. *)

val analysis_of : t -> Registry.entry -> Analysis.t
(** Analyze a suite circuit (cached). Raises [Failure] if the circuit's
    supervised analysis failed; prefer the table renderers, which
    degrade to failure rows instead. *)

val example_analysis : t -> Analysis.t
(** The Figure 1 worked example (cached, not supervised). *)

val run_table1 : t -> string
val run_table2 : t -> string
val run_table3 : t -> string
val run_figure2 : t -> string
val run_table4 : t -> string
val run_table5 : t -> string
val run_table6 : t -> string

val table2_csv : t -> string
val table3_csv : t -> string
(** CSV forms of tables 2/3 including any failure rows — what [run_all]
    writes under [--csv], exposed for resume-equivalence tests. *)

val run_all : t -> unit
(** Print every selected artifact to stdout, with section headers;
    write CSVs when [csv_dir] is set; summarize failed units on stderr
    last. Finished failure-free sections are checkpointed whole, so a
    resumed run re-prints them without recomputation. *)
