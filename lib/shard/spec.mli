(** Deterministic decomposition of a campaign into self-contained work
    units.

    A campaign fixes the suite tier, the Procedure-1 parameters and the
    decomposition granularity; from those alone every process — the
    coordinator, any worker, a later resumed run — derives the same
    unit list, the same per-unit RNG streams and the same
    {!fingerprint}s, so results can be exchanged through the ledger
    without any shared in-memory state.

    Units come in three generations, each computable from the results
    of the previous one:

    - {b plan} (one per circuit): build (or load from the shared table
      cache) the circuit's detection table and report its fault counts;
    - {b worst} (one per circuit × fault block): [nmin] for a slice of
      the untargeted faults ({!Ndetect_core.Worst_case.compute_slice});
    - {b avg} (one per circuit-with-hard-faults × K-chunk): the
      detection matrix of a slice of Procedure 1's K test sets
      ({!Ndetect_core.Procedure1.run_slice}), reported over the hard
      faults carried in the unit spec.

    Sampled-universe campaigns ([samples > 0]) replace the worst and
    avg generations with {b sample} units (one per circuit × stratum
    range): each simulates its strata's random vectors and returns the
    detection-set slice ({!Ndetect_estimate.Estimate.stratum_slice});
    the merge concatenates the slices and scans them once, so the
    campaign output is bit-identical to a single-process
    [ndetect analyze --samples] run.

    Every computation is a pure function of the spec, so re-executing a
    unit anywhere yields a bit-identical result — the property the
    coordinator's speculative re-execution and the chaos acceptance
    test rely on. *)

type campaign = {
  format_version : int;  (** {!format_version}. *)
  tier : string;
  circuits : string list;  (** Registry names, in enumeration order. *)
  seed : int;
  set_count : int;  (** Procedure 1's K. *)
  nmax : int;
  fault_block : int;  (** Untargeted faults per worst unit; >= 1. *)
  set_chunk : int;  (** Test sets per avg unit; >= 1. *)
  samples : int;
      (** Sampled-universe mode when non-zero; [0] is exhaustive. *)
  strata : int;  (** Stratum count when sampled, else [0]. *)
  confidence : float;  (** Interval confidence when sampled, else [0.]. *)
}

val format_version : int
(** Bumping it invalidates every ledger record. *)

val estimate_spec : campaign -> Ndetect_estimate.Estimate.Spec.t option
(** [None] for exhaustive campaigns ([samples = 0]). *)

val make_campaign :
  ?fault_block:int ->
  ?set_chunk:int ->
  ?nmax:int ->
  ?circuits:string list ->
  ?samples:int ->
  ?strata:int ->
  ?confidence:float ->
  tier:Ndetect_suite.Registry.tier ->
  seed:int ->
  set_count:int ->
  unit ->
  campaign
(** Campaign over all suite circuits of [tier] (and cheaper), in
    registry order; [circuits] restricts to a subset (order-insensitive,
    [Invalid_argument] for names outside the tier). [Invalid_argument]
    too when [fault_block], [set_count], [set_chunk] or [nmax] is
    below 1. Defaults:
    [fault_block = 256], [set_chunk = max 1 (set_count / 8)],
    [nmax = 10]. Passing [samples] makes the campaign sampled-universe
    ([strata]/[confidence] are validated through
    {!Ndetect_estimate.Estimate.Spec.make} and are [Invalid_argument]
    without [samples]). *)

val stamp : campaign -> string
(** One-line fingerprint of every result-affecting campaign parameter;
    part of each unit's {!fingerprint}. *)

type kind =
  | Plan of { circuit : string }
  | Worst of { circuit : string; lo : int; hi : int }
      (** nmin for untargeted faults [lo, hi). *)
  | Avg of { circuit : string; lo : int; hi : int; hard : int array }
      (** Detection matrix of test sets [lo, hi) over the [hard]
          faults (untargeted indices with nmin > nmax, in ascending
          order, computed from the merged worst generation). *)
  | Sample of { circuit : string; lo : int; hi : int }
      (** Sampled campaigns only: detection-set slice for strata
          [lo, hi). *)

type t = { id : string; kind : kind }
(** [id] is unique within a campaign and filename-safe
    (["plan-mc"], ["worst-mc-0-256"], ["avg-mc-16-32"]). *)

val circuit_of : t -> string

val fingerprint : campaign -> t -> string
(** MD5 hex over the campaign {!stamp} and the full unit spec. Stamped
    into every ledger record about the unit, so a record can never be
    mistaken for another unit's — or for the same unit under different
    campaign parameters. *)

val plan_units : campaign -> t list
(** Generation 0, one unit per circuit, in campaign order. *)

val worst_units : campaign -> circuit:string -> untargeted:int -> t list
(** Generation 1 units for one circuit, given its plan result. *)

val avg_units : campaign -> circuit:string -> hard:int array -> t list
(** Generation 2 units for one circuit; [[]] when [hard] is empty. *)

val sample_units : campaign -> circuit:string -> pi:int -> t list
(** Sampled campaigns: one unit per stratum range for the circuit
    ([pi] from its plan result fixes the effective stratum count,
    {!Ndetect_estimate.Estimate.effective_strata}). [[]] for exhaustive
    campaigns. *)

type plan_info = {
  untargeted : int;
  target_faults : int;
  pi : int;  (** Primary-input count; sizes the sampled universe. *)
}

type result =
  | Plan_result of plan_info
  | Worst_result of int array  (** nmin for the unit's range. *)
  | Avg_result of int array array
      (** [d.(n-1).(pos)] over the unit's sets, positions indexing the
          spec's [hard] array. *)
  | Sample_result of Ndetect_estimate.Estimate.slice
      (** Detection sets over the unit's strata samples. *)

val compute :
  ?cancel:Ndetect_util.Cancel.token ->
  tables_dir:string ->
  campaign ->
  t ->
  result
(** Execute one unit. The detection table is looked up in (and
    persisted to) [tables_dir] — a {!Ndetect_harness.Table_cache}
    directory shared by the whole campaign, so whichever process first
    needs a circuit's table builds it and every other unit gets a warm
    hit. Sampled campaigns never read or write that cache: their tables
    depend on the sample spec and seed and are cheap to rebuild. Passes
    the injection site ["unit:<id>"]
    ({!Ndetect_util.Supervise.inject}) before computing. Raises
    [Failure] for a circuit name the registry does not know, or for a
    [Sample] unit handed to an exhaustive campaign. *)
