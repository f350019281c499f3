(** The [ndetect] command-line grammar for the analysis subcommands.

    Each flag is defined once, as a cmdliner term, with its value check
    in the term's converter (integer >= 1, positive seconds, a
    probability strictly inside (0, 1), a tier, backend, strategy,
    section or injection-spec name). The composite terms below build
    the typed values the subcommands run directly — nothing is turned
    back into an argument list:

    - [analyze], [average] and [client] build an {!Api.Request.t} and
      pass it through {!Api.Request.validate}, the check the wire
      decoder also runs;
    - [reproduce] builds {!Driver.options};
    - [campaign] builds the campaign parameters and coordinator
      settings.

    A malformed value, an unknown flag and a contradictory combination
    are all cmdliner usage errors (a parse or term error), which
    [ndetect] exits with status 2. *)

open Cmdliner

val circuit : string Term.t
(** The required positional [CIRCUIT]: a suite name or a netlist file. *)

val scheme : Ndetect_synth.Encode.scheme Term.t
(** [--encoding SCHEME], default binary. *)

val seed : int Term.t
(** [--seed N], default 1. *)

val analyze : Api.Request.t Term.t
(** [CIRCUIT], [--encoding], [--timeout], [--table-cache], [--domains],
    [--kernel-backend], [--sim-strategy] and the sampling flags
    [--samples], [--strata], [--confidence]: a [Worst] request. *)

val average : Api.Request.t Term.t
(** [CIRCUIT], [--encoding], [-k]/[--sets], [--nmax], [--def2],
    [--seed], [--timeout], [--table-cache], [--domains] and the
    sampling flags: an [Average] request with [k] sets, or with
    [--def2] an [Average_def2] request with [k2] sets. *)

val client : Api.Request.t option Term.t
(** The optional positional [CIRCUIT], [--sections], [-k], [--k2],
    [--nmax], [--seed], [--deadline], [--domains] and the sampling
    flags; [None] without a [CIRCUIT]. *)

val reproduce : Driver.options Term.t
(** Exactly the flags the driver honours: [--tier], [-k], [--k2],
    [--seed], [--only], [--quiet], [--csv], [--checkpoint], [--resume]
    (requires [--checkpoint]), [--timeout-per-circuit], [--inject],
    [--domains], [--table-cache], [--trace], [--metrics],
    [--kernel-backend] and [--sim-strategy]. *)

(** The [ndetect campaign] settings: the arguments of
    [Ndetect_shard.Spec.make_campaign] and the coordinator's. *)
type campaign = {
  tier : Ndetect_suite.Registry.tier;
  set_count : int;
  seed : int;
  nmax : int;
  fault_block : int;
  set_chunk : int option;  (** [None]: K/8. *)
  circuits : string list option;  (** [None]: the whole tier. *)
  universe : Api.Request.universe;
  workers : int;
  lease_secs : float option;  (** [None]: the worker default. *)
  max_unit_retries : int;
  chaos : bool;  (** Only with [workers >= 2]. *)
  ledger : string;
  inject : string option;
  quiet : bool;
  max_wall_secs : float option;
}

val campaign : campaign Term.t

val argv : string array -> string array
(** Rewrite the historical ["--k"] spelling to ["-k"]: cmdliner spells
    one-letter options with a single dash and would otherwise read
    ["--k"] as an abbreviation of ["--k2"]. Apply to the command line
    before evaluating any of the terms above. *)
