(** Runtime-selected fault-simulation strategy.

    {!Fault_sim}'s batched entry points can compute the same detection
    sets two ways:

    - ["cone"] — one differential cone propagation per fault (per
      grouped (victim, aggressor) direction for bridges): the reference
      semantics, kept verbatim;
    - ["stem"] — one propagation per fanout-free-region {e stem}
      ({!Ndetect_circuit.Netlist.ffr_partition}), with every member
      fault's detection mask recovered by word-parallel critical path
      tracing inside the region.

    Both strategies produce bit-identical detection sets on every
    circuit — enforced by the qcheck property suite in
    [test/test_sim.ml], the [lib/check] differential campaign, and the
    byte-for-byte paper-table diff in [bin/dune] — so switching
    mid-process is always safe. Selection happens at module
    initialization from the [NDETECT_SIM] environment variable (default
    ["stem"]; unknown values are ignored so stale environments cannot
    break a run) and may be overridden once more by the driver's
    [--sim-strategy] flag before any analysis runs. *)

type t = Cone | Stem

val names : (string * t) list
(** Registration order; the position of the selected strategy in this
    list is the value of the ["sim.strategy"] telemetry gauge
    (0 = cone, 1 = stem). *)

val default_name : string
(** ["stem"] — the traced path is the default; [NDETECT_SIM=cone] or
    [--sim-strategy cone] selects the per-fault reference. *)

val env_var : string
(** ["NDETECT_SIM"], read once at module initialization. *)

val startup_name : string
(** The strategy selected at module initialization: [NDETECT_SIM] when
    it names a registered strategy, else {!default_name}. A request
    that names no strategy runs on this one, whatever an earlier
    request in the same process selected. *)

val name_of : t -> string

val select : string -> (unit, string) result
(** Switch the process-wide strategy by name. [Error] names the unknown
    strategy and lists the registered ones; the selection is unchanged
    on error. *)

val current : unit -> t
val current_name : unit -> string
