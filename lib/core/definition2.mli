(** Definition 2 of the paper: two tests [ti], [tj] count as different
    detections of a fault [f] only if the partially specified test [tij]
    (specified where [ti] and [tj] agree) does {e not} detect [f] under
    three-valued simulation.

    Verdicts are computed word-parallel: one two-rail cone evaluation
    ({!Ndetect_sim.Ternary_sim.detects_stuck_words}) answers up to
    {!Ndetect_logic.Word.width} (candidate, chain member) questions at
    once. Nothing is cached between calls except each fault's evaluation
    schedule, so verdicts cost the same whatever was asked before. An
    instance owns mutable scratch rails: use one instance per domain.

    Work is counted in the {!Ndetect_util.Telemetry} registry:
    ["def2.words"] two-rail evaluations, ["def2.pairs"] the verdicts they
    produced. *)

module Detection_table := Detection_table

type t

val create : Detection_table.t -> t
(** Verdicts for the table's target faults, indexed as in the table. *)

val of_faults :
  Ndetect_circuit.Netlist.t -> Ndetect_faults.Stuck.t array -> t
(** Same, for an explicit fault list — usable without an exhaustive
    detection table, for any circuit whose vectors fit in
    {!Ndetect_logic.Word.width} bits. *)

val accepts : t -> fi:int -> chain:int list -> int array -> int -> int
(** [accepts t ~fi ~chain cands n] is the mask of lanes [j < n] whose
    candidate [cands.(j)] is different, for target fault [fi], from
    {e every} vector of [chain] (bit [j] set iff accepted). [n] is at
    most {!Ndetect_logic.Word.width}; lanes [>= n] are always clear. A
    candidate equal to a chain member is never accepted; with an empty
    chain every lane is. Raises [Invalid_argument] on a bad lane count
    or a vector outside the circuit's input space. *)

val different : t -> fi:int -> int -> int -> bool
(** [different t ~fi v1 v2]: whether vectors [v1] and [v2] are counted as
    two detections of target fault [fi] — {!accepts} with one lane and a
    one-member chain. Both must detect the fault for the question to be
    meaningful; the verdict is symmetric. Equal vectors are never
    different. *)

val chain_extend : t -> fi:int -> chain:int list -> int -> bool
(** Whether a vector is different from every vector of the chain — the
    one-lane {!accepts}, used by Procedure 1's incremental greedy count
    under Definition 2. *)

val count_greedy : t -> fi:int -> int list -> int * int list
(** [count_greedy t ~fi tests] scans the tests in order, keeping a vector
    iff it is different from all kept so far. Returns the count and the
    kept chain (in scan order). *)

val count_exact : t -> fi:int -> int list -> int
(** Maximum subset of pairwise-different tests (exact, exponential; for
    tests and small inputs only). The greedy count is a lower bound. *)
