(** Pessimistic three-valued simulation. A partially specified test
    detects a fault [f] iff, under 3-valued simulation of both the
    fault-free and the faulty circuit, some primary output has a binary
    value in both and the values differ — Definition 2 asks this of the
    test [tij] specified only where two tests agree. The scalar
    evaluators serve PODEM; the two-rail word evaluator serves
    Definition 2. *)

module Ternary = Ndetect_logic.Ternary
module Word = Ndetect_logic.Word
module Netlist = Ndetect_circuit.Netlist
module Stuck = Ndetect_faults.Stuck

val eval : Netlist.t -> Ternary.t array -> Ternary.t array
(** Fault-free ternary values of all nodes. *)

val eval_with_stuck : Netlist.t -> Stuck.t -> Ternary.t array -> Ternary.t array

val detects_stuck : Netlist.t -> Stuck.t -> Ternary.t array -> bool
(** Whether the (partially specified) test definitely detects the fault. *)

(** {2 Two-rail word-parallel evaluation}

    One word carries up to {!Word.width} partially
    specified tests, one per lane, as two masks per node: the lanes where
    the node may be 0 and the lanes where it may be 1 (X sets both).
    Kleene gates become bitwise operations on these rails, so a single
    pass gives the same verdict as {!detects_stuck} for every lane. *)

type rails
(** Scratch rails for one netlist: the fault-free and the faulty value of
    every node. Mutable; not for sharing across domains. *)

val rails : Netlist.t -> rails

val set_input : rails -> int -> zero:Word.t -> one:Word.t -> unit
(** [set_input r i ~zero ~one] sets primary input [i]'s lanes: [zero]
    where it may be 0, [one] where it may be 1. Every live lane must be
    set in at least one rail. *)

type stuck_words
(** The precomputed evaluation schedule of one stuck-at fault. *)

val stuck_words : Netlist.t -> Stuck.t -> stuck_words

val detects_stuck_words : stuck_words -> rails -> live:Word.t -> Word.t
(** The lanes (within [live]) whose test, as set on the inputs of
    [rails], detects the fault: some primary output is binary in both
    the fault-free and the faulty circuit, with different values. Lane
    by lane the same verdict as {!detects_stuck}. Only the fanin support
    of the outputs the fault reaches is evaluated, without allocating.
    Raises [Invalid_argument] when [rails] belong to a netlist of
    another size. *)
