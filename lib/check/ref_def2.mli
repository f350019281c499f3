(** Independent Definition 2 oracle.

    Two tests [ti], [tj] are "sufficiently different" with respect to a
    fault [f] iff their common partial test [tij] (specified only where
    they agree) does {e not} detect [f] under pessimistic three-valued
    simulation. The optimized oracle ({!Ndetect_core.Definition2})
    answers a word of questions per two-rail evaluation restricted to
    the fault's cone and its outputs' fanin support; this one asks one
    question at a time, re-simulates the whole circuit in scalar
    three-valued logic on every query, and caches nothing. *)

module Netlist = Ndetect_circuit.Netlist
module Stuck = Ndetect_faults.Stuck

type t

val create : Netlist.t -> Stuck.t array -> t

val different : t -> fi:int -> int -> int -> bool
(** Definition 2 verdict for two universe vectors (false when equal). *)

val chain_extend : t -> fi:int -> chain:int list -> int -> bool
(** Whether [v] is pairwise different from every test in [chain]. *)
