module Ternary = Ndetect_logic.Ternary
module Word = Ndetect_logic.Word
module Gate = Ndetect_circuit.Gate
module Line = Ndetect_circuit.Line
module Netlist = Ndetect_circuit.Netlist
module Stuck = Ndetect_faults.Stuck

let eval_general net ~stem_override ~pin_override assignment =
  let pi = Netlist.input_count net in
  if Array.length assignment <> pi then
    invalid_arg "Ternary_sim.eval: arity mismatch";
  let values = Array.make (Netlist.node_count net) Ternary.X in
  Array.iter
    (fun id ->
      let raw =
        match Netlist.kind net id with
        | Gate.Input -> assignment.(id)
        | kind ->
          let fanins = Netlist.fanins net id in
          Gate.eval_ternary kind
            (Array.mapi
               (fun pin f ->
                 match pin_override ~gate:id ~pin with
                 | Some v -> v
                 | None -> values.(f))
               fanins)
      in
      values.(id) <-
        (match stem_override ~node:id with Some v -> v | None -> raw))
    (Netlist.topo_order net);
  values

let no_stem ~node:_ = None
let no_pin ~gate:_ ~pin:_ = None

let eval net assignment =
  eval_general net ~stem_override:no_stem ~pin_override:no_pin assignment

let eval_with_stuck net fault assignment =
  let forced = Ternary.of_bool fault.Stuck.value in
  match fault.Stuck.line with
  | Line.Stem n ->
    eval_general net
      ~stem_override:(fun ~node -> if node = n then Some forced else None)
      ~pin_override:no_pin assignment
  | Line.Branch { gate; pin } ->
    eval_general net ~stem_override:no_stem
      ~pin_override:(fun ~gate:g ~pin:p ->
        if g = gate && p = pin then Some forced else None)
      assignment

let detects_stuck net fault assignment =
  let good = eval net assignment in
  let faulty = eval_with_stuck net fault assignment in
  Array.exists
    (fun o ->
      match Ternary.to_bool_opt good.(o), Ternary.to_bool_opt faulty.(o) with
      | Some g, Some f -> not (Bool.equal g f)
      | None, (Some _ | None) | Some _, None -> false)
    (Netlist.outputs net)

(* Two-rail word-parallel evaluation. Node [n]'s value in lane [j] is
   the pair of bits [j] of [zero.(n)] ("may be 0") and [one.(n)] ("may
   be 1"): 0 = (1, 0), 1 = (0, 1), X = (1, 1). Kleene gates are then
   plain bitwise operations on the rails, so one pass answers a whole
   word of partially specified tests.

   The workspace holds both circuits in one pair of arrays: fault-free
   values at [0 .. N-1], faulty values at [N .. 2N-1], and the forced
   value of a branch fault at slot [2N]. A schedule's fanin indices are
   resolved to the right half when it is built, so evaluation never
   branches on cone membership. *)
type rails = { zero : Word.t array; one : Word.t array }

let rails net =
  let size = (2 * Netlist.node_count net) + 1 in
  { zero = Array.make size Word.zeroes; one = Array.make size Word.zeroes }

let set_input r i ~zero ~one =
  r.zero.(i) <- zero;
  r.one.(i) <- one

(* A gate list in evaluation order: gate [i] has kind [kinds.(i)],
   writes slot [dst.(i)] and reads slots [flat.(offsets.(i)) ..
   flat.(offsets.(i + 1)) - 1]. Every slot is below [2N + 1], and
   [flat] ends with a spare slot-0 entry, so the evaluator may read the
   first fanin of every gate (constants included) without bounds
   checks. *)
type sched = {
  dst : int array;
  kinds : Gate.kind array;
  inverting : bool array;  (* swap the rails on the way out *)
  offsets : int array;
  flat : int array;
}

let sched_of net ~dst ~slot ids =
  let offsets = Array.make (Array.length ids + 1) 0 in
  Array.iteri
    (fun i id ->
      offsets.(i + 1) <- offsets.(i) + Array.length (Netlist.fanins net id))
    ids;
  let flat = Array.make (offsets.(Array.length ids) + 1) 0 in
  Array.iteri
    (fun i id ->
      Array.iteri
        (fun pin f -> flat.(offsets.(i) + pin) <- slot ~gate:id ~pin f)
        (Netlist.fanins net id))
    ids;
  let kinds = Array.map (Netlist.kind net) ids in
  {
    dst = Array.map dst ids;
    kinds;
    inverting = Array.map Gate.inversion kinds;
    offsets;
    flat;
  }

(* AND: may be 0 if any input may be, may be 1 if all may be; OR is the
   dual; XOR folds pairwise; the inverting kinds then swap the rails. *)
let eval_sched s r ~live =
  let z = r.zero and o = r.one in
  let flat = s.flat and offsets = s.offsets in
  for i = 0 to Array.length s.dst - 1 do
    let lo = Array.unsafe_get offsets i in
    let hi = Array.unsafe_get offsets (i + 1) - 1 in
    let f0 = Array.unsafe_get flat lo in
    let zz = ref (Array.unsafe_get z f0) and oo = ref (Array.unsafe_get o f0) in
    (match Array.unsafe_get s.kinds i with
    | Gate.And | Gate.Nand ->
      for p = lo + 1 to hi do
        let f = Array.unsafe_get flat p in
        zz := !zz lor Array.unsafe_get z f;
        oo := !oo land Array.unsafe_get o f
      done
    | Gate.Or | Gate.Nor ->
      for p = lo + 1 to hi do
        let f = Array.unsafe_get flat p in
        zz := !zz land Array.unsafe_get z f;
        oo := !oo lor Array.unsafe_get o f
      done
    | Gate.Xor | Gate.Xnor ->
      for p = lo + 1 to hi do
        let f = Array.unsafe_get flat p in
        let bz = Array.unsafe_get z f and bo = Array.unsafe_get o f in
        let z' = (!zz land bz) lor (!oo land bo) in
        oo := (!zz land bo) lor (!oo land bz);
        zz := z'
      done
    | Gate.Buf | Gate.Not -> ()
    | Gate.Const0 ->
      zz := live;
      oo := Word.zeroes
    | Gate.Const1 ->
      zz := Word.zeroes;
      oo := live
    | Gate.Input -> invalid_arg "Ternary_sim: input in a gate schedule");
    let d = Array.unsafe_get s.dst i in
    if Array.unsafe_get s.inverting i then begin
      Array.unsafe_set z d !oo;
      Array.unsafe_set o d !zz
    end
    else begin
      Array.unsafe_set z d !zz;
      Array.unsafe_set o d !oo
    end
  done

(* Everything a stuck fault's word query touches. The fault-free pass
   covers only the fanin support of the outputs the fault can reach,
   and the faulty pass only the part of the fault's fanout cone inside
   that support: nothing outside either can change a verdict. *)
type stuck_words = {
  good : sched;
  faulty : sched;  (* for a branch fault, starts with the consuming gate *)
  forced_slot : int;  (* faulty stem slot, or the branch-pin slot *)
  forced_one : bool;
  outputs : int array;  (* reachable primary outputs *)
  half : int;  (* N: offset of the faulty half *)
}

let stuck_words net fault =
  let n = Netlist.node_count net in
  let seed =
    match fault.Stuck.line with
    | Line.Stem s -> s
    | Line.Branch { gate; _ } -> gate
  in
  let in_cone = Netlist.transitive_fanout net seed in
  let outputs =
    Array.of_seq
      (Seq.filter (fun o -> in_cone.(o)) (Array.to_seq (Netlist.outputs net)))
  in
  let support = Array.make n false in
  Array.iter (fun o -> support.(o) <- true) outputs;
  let topo = Netlist.topo_order net in
  for i = Array.length topo - 1 downto 0 do
    let id = topo.(i) in
    if support.(id) then
      Array.iter (fun f -> support.(f) <- true) (Netlist.fanins net id)
  done;
  let gates keep =
    Array.of_seq
      (Seq.filter
         (fun id -> support.(id) && keep id && Netlist.kind net id <> Gate.Input)
         (Array.to_seq topo))
  in
  let good =
    sched_of net (gates (fun _ -> true)) ~dst:Fun.id
      ~slot:(fun ~gate:_ ~pin:_ f -> f)
  in
  let faulty_ids, forced_slot, slot =
    match fault.Stuck.line with
    | Line.Stem s ->
      ( gates (fun id -> in_cone.(id) && id <> s),
        n + s,
        fun ~gate:_ ~pin:_ f -> if in_cone.(f) then n + f else f )
    | Line.Branch { gate = g; pin = p } ->
      ( gates (fun id -> in_cone.(id)),
        2 * n,
        fun ~gate ~pin f ->
          if gate = g && pin = p then 2 * n
          else if in_cone.(f) then n + f
          else f )
  in
  {
    good;
    faulty = sched_of net faulty_ids ~dst:(fun id -> n + id) ~slot;
    forced_slot;
    forced_one = fault.Stuck.value;
    outputs;
    half = n;
  }

let detects_stuck_words w r ~live =
  if Array.length r.zero <> (2 * w.half) + 1 then
    invalid_arg "Ternary_sim.detects_stuck_words: rails of another netlist";
  eval_sched w.good r ~live;
  r.zero.(w.forced_slot) <- (if w.forced_one then Word.zeroes else live);
  r.one.(w.forced_slot) <- (if w.forced_one then live else Word.zeroes);
  eval_sched w.faulty r ~live;
  let acc = ref Word.zeroes in
  for k = 0 to Array.length w.outputs - 1 do
    let o = w.outputs.(k) in
    let gz = r.zero.(o) and go = r.one.(o) in
    let fz = r.zero.(w.half + o) and fo = r.one.(w.half + o) in
    (* Both binary (exactly one rail each) and different values. *)
    acc := !acc lor ((gz lxor go) land (fz lxor fo) land (go lxor fo))
  done;
  !acc land live
