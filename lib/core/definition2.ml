module Netlist = Ndetect_circuit.Netlist
module Stuck = Ndetect_faults.Stuck
module Ternary_sim = Ndetect_sim.Ternary_sim
module Word = Ndetect_logic.Word
module Telemetry = Ndetect_util.Telemetry

type t = {
  net : Netlist.t;
  faults : Stuck.t array;
  schedules : Ternary_sim.stuck_words option array;  (* built on first use *)
  (* Scratch, owned by this instance: the rails, and per input the lanes
     of the vectors being laid out (candidates or chain members). *)
  rails : Ternary_sim.rails;
  bits : Word.t array;
  mutable words : int;  (* not yet added to the counters *)
  mutable pairs : int;
}

(* "def2.words" counts two-rail cone evaluations, "def2.pairs" the
   (candidate, chain member) verdicts they produced. Both are pure
   functions of the questions asked, so their totals are identical for
   every domain count. *)
let c_words = Telemetry.Counter.create "def2.words"
let c_pairs = Telemetry.Counter.create "def2.pairs"

let of_faults net faults =
  {
    net;
    faults;
    schedules = Array.make (Array.length faults) None;
    rails = Ternary_sim.rails net;
    bits = Array.make (Netlist.input_count net) Word.zeroes;
    words = 0;
    pairs = 0;
  }

let create table =
  of_faults
    (Detection_table.net table)
    (Array.init (Detection_table.target_count table)
       (Detection_table.target_fault table))

let schedule t fi =
  match t.schedules.(fi) with
  | Some w -> w
  | None ->
    let w = Ternary_sim.stuck_words t.net t.faults.(fi) in
    t.schedules.(fi) <- Some w;
    w

let check_vector pi v =
  if v < 0 || pi > Word.width || v lsr pi <> 0 then
    invalid_arg "Definition2: vector outside the input space"

let bit ~pi v i = (v lsr (pi - 1 - i)) land 1 = 1

(* Lay vector [v] out in lane [j]: bit [j] of [t.bits.(i)] is input [i]
   of [v]. *)
let set_lane t ~pi j v =
  check_vector pi v;
  for i = 0 to pi - 1 do
    if bit ~pi v i then t.bits.(i) <- t.bits.(i) lor (1 lsl j)
  done

(* One two-rail evaluation pairing every lane of [t.bits] (within
   [live]) with the vector [fixed]: returns the lanes that are different
   from [fixed]. A lane equal to [fixed] never is (its tij is the whole
   vector); elsewhere tij is X exactly where the two vectors disagree,
   and the lane is different iff tij does not detect the fault. *)
let different_lanes t w ~pi ~fixed ~live =
  let bits = t.bits in
  let eq = ref live in
  for i = 0 to pi - 1 do
    eq := !eq land (if bit ~pi fixed i then bits.(i) else lnot bits.(i))
  done;
  let m = live land lnot !eq in
  if m = 0 then 0
  else begin
    for i = 0 to pi - 1 do
      if bit ~pi fixed i then
        Ternary_sim.set_input t.rails i ~zero:(lnot bits.(i) land m) ~one:m
      else Ternary_sim.set_input t.rails i ~zero:m ~one:(bits.(i) land m)
    done;
    t.words <- t.words + 1;
    t.pairs <- t.pairs + Word.count m;
    m land lnot (Ternary_sim.detects_stuck_words w t.rails ~live:m)
  end

(* Lanes hold candidates, one evaluation per chain member: a word of
   candidates costs at most one evaluation per member, and stops once
   every candidate is rejected. *)
let candidate_lanes t w ~pi ~chain cands n =
  Array.fill t.bits 0 pi Word.zeroes;
  for j = 0 to n - 1 do
    set_lane t ~pi j cands.(j)
  done;
  let rec go mask = function
    | [] -> mask
    | s :: rest ->
      check_vector pi s;
      let mask = different_lanes t w ~pi ~fixed:s ~live:mask in
      if mask = 0 then 0 else go mask rest
  in
  go (Word.mask_low n) chain

(* Lanes hold chain members, one evaluation per candidate and word of
   members: the cheaper layout when there are fewer candidates than
   members, above all for the single candidate of [chain_extend]. *)
let member_lanes t w ~pi ~chain cands n =
  for j = 0 to n - 1 do
    check_vector pi cands.(j)
  done;
  let rec load len = function
    | s :: rest when len < Word.width ->
      set_lane t ~pi len s;
      load (len + 1) rest
    | rest -> (len, rest)
  in
  let rec words mask = function
    | [] -> mask
    | _ :: _ when mask = 0 -> 0
    | members ->
      Array.fill t.bits 0 pi Word.zeroes;
      let len, rest = load 0 members in
      let live = Word.mask_low len in
      let mask = ref mask in
      for j = 0 to n - 1 do
        if
          (!mask lsr j) land 1 = 1
          && different_lanes t w ~pi ~fixed:cands.(j) ~live <> live
        then mask := !mask land lnot (1 lsl j)
      done;
      words !mask rest
  in
  words (Word.mask_low n) chain

let accepts t ~fi ~chain cands n =
  if n < 0 || n > Word.width || n > Array.length cands then
    invalid_arg "Definition2.accepts: bad lane count";
  match chain with
  | [] -> Word.mask_low n
  | _ when n = 0 -> 0
  | _ ->
    let pi = Netlist.input_count t.net in
    let w = schedule t fi in
    let m = List.length chain in
    let mask =
      if n * ((m + Word.width - 1) / Word.width) < m then
        member_lanes t w ~pi ~chain cands n
      else candidate_lanes t w ~pi ~chain cands n
    in
    if t.words > 0 then begin
      Telemetry.Counter.add c_words t.words;
      Telemetry.Counter.add c_pairs t.pairs;
      t.words <- 0;
      t.pairs <- 0
    end;
    mask

let chain_extend t ~fi ~chain v = accepts t ~fi ~chain [| v |] 1 <> 0

let different t ~fi v1 v2 = v1 <> v2 && chain_extend t ~fi ~chain:[ v2 ] v1

let count_greedy t ~fi tests =
  let chain =
    List.fold_left
      (fun chain v ->
        if chain_extend t ~fi ~chain v then v :: chain else chain)
      [] tests
  in
  (List.length chain, List.rev chain)

let count_exact t ~fi tests =
  let arr = Array.of_list tests in
  let n = Array.length arr in
  (* Branch and bound over subsets; n stays tiny in tests. *)
  let rec go i chain best =
    if i >= n then max best (List.length chain)
    else
      let best = go (i + 1) chain best in
      if
        List.length chain + (n - i) > best
        && chain_extend t ~fi ~chain arr.(i)
      then go (i + 1) (arr.(i) :: chain) best
      else best
  in
  go 0 [] 0
