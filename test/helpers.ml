(* Shared test helpers: random circuit generation for property tests. *)

module Rng = Ndetect_util.Rng
module Gate = Ndetect_circuit.Gate
module Netlist = Ndetect_circuit.Netlist

let gate_kinds =
  [| Gate.Buf; Gate.Not; Gate.And; Gate.Nand; Gate.Or; Gate.Nor; Gate.Xor;
     Gate.Xnor |]

(* A random connected combinational circuit; delegates to the library's
   generator so tests exercise the public API. *)
let random_circuit ~seed ~inputs ~gates =
  Ndetect_suite.Random_circuit.generate ~seed ~inputs ~gates ()

let circuit_arbitrary =
  QCheck.make
    ~print:(fun (seed, inputs, gates) ->
      Printf.sprintf "seed=%d inputs=%d gates=%d" seed inputs gates)
    QCheck.Gen.(
      triple (int_bound 1_000_000) (int_range 2 6) (int_range 1 25))

let apply_circuit f (seed, inputs, gates) =
  f (random_circuit ~seed ~inputs ~gates)

(* Wrap a qcheck property as an alcotest case. Honors NDETECT_QCHECK_SEED
   so a failing seed printed by a CI run can be replayed exactly:
   NDETECT_QCHECK_SEED=1234 dune runtest. *)
let qcheck test =
  let rand =
    match Sys.getenv_opt "NDETECT_QCHECK_SEED" with
    | None -> None
    | Some s ->
      Option.map
        (fun n -> Random.State.make [| n |])
        (int_of_string_opt (String.trim s))
  in
  QCheck_alcotest.to_alcotest ?rand test

let contains_substring haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i =
    i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1))
  in
  go 0

(* Evaluate a command-line term on [args] exactly as [ndetect] would
   (including the "--k" spelling rewrite). As on the command line, a
   negative value needs the "--flag=-3" form: [Ok] the built value, or
   [Error] with cmdliner's error text (which names the flag). *)
let parse_cli term args =
  let open Cmdliner in
  let buf = Buffer.create 128 in
  let err = Format.formatter_of_buffer buf in
  (* One line per message, so substring checks never straddle a wrap. *)
  Format.pp_set_margin err 10_000;
  let result =
    Cmd.eval_value ~err ~help:err
      ~argv:(Ndetect_harness.Cli.argv (Array.of_list ("ndetect" :: args)))
      (Cmd.v (Cmd.info "ndetect") term)
  in
  Format.pp_print_flush err ();
  match result with
  | Ok (`Ok v) -> Ok v
  | Ok (`Help | `Version) -> Error "help or version requested"
  | Error _ -> Error (Buffer.contents buf)
