(* Benchmark worker. perfbench/run.py generates a request schedule from
   the workload seed, writes it as JSON and hands it to one of these
   modes; the program under test only ever sees those requests.

     pb.exe ready  --schedule F
         decode the schedule and exit (the batch workloads' set-up).
     pb.exe batch  --schedule F --out R [--trace]
         one pass over the schedule through Api.run; with --trace, a
         replay of the same requests through each layer's public entry
         points instead, with spans.
     pb.exe warm   --socket P --schedule F
         send the schedule's warm-up requests to a daemon, one by one.
     pb.exe client --socket P --cache D --schedule F --out R [--trace]
         the serve-warm closed loop: one thread per connection stream,
         then an in-process Api.run replay of every distinct request
         against the daemon's cache directory, compared byte for byte.

   Results go to R as one JSON document; run.py turns them into
   metrics. Spans are recorded by this file around calls into the
   library, kept in memory and written with the result. *)

module Api = Ndetect_harness.Api
module Rpc = Ndetect_harness.Rpc
module Table_cache = Ndetect_harness.Table_cache
module Telemetry = Ndetect_util.Telemetry
module Stuck = Ndetect_faults.Stuck
module Bridge = Ndetect_faults.Bridge
module Good = Ndetect_sim.Good
module Fault_sim = Ndetect_sim.Fault_sim
module Detection_table = Ndetect_core.Detection_table
module Worst_case = Ndetect_core.Worst_case
module Analysis = Ndetect_core.Analysis
module Procedure1 = Ndetect_core.Procedure1
module Average_case = Ndetect_core.Average_case
module Estimate = Ndetect_estimate.Estimate
module Paper_tables = Ndetect_report.Paper_tables

let now = Unix.gettimeofday

let cpu () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* Peak resident set of this process, KiB (0 where /proc is absent). *)
let vm_hwm_kb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0
  | ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> 0
      | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" Fun.id
      | _ -> scan ()
    in
    let kb = scan () in
    close_in ic;
    kb

let md5 s = Digest.to_hex (Digest.string s)

let fail fmt = Printf.ksprintf (fun m -> prerr_endline ("pb: " ^ m); exit 2) fmt

(* ---------- spans ---------- *)

(* In-memory span recorder. Each thread is a lane with its own stack of
   open spans; a span's parent is the innermost span open on its lane
   when it began. Every span carries the GC deltas of its interval.
   Telemetry's spans keep one stack per domain, so the serve client's
   two connection threads would share it; and recording here leaves the
   library's own spans off, as in the untraced passes. *)
module Trace = struct
  type span = {
    id : int;
    name : string;
    lane : int;
    parent : int;  (* -1: a lane root *)
    start : float;
    stop : float;
    minor_words : float;
    major_words : float;
    major_collections : int;
  }

  let on = ref false
  let lock = Mutex.create ()
  let finished : span list ref = ref []
  let next_id = ref 0
  let stacks : (int, int list) Hashtbl.t = Hashtbl.create 4

  let with_span name f =
    if not !on then f ()
    else begin
      let lane = Thread.id (Thread.self ()) in
      let id, parent =
        Mutex.protect lock (fun () ->
            let id = !next_id in
            incr next_id;
            let stack = Option.value (Hashtbl.find_opt stacks lane) ~default:[] in
            Hashtbl.replace stacks lane (id :: stack);
            (id, match stack with p :: _ -> p | [] -> -1))
      in
      let g0 = Gc.quick_stat () in
      let start = now () in
      let finish () =
        let stop = now () in
        let g1 = Gc.quick_stat () in
        let span =
          {
            id;
            name;
            lane;
            parent;
            start;
            stop;
            minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
            major_words = g1.Gc.major_words -. g0.Gc.major_words;
            major_collections =
              g1.Gc.major_collections - g0.Gc.major_collections;
          }
        in
        Mutex.protect lock (fun () ->
            (match Hashtbl.find_opt stacks lane with
            | Some (_ :: rest) -> Hashtbl.replace stacks lane rest
            | Some [] | None -> ());
            finished := span :: !finished)
      in
      Fun.protect ~finally:finish f
    end

  let spans () = List.rev !finished
  let duration s = s.stop -. s.start

  (* Self time: the span's duration minus what its children cover. *)
  let self_times spans =
    let child = Hashtbl.create 64 in
    List.iter
      (fun s ->
        if s.parent >= 0 then
          Hashtbl.replace child s.parent
            (duration s +. Option.value (Hashtbl.find_opt child s.parent) ~default:0.))
      spans;
    List.map
      (fun s -> (s, duration s -. Option.value (Hashtbl.find_opt child s.id) ~default:0.))
      spans

  let to_json s =
    Rpc.Obj
      [
        ("id", Rpc.Int s.id);
        ("name", Rpc.Str s.name);
        ("lane", Rpc.Int s.lane);
        ("parent", Rpc.Int s.parent);
        ("start", Rpc.Float s.start);
        ("end", Rpc.Float s.stop);
        ("minor_words", Rpc.Float s.minor_words);
        ("major_words", Rpc.Float s.major_words);
        ("major_collections", Rpc.Int s.major_collections);
      ]
end

let span = Trace.with_span

(* Spans that only glue layer calls together. Their self time is the
   part of a lane no layer accounts for; every other span is a layer. *)
let glue = [ "trace"; "request"; "conn" ]

(* Per lane root: wall time, the share covered by layer self time, and
   which glue span holds most of the remainder. *)
let coverage spans =
  let selfs = Trace.self_times spans in
  let roots = List.filter (fun (s : Trace.span) -> s.parent < 0) spans in
  List.map
    (fun (root : Trace.span) ->
      let mine =
        List.filter (fun ((s : Trace.span), _) -> s.lane = root.lane) selfs
      in
      let wall = Trace.duration root in
      let glue_self =
        List.filter (fun ((s : Trace.span), _) -> List.mem s.name glue) mine
      in
      let remainder = List.fold_left (fun a (_, t) -> a +. t) 0. glue_self in
      let by_name = Hashtbl.create 4 in
      List.iter
        (fun ((s : Trace.span), t) ->
          Hashtbl.replace by_name s.name
            (t +. Option.value (Hashtbl.find_opt by_name s.name) ~default:0.))
        glue_self;
      let remainder_in, _ =
        Hashtbl.fold
          (fun n t (bn, bt) -> if t > bt then (n, t) else (bn, bt))
          by_name (root.name, neg_infinity)
      in
      Rpc.Obj
        [
          ("lane", Rpc.Str root.name);
          ("wall_s", Rpc.Float wall);
          ("layers_s", Rpc.Float (wall -. remainder));
          ("remainder_s", Rpc.Float remainder);
          ("remainder_in", Rpc.Str remainder_in);
        ])
    roots

(* ---------- schedules ---------- *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path text =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc text)

let member name j =
  match Rpc.member name j with
  | Some v -> v
  | None -> fail "schedule: missing field %S" name

(* One schedule item: an identifier (stable across seeds), the request,
   and the barrier it waits at before sending (0: none). *)
type item = { id : string; req : Api.Request.t; sync : int }

let item_of_json j =
  let id =
    match Rpc.to_str (member "id" j) with Some s -> s | None -> fail "bad id"
  in
  let req =
    match Api.Request.of_json (member "request" j) with
    | Ok r -> r
    | Error m -> fail "schedule item %s: %s" id m
  in
  let sync = Option.value (Option.bind (Rpc.member "sync" j) Rpc.to_int) ~default:0 in
  { id; req; sync }

let items_of name doc =
  match Rpc.member name doc with
  | Some (Rpc.List l) -> List.map item_of_json l
  | Some _ | None -> []

let load_schedule path =
  match Rpc.of_string (read_file path) with
  | Ok doc -> doc
  | Error m -> fail "%s: %s" path m

(* ---------- batch workloads ---------- *)

type answer = { render : string; sections : (string * string) list }

let answer_of (resp : Api.Response.t) =
  {
    render = Api.Response.render resp;
    sections =
      List.map
        (fun (s, rows) ->
          (Api.Request.section_name s, Api.Response.render_section rows))
        resp.Api.Response.sections;
  }

let counter = Telemetry.counter_value

(* Layer totals of the traced replay, by metric name. *)
let layers : (string, float) Hashtbl.t = Hashtbl.create 32
let add name v =
  Hashtbl.replace layers name (v +. Option.value (Hashtbl.find_opt layers name) ~default:0.)

(* Time [f] as layer [name], adding its duration and the deltas of the
   given counters to the layer totals. Returns the result, the seconds
   spent and the major words allocated. *)
let timed ?(counters = []) name f =
  let before = List.map (fun (c, _) -> counter c) counters in
  let g0 = (Gc.quick_stat ()).Gc.major_words in
  let t0 = now () in
  let r = span name f in
  let dt = now () -. t0 in
  let dmajor = (Gc.quick_stat ()).Gc.major_words -. g0 in
  List.iter2
    (fun (c, as_name) b -> add as_name (float_of_int (counter c - b)))
    counters before;
  (r, dt, dmajor)

let layer name ?counters f =
  let r, dt, _ = timed ?counters name f in
  add (name ^ "_s") dt;
  r

(* The traced replay of one request: the same work Api.run does, with
   each layer called through its own public entry point. The detection
   table is built by Detection_table.build; the simulation layers are
   timed by calling them on their own just before, on the same netlist,
   and table.finalize is derived as build time minus those calls. *)
let replay (req : Api.Request.t) =
  let name = req.Api.Request.label in
  let net =
    layer "suite.circuit" (fun () ->
        match Api.load_source ~scheme:req.Api.Request.scheme req.Api.Request.source with
        | Ok net -> net
        | Error m -> failwith m)
  in
  let exact =
    match req.Api.Request.universe with
    | Api.Request.Sampled spec ->
      `Sampled
        (layer "estimate.analyze"
           ~counters:[ ("est.samples_drawn", "est.samples_drawn") ]
           (fun () -> Estimate.analyze ~spec ~seed:req.Api.Request.seed ~name net))
    | Api.Request.Exhaustive ->
      let (stuck, bridges), t_enum, m_enum =
        timed "faults.enumerate" (fun () -> (Stuck.collapse net, Bridge.enumerate net))
      in
      let good, t_good, m_good = timed "sim.good" (fun () -> Good.compute net) in
      let sim_counters =
        [
          ("sim.detection_sets", "sim.detection_sets");
          ("sim.cone_propagations", "sim.cone_propagations");
          ("sim.stem_regions", "sim.stem_regions");
        ]
      in
      let _, t_targets, m_targets =
        timed ~counters:sim_counters "sim.targets" (fun () ->
            Fault_sim.stuck_detection_sets good stuck)
      in
      let _, t_untargeted, m_untargeted =
        timed ~counters:sim_counters "sim.untargeted" (fun () ->
            Fault_sim.bridge_detection_sets good bridges)
      in
      let table, t_build, m_build =
        timed
          ~counters:
            [
              ("table.dedup_hits", "table.dedup_hits");
              ("sim.detection_sets", "table.build_detection_sets");
            ]
          "table.build"
          (fun () -> Detection_table.build net)
      in
      let sims = t_enum +. t_good +. t_targets +. t_untargeted in
      add "faults.enumerate_s" t_enum;
      add "sim.good_s" t_good;
      add "sim.targets_s" t_targets;
      add "sim.untargeted_s" t_untargeted;
      add "table.finalize_s" (t_build -. sims);
      add "table.finalize_major_mb"
        ((m_build -. m_enum -. m_good -. m_targets -. m_untargeted)
        *. float_of_int (Sys.word_size / 8)
        /. 1048576.);
      layer "table.layout" (fun () -> ignore (Detection_table.target_layout table));
      let worst =
        layer "worst.compute"
          ~counters:
            [
              ("worst.kernel_calls", "worst.kernel_calls");
              ("worst.early_exits", "worst.early_exits");
            ]
          (fun () -> Worst_case.compute table)
      in
      add "worst.untargeted_faults"
        (float_of_int (Detection_table.untargeted_count table));
      `Exact
        { Analysis.name; table; worst; summary = Analysis.summary_of_worst ~name worst }
  in
  let table, hard =
    match exact with
    | `Exact a -> (a.Analysis.table, Analysis.hard_faults a ~nmax:req.Api.Request.nmax)
    | `Sampled e -> (Estimate.table e, Estimate.hard_faults e ~nmax:req.Api.Request.nmax)
  in
  let procedure1 ~set_count mode =
    let label =
      match mode with
      | Procedure1.Definition2 -> "procedure1.def2"
      | Procedure1.Definition1 | Procedure1.Multi_output -> "procedure1.def1"
    in
    layer label (fun () ->
        Average_case.summarize ~n:req.Api.Request.nmax
          (Procedure1.run ?domains:req.Api.Request.domains ~report_faults:hard table
             {
               Procedure1.seed = req.Api.Request.seed;
               set_count;
               nmax = req.Api.Request.nmax;
               mode;
             }))
  in
  let nmax = req.Api.Request.nmax and k = req.Api.Request.k and k2 = req.Api.Request.k2 in
  let section = function
    | Api.Request.Worst -> (
      match exact with
      | `Exact a -> Api.Response.Worst_rows [ Paper_tables.Row a.Analysis.summary ]
      | `Sampled e ->
        Api.Response.Est_rows
          {
            confidence = (Estimate.spec e).Estimate.Spec.confidence;
            entries = [ Paper_tables.Est_row (Estimate.summary e) ];
          })
    | Api.Request.Average ->
      let rows =
        if hard = [||] then []
        else
          [
            {
              Paper_tables.circuit = name;
              hard_faults = Array.length hard;
              row = procedure1 ~set_count:k Procedure1.Definition1;
            };
          ]
      in
      Api.Response.Average_rows { nmax; k; rows = Some rows }
    | Api.Request.Average_def2 ->
      let rows =
        if hard = [||] then []
        else
          let def1 = procedure1 ~set_count:k2 Procedure1.Definition1 in
          let def2 = procedure1 ~set_count:k2 Procedure1.Definition2 in
          [ (name, Array.length hard, def1, def2) ]
      in
      Api.Response.Def2_rows { nmax; k2; rows = Some rows }
  in
  let sections = List.map (fun s -> (s, section s)) req.Api.Request.sections in
  layer "report.render" (fun () ->
      answer_of { Api.Response.label = name; sections; failures = []; counters = [] })

let answers_json answers =
  Rpc.Obj
    (List.concat_map
       (fun (id, a) ->
         (id, Rpc.Str (md5 a.render))
         :: List.map (fun (s, text) -> (id ^ "#" ^ s, Rpc.Str (md5 text))) a.sections)
       answers)

let layers_json () =
  Rpc.Obj
    (Hashtbl.fold (fun n v acc -> (n, Rpc.Float v) :: acc) layers []
    |> List.sort compare)

let spans_json () = Rpc.List (List.map Trace.to_json (Trace.spans ()))

(* One pass over the schedule in this process: through Api.run, or with
   [traced] through the layer-by-layer replay. A request fails when it
   errors or reports a failed unit. *)
let run_batch ~schedule ~traced ~out =
  let items = items_of "requests" (load_schedule schedule) in
  Trace.on := traced;
  let run_item it =
    if traced then
      match span "request" (fun () -> replay it.req) with
      | a -> Some a
      | exception e ->
        prerr_endline ("pb: " ^ it.id ^ ": " ^ Printexc.to_string e);
        None
    else
      match Api.run it.req with
      | Ok resp when resp.Api.Response.failures = [] -> Some (answer_of resp)
      | Ok _ | Error _ -> None
  in
  let w0 = now () and c0 = cpu () in
  let results =
    span "trace" (fun () ->
        List.map
          (fun it ->
            let t0 = now () in
            let a = run_item it in
            (it.id, a, now () -. t0))
          items)
  in
  let wall = now () -. w0 and cpu_s = cpu () -. c0 in
  Trace.on := false;
  let answers = List.filter_map (fun (id, a, _) -> Option.map (fun a -> (id, a)) a) results in
  write_file out
    (Rpc.to_string
       (Rpc.Obj
          ([
             ("attempted", Rpc.Int (List.length results));
             ("failed", Rpc.Int (List.length results - List.length answers));
             ("hwm_kb", Rpc.Int (vm_hwm_kb ()));
             ("wall_s", Rpc.Float wall);
             ("cpu_s", Rpc.Float cpu_s);
             ("req_s", Rpc.List (List.map (fun (_, _, t) -> Rpc.Float t) results));
             ("digests", answers_json answers);
           ]
          @
          if traced then
            [
              ("layers", layers_json ());
              ("coverage", Rpc.List (coverage (Trace.spans ())));
              ("spans", spans_json ());
            ]
          else [])))

(* ---------- serve-warm ---------- *)

let frame_type j = Option.bind (Rpc.member "type" j) Rpc.to_str

type conn = { ic : in_channel; oc : out_channel; fd : Unix.file_descr }

let connect socket =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.connect fd (Unix.ADDR_UNIX socket)
   with Unix.Unix_error (e, _, _) -> fail "connect %s: %s" socket (Unix.error_message e));
  let c = { ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd; fd } in
  (match Rpc.read_frame c.ic with
  | Ok j when frame_type j = Some "hello"
              && Option.bind (Rpc.member "protocol" j) Rpc.to_str = Some Rpc.protocol ->
    ()
  | Ok _ | Error _ -> fail "%s: no %s hello" socket Rpc.protocol);
  c

let close_conn c = try Unix.close c.fd with Unix.Unix_error _ -> ()

(* One frame's payload, read raw so that decoding is timed apart from
   waiting for the bytes. *)
let read_payload ic =
  match input_line ic with
  | exception End_of_file -> None
  | line -> (
    match int_of_string_opt (String.trim line) with
    | Some n when n >= 0 && n <= Rpc.max_frame -> (
      match really_input_string ic n with
      | payload -> Some payload
      | exception End_of_file -> None)
    | Some _ | None -> None)

type reply = Done of string | Refused of string

(* Send one request and read its frames up to the final one. Returns the
   reply and the seconds spent encoding and decoding. *)
let roundtrip c (req : Api.Request.t) =
  let t0 = now () in
  let bytes =
    span "rpc.encode" (fun () ->
        Rpc.frame (Rpc.Obj [ ("type", Rpc.Str "request"); ("request", Api.Request.to_json req) ]))
  in
  let encode = now () -. t0 in
  let decode = ref 0. in
  let reply =
    span "rpc.wait" (fun () ->
        output_string c.oc bytes;
        flush c.oc;
        let rec loop () =
          match read_payload c.ic with
          | None -> Refused "connection lost"
          | Some payload -> (
            let t1 = now () in
            let j = span "rpc.decode" (fun () -> Rpc.of_string payload) in
            decode := !decode +. (now () -. t1);
            match j with
            | Error m -> Refused ("undecodable frame: " ^ m)
            | Ok j -> (
              match frame_type j with
              | Some "done" -> (
                match
                  ( Option.bind (Rpc.member "render" j) Rpc.to_str,
                    Option.bind (Rpc.member "failures" j) Rpc.to_int )
                with
                | Some render, Some 0 -> Done render
                | _ -> Refused "failed units")
              | Some "error" -> Refused "error"
              | Some "overloaded" -> Refused "overloaded"
              | Some _ | None -> loop ()))
        in
        loop ())
  in
  (reply, encode, !decode)

let stats c =
  output_string c.oc (Rpc.frame (Rpc.Obj [ ("type", Rpc.Str "stats") ]));
  flush c.oc;
  match Option.map Rpc.of_string (read_payload c.ic) with
  | Some (Ok j) -> (
    match Rpc.member "counters" j with
    | Some (Rpc.Obj fields) ->
      List.filter_map (fun (n, v) -> Option.map (fun v -> (n, v)) (Rpc.to_int v)) fields
    | _ -> fail "malformed stats frame")
  | Some (Error m) -> fail "stats: %s" m
  | None -> fail "stats: connection lost"

let run_warm ~socket ~schedule =
  let c = connect socket in
  List.iter
    (fun it ->
      match roundtrip c it.req with
      | Done _, _, _ -> ()
      | Refused m, _, _ -> fail "warm-up %s: %s" it.id m)
    (items_of "warmup" (load_schedule schedule));
  close_conn c

(* A reusable two-party barrier keyed by sync number: the dedup pairs
   are sent only once both connections have reached them. *)
module Barrier = struct
  let lock = Mutex.create ()
  let cond = Condition.create ()
  let arrived : (int, int) Hashtbl.t = Hashtbl.create 8

  let wait ~parties n =
    Mutex.protect lock (fun () ->
        let k = 1 + Option.value (Hashtbl.find_opt arrived n) ~default:0 in
        Hashtbl.replace arrived n k;
        Condition.broadcast cond;
        while Option.value (Hashtbl.find_opt arrived n) ~default:0 < parties do
          Condition.wait cond lock
        done)
end

type outcome = {
  o_id : string;
  o_req : Api.Request.t;
  o_reply : reply;
  o_rtt : float;
  o_encode : float;
  o_decode : float;
}

let run_client ~socket ~cache ~schedule ~traced ~out =
  let doc = load_schedule schedule in
  let streams =
    match Rpc.member "streams" doc with
    | Some (Rpc.List l) ->
      List.map (function Rpc.List items -> List.map item_of_json items | _ -> fail "bad stream") l
    | _ -> fail "schedule has no streams"
  in
  let parties = List.length streams in
  let conns = List.map (fun _ -> connect socket) streams in
  let control = connect socket in
  Trace.on := traced;
  let results = Array.make parties [] in
  let stats0 = stats control in
  let w0 = now () in
  let run_stream i (c, items) =
    span "conn" (fun () ->
        results.(i) <-
          List.rev_map
            (fun it ->
              if it.sync > 0 then Barrier.wait ~parties it.sync;
              let t0 = now () in
              let reply, encode, decode = roundtrip c it.req in
              {
                o_id = it.id;
                o_req = it.req;
                o_reply = reply;
                o_rtt = now () -. t0;
                o_encode = encode;
                o_decode = decode;
              })
            items
          |> List.rev)
  in
  let wall, replays =
    span "trace" (fun () ->
        let wall =
          span "serve.requests" (fun () ->
              let threads =
                List.mapi (fun i s -> Thread.create (run_stream i) s) (List.combine conns streams)
              in
              List.iter Thread.join threads;
              now () -. w0)
        in
        (* The correctness gate, and api.run_ms: every distinct request
           replayed in-process through Api.run on the daemon's cache. *)
        let build = Api.table_builder ~cache_dir:(Some cache) in
        let replays = Hashtbl.create 64 in
        Array.iter
          (List.iter (fun o ->
               if not (Hashtbl.mem replays o.o_id) then begin
                 let t0 = now () in
                 let render =
                   span "api.run" (fun () ->
                       match Api.run ?build o.o_req with
                       | Ok resp when resp.Api.Response.failures = [] ->
                         Some (span "report.render" (fun () -> Api.Response.render resp))
                       | Ok _ | Error _ -> None)
                 in
                 Hashtbl.replace replays o.o_id (render, now () -. t0)
               end))
          results;
        (wall, replays))
  in
  let stats1 = stats control in
  List.iter close_conn (control :: conns);
  (* table_cache.load / store timed from outside on this process: a
     load of every exhaustive circuit from the daemon's cache, and a
     store of each loaded table into a scratch directory. *)
  let load_ms = ref [] and store_ms = ref [] in
  if traced then begin
    let scratch = Filename.concat (Filename.dirname out) "store-probe" in
    let seen = Hashtbl.create 16 in
    Array.iter
      (List.iter (fun o ->
           if o.o_req.Api.Request.universe = Api.Request.Exhaustive
              && not (Hashtbl.mem seen o.o_req.Api.Request.label) then begin
             Hashtbl.replace seen o.o_req.Api.Request.label ();
             match Api.load_source o.o_req.Api.Request.source with
             | Error _ -> ()
             | Ok net -> (
               let key = Table_cache.key net in
               let t0 = now () in
               match Table_cache.load ~dir:cache ~key net with
               | None -> ()
               | Some table ->
                 load_ms := (1000. *. (now () -. t0)) :: !load_ms;
                 let t1 = now () in
                 Table_cache.store ~dir:scratch ~key table;
                 store_ms := (1000. *. (now () -. t1)) :: !store_ms)
           end))
      results
  end;
  Trace.on := false;
  let outcomes = List.concat (Array.to_list results) in
  let failed =
    List.length
      (List.filter
         (fun o ->
           match (o.o_reply, Hashtbl.find_opt replays o.o_id) with
           | Done render, Some (Some local, _) -> render <> local
           | _ -> true)
         outcomes)
  in
  let delta name =
    let v l = Option.value (List.assoc_opt name l) ~default:0 in
    Rpc.Int (v stats1 - v stats0)
  in
  let floats l = Rpc.List (List.map (fun x -> Rpc.Float x) l) in
  let per_request =
    List.map
      (fun o ->
        let api = match Hashtbl.find_opt replays o.o_id with Some (_, t) -> t | None -> 0. in
        Rpc.Obj
          [
            ("id", Rpc.Str o.o_id);
            ("rtt_s", Rpc.Float o.o_rtt);
            ("encode_s", Rpc.Float o.o_encode);
            ("decode_s", Rpc.Float o.o_decode);
            ("api_run_s", Rpc.Float api);
            ("ok", Rpc.Bool (match o.o_reply with Done _ -> true | Refused _ -> false));
          ])
      outcomes
  in
  let digests =
    Hashtbl.fold
      (fun id (render, _) acc ->
        match render with Some r -> (id, Rpc.Str (md5 r)) :: acc | None -> acc)
      replays []
    |> List.sort compare
  in
  write_file out
    (Rpc.to_string
       (Rpc.Obj
          ([
             ("attempted", Rpc.Int (List.length outcomes));
             ("failed", Rpc.Int failed);
             ("wall_s", Rpc.Float wall);
             ("requests", Rpc.List per_request);
             ("digests", Rpc.Obj digests);
             ( "counters",
               Rpc.Obj
                 (List.map
                    (fun n -> (n, delta n))
                    [
                      "serve.requests"; "serve.dedup_joins"; "serve.evictions";
                      "serve.overloaded"; "table_cache.hits"; "table_cache.misses";
                    ]) );
           ]
          @
          if traced then
            [
              ("load_ms", floats !load_ms);
              ("store_ms", floats !store_ms);
              ("coverage", Rpc.List (coverage (Trace.spans ())));
              ("spans", spans_json ());
            ]
          else [])))

(* ---------- command line ---------- *)

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec opts acc = function
    | "--trace" :: rest -> opts (("trace", "1") :: acc) rest
    | flag :: value :: rest when String.length flag > 2 && String.sub flag 0 2 = "--" ->
      opts ((String.sub flag 2 (String.length flag - 2), value) :: acc) rest
    | [] -> acc
    | arg :: _ -> fail "unexpected argument %S" arg
  in
  let mode, rest = match args with m :: r -> (m, r) | [] -> fail "usage: pb.exe MODE ..." in
  let o = opts [] rest in
  let get k = match List.assoc_opt k o with Some v -> v | None -> fail "missing --%s" k in
  let traced = List.mem_assoc "trace" o in
  match mode with
  | "ready" -> ignore (items_of "requests" (load_schedule (get "schedule")))
  | "batch" -> run_batch ~schedule:(get "schedule") ~traced ~out:(get "out")
  | "warm" -> run_warm ~socket:(get "socket") ~schedule:(get "schedule")
  | "client" ->
    run_client ~socket:(get "socket") ~cache:(get "cache") ~schedule:(get "schedule")
      ~traced ~out:(get "out")
  | m -> fail "unknown mode %S" m
