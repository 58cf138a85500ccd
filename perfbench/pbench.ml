(* pbench — the repository benchmark (see README.md for what each workload
   measures and why).

     pbench.exe --workload online-mmul|trace-analysis|serve-stream
                --seed N --seconds S --trace 0|1 [--quick]
                [--corrupt-reference] [--out DIR]

   Prints a human-readable summary, then as its last stdout line one JSON
   object {correct, attempted, failed, metrics}.  With --trace 0 the
   metrics are the end-to-end ones; with --trace 1 the per-layer ones, and
   the recorded spans are written to DIR.  Exits 1 when any verdict check
   fails (every mismatch is counted in [failed]), 2 on bad arguments. *)

open Pb_time
open Pb_common

(* ------------------------------------------------------------ options *)

let workload = ref ""
let seed = ref 1
let seconds = ref 10.
let trace = ref 0
let quick = ref false
let corrupt = ref false
let out_dir = ref "perfbench/_out"

let spec =
  [
    ("--workload", Arg.Set_string workload, " online-mmul | trace-analysis | serve-stream");
    ("--seed", Arg.Set_int seed, " workload seed (capture schedules, arrival times)");
    ("--seconds", Arg.Set_float seconds, " length of the timed run");
    ("--trace", Arg.Set_int trace, " 0: end-to-end metrics, 1: traced run, per-layer metrics");
    ("--quick", Arg.Set quick, " one set-up, one warm-up op (the benchmark's own tests)");
    ("--corrupt-reference", Arg.Set corrupt, " corrupt the reference verdict (must be caught)");
    ("--out", Arg.Set_string out_dir, " directory for the traced run's span file");
  ]

(* ------------------------------------------------------------ helpers *)

(* Time spent inside a detector's hook callbacks, charged to [a]. *)
let timed_driver (a : Pb_spans.acc) (drv : Hooks.driver) : Hooks.driver =
 fun ctx ->
  let charge = Pb_spans.charge a in
  let t0 = now_ns () in
  let h = drv ctx in
  charge t0;
  {
    Hooks.sink =
      (fun ~wid ->
        let t0 = now_ns () in
        let s = h.Hooks.sink ~wid in
        charge t0;
        {
          Access.on_read =
            (fun ~addr ~len ->
              let t0 = now_ns () in
              s.Access.on_read ~addr ~len;
              charge t0);
          on_write =
            (fun ~addr ~len ->
              let t0 = now_ns () in
              s.Access.on_write ~addr ~len;
              charge t0);
          on_free =
            (fun ~base ~len ->
              let t0 = now_ns () in
              s.Access.on_free ~base ~len;
              charge t0);
          on_compute =
            (fun ~amount ->
              let t0 = now_ns () in
              s.Access.on_compute ~amount;
              charge t0);
        });
    on_start =
      (fun ~wid r k ->
        let t0 = now_ns () in
        h.Hooks.on_start ~wid r k;
        charge t0);
    on_finish =
      (fun ~wid r k ->
        let t0 = now_ns () in
        h.Hooks.on_finish ~wid r k;
        charge t0);
    on_done =
      (fun () ->
        let t0 = now_ns () in
        h.Hooks.on_done ();
        charge t0);
  }

let with_drain_span (d : Detector.t) =
  { d with Detector.drain = (fun () -> Pb_spans.with_ "treap.drain" d.Detector.drain) }

(* ----------------------------------------------------- closed-loop runs *)

(* One op: [ok] is its verdict, [ns] the timed span, [counters] the
   deterministic counters it produced. *)
type outcome = { ok : bool; ns : int; counters : (string * float) list }

type kind = {
  name : string;
  run : traced:bool -> outcome;
  untraced : float Vec.t;
  traced : float Vec.t;
  check : drift;  (* untraced ops, including allocated words *)
  mutable attempted : int;
  mutable failed : int;
}

let kind name run =
  {
    name;
    run;
    untraced = Vec.create 0.;
    traced = Vec.create 0.;
    check = drift ();
    attempted = 0;
    failed = 0;
  }

let run_op k ~traced ~record =
  (* every op starts from the same compacted heap, so the major-GC work it
     triggers does not depend on what earlier ops left behind *)
  Gc.compact ();
  let w0 = Gc.minor_words () in
  let o =
    try Some (k.run ~traced)
    with e ->
      Printf.eprintf "pbench: %s op raised %s\n%!" k.name (Printexc.to_string e);
      None
  in
  let words = Gc.minor_words () -. w0 in
  if record then begin
    k.attempted <- k.attempted + 1;
    match o with
    | None -> k.failed <- k.failed + 1
    | Some o ->
        if not o.ok then k.failed <- k.failed + 1;
        if traced then Vec.push k.traced (ms_of_ns o.ns)
        else begin
          Vec.push k.untraced (ms_of_ns o.ns);
          observe k.check ~what:k.name (o.counters @ [ ("gc.minor_words", words) ])
        end
  end

(* Interleave the kinds op by op for [seconds]; in a traced run each kind
   also runs traced right after its untraced op.  [extras] more set-ups
   run at evenly spaced points.  Returns the elapsed seconds. *)
let closed_loop ~warmup ~setups ~extras kinds =
  for _ = 1 to warmup do
    List.iter (fun k -> run_op k ~traced:false ~record:false) kinds
  done;
  let t0 = now_ns () in
  let span = int_of_float (!seconds *. 1e9) in
  let deadline = t0 + span in
  let op = ref 0 and done_extras = ref 0 in
  while now_ns () < deadline do
    if !done_extras < extras && now_ns () - t0 >= (!done_extras + 1) * span / (extras + 1) then begin
      extra_setup setups;
      incr done_extras
    end;
    List.iter
      (fun k ->
        run_op k ~traced:false ~record:true;
        if !trace = 1 then begin
          incr op;
          Pb_spans.op := !op;
          Pb_spans.on := true;
          run_op k ~traced:true ~record:true;
          Pb_spans.on := false
        end)
      kinds
  done;
  float_of_int (now_ns () - t0) /. 1e9

(* ------------------------------------------------------------- metrics *)

let closed_loop_e2e ~main ~base ~setup_s =
  let lat = Vec.to_array main.untraced in
  ignore (latency_values lat);
  [
    m "overhead_x" (Pb_stats.median lat /. Pb_stats.median (Vec.to_array base.untraced)) "x";
    m "setup_s" setup_s "s";
  ]

(* Medians over the traced ops whose root span is [root] ("op" for the
   main kind, "baseline" for the baseline kind). *)
let ops_with_root root =
  let ops = Hashtbl.create 256 in
  List.iter
    (fun (s : Pb_spans.span) -> if s.parent < 0 && s.name = root then Hashtbl.replace ops s.op ())
    !Pb_spans.recorded;
  ops

let span_median ~root ~name =
  let ops = ops_with_root root in
  let v =
    List.filter_map
      (fun (s : Pb_spans.span) ->
        if s.name = name && Hashtbl.mem ops s.op then Some (ms_of_ns (s.stop - s.start)) else None)
      !Pb_spans.recorded
  in
  Pb_stats.median (Array.of_list v)

(* The counters of one closed-loop op: every detector and predictor
   diagnostic the benchmark reads, and the race count. *)
let op_counters (d : Detector.t) predict_diags =
  let diags = d.Detector.diagnostics () @ predict_diags in
  read_counters (diag diags) @ [ ("races", float_of_int (Detector.race_count d)) ]

let closed_loop_counters d =
  layer_counters d @ [ ("detect.races", counter d "races"); ("gc.minor_words", counter d "gc.minor_words") ]

(* The tracing rows every traced closed-loop run reports. *)
let tracing_values ~main ~root =
  let self_sum = self_time_table ~root in
  let traced = Pb_stats.median (Vec.to_array main.traced) in
  let untraced = Pb_stats.median (Vec.to_array main.untraced) in
  Printf.printf "tracing overhead: traced op p50 %.3f ms - untraced %.3f ms = %.3f ms\n" traced untraced
    (traced -. untraced);
  [
    ("tracing.op_p50_ms", traced);
    ("tracing.overhead_ms", traced -. untraced);
    ("tracing.self_sum_ms", self_sum);
    ("selfcheck.counter_drift", float_of_int main.check.drifted);
  ]

(* ---------------------------------------------------------- online-mmul *)

(* Live PINT on the race-free mmul under Seq_exec — the paper's one-core
   configuration — interleaved with the no-detection baseline. *)
module Online_mmul = struct
  let size = 64
  let base = 8

  (* Reference verdict, by STINT rather than PINT: check () passes and
     there are no races. *)
  let setup () =
    let w = Registry.find "mmul" in
    let inst = w.Workload.make ~size ~base in
    let d = make_det "stint" in
    ignore (Seq_exec.run ~driver:d.Detector.driver inst.Workload.run);
    d.Detector.drain ();
    if not (inst.Workload.check ()) then failwith "reference: mmul check failed";
    let keys = race_keys (Detector.races d) in
    if keys <> [] then failwith "reference: STINT reports races on the race-free mmul";
    (w, if !corrupt then [ (Report.Write_write, 0, 1) ] else keys)

  let op (w, ref_keys) ~detector ~traced =
    let inst = w.Workload.make ~size ~base in
    let d = make_det detector in
    let hooks = Pb_spans.acc () in
    let driver = if traced then timed_driver hooks d.Detector.driver else d.Detector.driver in
    let exec_span = if detector = "none" then "exec.baseline" else "exec.run" in
    let t0 = now_ns () in
    let ok =
      Pb_spans.with_ (if detector = "none" then "baseline" else "op") (fun () ->
          Pb_spans.with_ exec_span (fun () ->
              ignore (Seq_exec.run ~driver inst.Workload.run);
              Pb_spans.flush_acc "detect.hook" hooks);
          if detector <> "none" then Pb_spans.with_ "treap.drain" d.Detector.drain;
          Pb_spans.with_ "verdict" (fun () ->
              let races = Pb_spans.with_ "detect.races" (fun () -> Detector.races d) in
              inst.Workload.check () && race_keys races = ref_keys))
    in
    let ns = now_ns () - t0 in
    { ok; ns; counters = (if detector = "none" then [] else op_counters d []) }

  let strands () =
    let inst = (Registry.find "mmul").Workload.make ~size ~base in
    (Seq_exec.run ~driver:(make_det "none").Detector.driver inst.Workload.run).Seq_exec.n_strands
end

(* -------------------------------------------------------- trace-analysis *)

(* The pint_replay predict path on a captured racy fft trace: decode,
   replay through PINT with the prediction DAG builder, predict at w=2. *)
module Trace_analysis = struct
  let window = 2

  type ctx = { bytes : string; ref_keys : (Report.kind * int * int) list; ref_pred : Predict.finding list }

  (* References by paths independent of the timed one: observed races
     from STINT's replay, predictions from the brute-force oracle. *)
  let setup () =
    let bytes = capture ~seed:!seed ~name:"fft" ~size:2048 ~base:64 in
    let tf = Tracefile.of_bytes bytes in
    let o = Replay.run tf (make_det "stint") in
    let ref_pred = Predict.oracle ~window ~observed:o.Replay.races (Predict.dag_of_trace tf) in
    let ref_keys = race_keys o.Replay.races in
    if ref_keys = [] then failwith "reference: the racy fft capture reports no races";
    let ref_keys = if !corrupt then List.tl ref_keys else ref_keys in
    { bytes; ref_keys; ref_pred }

  let op c ~detector ~traced =
    let d = make_det detector in
    let d = if traced then with_drain_span d else d in
    let hooks = Pb_spans.acc () in
    let wrap = if traced then timed_driver hooks else Fun.id in
    let builder = Predict.Builder.create () in
    let on_strand = if detector = "none" then None else Some (Predict.Builder.observer builder) in
    let t0 = now_ns () in
    let result =
      Pb_spans.with_ (if detector = "none" then "baseline" else "op") (fun () ->
          let tf = Pb_spans.with_ "tracefile.decode" (fun () -> Tracefile.of_bytes c.bytes) in
          let o =
            Pb_spans.with_ "replay.run" (fun () ->
                let o = Replay.run ~wrap ?on_strand tf d in
                Pb_spans.flush_acc "detect.hook" hooks;
                o)
          in
          if detector = "none" then (o.Replay.n_strands = Tracefile.entry_count tf, [])
          else
            let pr =
              Pb_spans.with_ "predict.predict" (fun () ->
                  Predict.predict ~window ~observed:o.Replay.races (Predict.Builder.dag builder))
            in
            let ok =
              Pb_spans.with_ "verdict" (fun () ->
                  let races = Pb_spans.with_ "detect.races" (fun () -> Detector.races d) in
                  race_keys races = c.ref_keys && Predict.equal_findings pr.Predict.predicted c.ref_pred)
            in
            (ok, pr.Predict.diagnostics))
    in
    let ns = now_ns () - t0 in
    let ok, pdiags = result in
    { ok; ns; counters = (if detector = "none" then [] else op_counters d pdiags) }

  (* Substrate probes for the order/reach layer: the OM insert and the
     SP-order parallelism query the replay walk depends on. *)
  let substrate c =
    let n = 200_000 in
    let om = Om.create () in
    let t0 = now_ns () in
    let last = ref (Om.base om) in
    for i = 1 to n do
      last := Om.insert_after om (if i land 1 = 0 then !last else Om.base om)
    done;
    let om_ns = float_of_int (now_ns () - t0) /. float_of_int n in
    let strands = ref [] in
    let tf = Tracefile.of_bytes c.bytes in
    let sp_ref = ref None in
    ignore
      (Replay.run
         ~on_strand:(fun ~sp ~pos:_ _ r ->
           sp_ref := Some sp;
           strands := r.Srec.sp :: !strands)
         tf (make_det "none"));
    let sp = Option.get !sp_ref and arr = Array.of_list !strands in
    let m = Array.length arr in
    let rng = Rng.create !seed in
    let pairs = Array.init 4096 (fun _ -> (arr.(Rng.int rng m), arr.(Rng.int rng m))) in
    let q = 100 in
    let hits = ref 0 in
    let t0 = now_ns () in
    for _ = 1 to q do
      Array.iter (fun (a, b) -> if Sp_order.parallel sp a b then incr hits) pairs
    done;
    let sp_ns = float_of_int (now_ns () - t0) /. float_of_int (q * Array.length pairs) in
    ignore (Sys.opaque_identity !hits);
    [ ("order.om_insert_ns", om_ns); ("reach.sp_parallel_ns", sp_ns) ]
end

(* ------------------------------------------------------------- driver *)

let print_result ~attempted ~failed metrics =
  List.iter (fun x -> Printf.printf "%-26s %16.6f %s\n" x.m_name x.value x.unit_) metrics;
  let num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0" in
  let body =
    String.concat ", "
      (List.map
         (fun x -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.m_name (num x.value) x.unit_)
         metrics)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (failed = 0 && attempted > 0) attempted failed body

let closed_loop_workload ~setup ~main ~base ~layer_values =
  let setups, c = first_setup ~dispose:ignore setup in
  let main = kind "main" (main c) and base = kind "baseline" (base c) in
  let elapsed =
    closed_loop ~warmup:(if !quick then 1 else 5) ~setups ~extras:(extra_setups ~quick:!quick)
      [ main; base ]
  in
  let setup_s = setup_s setups in
  let attempted = main.attempted + base.attempted and failed = main.failed + base.failed in
  Printf.printf "%s seed %d: %d ops (%d baseline) in %.2f s, %d failed, counter drift %d\n" !workload !seed
    main.attempted base.attempted elapsed failed main.check.drifted;
  let metrics =
    if !trace = 0 then closed_loop_e2e ~main ~base ~setup_s
    else
      per_layer
        (layer_values c main
        @ (("gc.top_heap_mb", top_heap_mb ()) :: tracing_values ~main ~root:"op")
        @ latency_values (Vec.to_array main.untraced))
  in
  (attempted, failed, metrics)

let online_mmul () =
  let module W = Online_mmul in
  closed_loop_workload ~setup:W.setup
    ~main:(fun c -> W.op c ~detector:"pint")
    ~base:(fun c -> W.op c ~detector:"none")
    ~layer_values:(fun _ main ->
      closed_loop_counters main.check
      @ [
          ("exec.strands", float_of_int (W.strands ()));
          ("exec.run_ms", span_median ~root:"op" ~name:"exec.run");
          ("exec.baseline_ms", span_median ~root:"baseline" ~name:"exec.baseline");
          ("treap.drain_ms", span_median ~root:"op" ~name:"treap.drain");
          ("detect.hook_ms", span_median ~root:"op" ~name:"detect.hook");
          ("detect.races_ms", span_median ~root:"op" ~name:"detect.races");
        ])

let trace_analysis () =
  let module W = Trace_analysis in
  closed_loop_workload ~setup:W.setup
    ~main:(fun c -> W.op c ~detector:"pint")
    ~base:(fun c -> W.op c ~detector:"none")
    ~layer_values:(fun c main ->
      let decode_ms = span_median ~root:"op" ~name:"tracefile.decode" in
      let run_ms = span_median ~root:"op" ~name:"replay.run" in
      let hook_ms = span_median ~root:"op" ~name:"detect.hook" in
      let drain_ms = span_median ~root:"op" ~name:"treap.drain" in
      closed_loop_counters main.check
      @ [
          ("tracefile.decode_ms", decode_ms);
          ("tracefile.decode_mb_s", float_of_int (String.length c.W.bytes) /. 1048576. /. (decode_ms /. 1e3));
          ("replay.run_ms", run_ms);
          ("replay.walk_ms", run_ms -. hook_ms -. drain_ms);
          ("treap.drain_ms", drain_ms);
          ("detect.hook_ms", hook_ms);
          ("detect.races_ms", span_median ~root:"op" ~name:"detect.races");
          ("predict.predict_ms", span_median ~root:"op" ~name:"predict.predict");
        ]
      @ W.substrate c)

let () =
  Arg.parse (Arg.align spec) (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) "pbench.exe [options]";
  if !trace <> 0 && !trace <> 1 then (prerr_endline "pbench: --trace takes 0 or 1"; exit 2);
  let attempted, failed, metrics =
    try
      match !workload with
      | "online-mmul" -> online_mmul ()
      | "trace-analysis" -> trace_analysis ()
      | "serve-stream" ->
          Pb_serve.run ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1) ~quick:!quick
            ~corrupt:!corrupt
      | w ->
          Printf.eprintf "pbench: unknown workload %S (online-mmul | trace-analysis | serve-stream)\n" w;
          exit 2
    with Failure msg ->
      Printf.eprintf "pbench: %s\n" msg;
      exit 1
  in
  if !trace = 1 then begin
    (try Sys.mkdir !out_dir 0o755 with Sys_error _ -> ());
    let path = Filename.concat !out_dir (Printf.sprintf "spans-%s-seed%d.json" !workload !seed) in
    Pb_spans.write path;
    Printf.printf "spans written to %s\n" path
  end;
  print_result ~attempted ~failed metrics;
  exit (if failed = 0 then 0 else 1)
