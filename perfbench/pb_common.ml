(* Helpers shared by the workloads. *)

let make_det name =
  match Systems.make_detector name with Some (d, _) -> d | None -> failwith ("detector " ^ name)

let race_keys rs =
  List.sort_uniq compare (List.map (fun (r : Report.race) -> (r.kind, r.prior, r.current)) rs)

(* The racy variant of a workload, captured under the virtual-time
   simulator: the seed picks the schedule, so each seed yields different
   trace bytes with (Theorem 5) the same race set. *)
let capture ~seed ~name ~size ~base =
  let w = Registry.find name in
  let inst = (Option.get w.Workload.racy) ~size ~base in
  let d = make_det "none" in
  let driver, finished = Tracefile.capturing d.Detector.driver in
  let config = { Sim_exec.default_config with n_workers = 4; seed } in
  ignore (Sim_exec.run ~config ~driver inst.Workload.run);
  Tracefile.to_bytes (finished ())

let diag diags k = Option.value (List.assoc_opt k diags) ~default:0.

(* ------------------------------------------------ deterministic counters *)

(* Counters that must repeat exactly from op to op (treap visits,
   intervals, collected strands, predict candidates/windows, allocated
   words).  A drift is reported, never averaged away. *)
type drift = { mutable first : (string * float) list option; mutable drifted : int }

let drift () = { first = None; drifted = 0 }

let observe d ~what counters =
  match d.first with
  | None -> d.first <- Some counters
  | Some f when f = counters -> ()
  | Some f ->
      d.drifted <- d.drifted + 1;
      if d.drifted <= 3 then
        List.iter2
          (fun (k, a) (_, b) ->
            if a <> b then Printf.eprintf "pbench: %s counter drift: %s %.17g -> %.17g\n%!" what k a b)
          f counters

let counter d k = match d.first with Some f -> diag f k | None -> 0.

(* The detector and predictor diagnostics the benchmark reads, with the
   per-layer metric each one feeds. *)
let counter_metrics =
  [
    ("raw_events", "shadow.raw_events"); ("intervals", "interval.intervals");
    ("coal_sorts", "interval.coal_sorts"); ("collected", "trace.collected");
    ("ahq_batch", "trace.ahq_batch"); ("queue_min_rescans", "trace.queue_min_rescans");
    ("writer_visits", "treap.writer_visits"); ("lreader_visits", "treap.lreader_visits");
    ("rreader_visits", "treap.rreader_visits"); ("slowpath_hits", "treap.slowpath_hits");
    ("fastpath_rate", "treap.fastpath_rate"); ("predict_candidates", "predict.candidates");
    ("predict_windows", "predict.windows"); ("predict_pair_scans", "predict.pair_scans");
    ("predict_probe_skips", "predict.probe_skips");
  ]

let read_counters get = List.map (fun (k, _) -> (k, get k)) counter_metrics
let layer_counters d = List.map (fun (k, name) -> (name, counter d k)) counter_metrics

type metric = { m_name : string; value : float; unit_ : string }

let m m_name value unit_ = { m_name; value; unit_ }

let latency_limit_ms = 200.

(* Set-up timing.  setup_s is the median of nine set-ups: one before the
   timed run and [extra_setups] more spread across it, so that like the
   ops it samples the host's speed over the whole run, not just the phase
   the run started in.  Each starts from a collected heap. *)
type 'a setups = { setup : unit -> 'a; dispose : 'a -> unit; times : float Vec.t }

let extra_setups ~quick = if quick then 0 else 8

let timed_setup s =
  Gc.compact ();
  let t0 = Pb_time.now_ns () in
  let c = s.setup () in
  Vec.push s.times (float_of_int (Pb_time.now_ns () - t0) /. 1e9);
  c

(* The set-up the run uses. *)
let first_setup ~dispose setup =
  let s = { setup; dispose; times = Vec.create 0. } in
  (s, timed_setup s)

(* One more set-up, timed and released. *)
let extra_setup s = s.dispose (timed_setup s)

let setup_s s = Pb_stats.median (Vec.to_array s.times)

let top_heap_mb () = float_of_int (Gc.quick_stat ()).Gc.top_heap_words *. 8. /. 1048576.

(* Every per-layer metric, in one vocabulary for all workloads: a layer a
   workload does not exercise reads 0. *)
let per_layer_names =
  [
    ("exec.baseline_ms", "ms"); ("exec.run_ms", "ms"); ("exec.strands", "count");
    ("shadow.raw_events", "count"); ("interval.intervals", "count"); ("interval.coal_sorts", "count");
    ("trace.collected", "count"); ("trace.ahq_batch", "records"); ("trace.queue_min_rescans", "count");
    ("treap.drain_ms", "ms"); ("treap.writer_visits", "count"); ("treap.lreader_visits", "count");
    ("treap.rreader_visits", "count"); ("treap.slowpath_hits", "count"); ("treap.fastpath_rate", "ratio");
    ("detect.hook_ms", "ms"); ("detect.races_ms", "ms"); ("detect.races", "count");
    ("tracefile.decode_ms", "ms"); ("tracefile.decode_mb_s", "MB/s"); ("replay.run_ms", "ms");
    ("replay.walk_ms", "ms"); ("order.om_insert_ns", "ns"); ("reach.sp_parallel_ns", "ns");
    ("predict.predict_ms", "ms"); ("predict.candidates", "count"); ("predict.windows", "count");
    ("predict.pair_scans", "count"); ("predict.probe_skips", "count");
    ("serve.queue_ms", "ms"); ("serve.handshake_ms", "ms"); ("serve.upload_ms", "ms");
    ("serve.drain_ms", "ms"); ("serve.feed_us_p50", "us"); ("serve.feed_us_p99", "us");
    ("serve.gen_late_ms", "ms"); ("serve.accepted", "count"); ("serve.rejected", "count");
    ("serve.completed", "count"); ("serve.failed", "count"); ("serve.pool_parks", "count");
    ("serve.sustained_ops_per_s", "1/s"); ("gc.minor_words", "words"); ("gc.top_heap_mb", "MB");
    ("op.p50_ms", "ms");
    ("op.tail_ms", "ms"); ("op.tail_pct", "%"); ("op.samples", "count");
    ("tracing.op_p50_ms", "ms"); ("tracing.overhead_ms", "ms");
    ("tracing.self_sum_ms", "ms"); ("selfcheck.counter_drift", "count");
  ]

(* Op latency: the median, and the highest percentile that still has 10
   samples beyond it, with the sample count.  Per-layer, not end-to-end:
   wall-clock op times follow the host's speed, which on the benchmark's
   host moved by up to 40 % between runs (README.md). *)
let latency_values lat =
  let p50 = Pb_stats.median lat and tail, pct = Pb_stats.tail lat in
  Printf.printf "op latency: p50 %.3f ms, p%.2f %.3f ms, %d ops\n" p50 pct tail (Array.length lat);
  [
    ("op.p50_ms", p50); ("op.tail_ms", tail); ("op.tail_pct", pct);
    ("op.samples", float_of_int (Array.length lat));
  ]

let per_layer values =
  List.map (fun (n, u) -> m n (Option.value (List.assoc_opt n values) ~default:0.) u) per_layer_names


(* Self time per layer over the traced ops whose root span is [root]: the
   median per op of each span name's self time, printed with their sum —
   which adds up to the traced op's duration. *)
let self_time_table ~root =
  let selfs = Pb_spans.self_times () in
  let ops = Hashtbl.create 256 in
  List.iter (fun (op, name, _) -> if name = root then Hashtbl.replace ops op ()) selfs;
  let by_name = Hashtbl.create 16 in
  List.iter
    (fun (op, name, ns) ->
      if Hashtbl.mem ops op then begin
        let per_op = Option.value (Hashtbl.find_opt by_name name) ~default:(Hashtbl.create 256) in
        Hashtbl.replace per_op op (ns + Option.value (Hashtbl.find_opt per_op op) ~default:0);
        Hashtbl.replace by_name name per_op
      end)
    selfs;
  let rows =
    Hashtbl.fold
      (fun name per_op acc ->
        let v = Array.of_seq (Seq.map Pb_time.ms_of_ns (Hashtbl.to_seq_values per_op)) in
        (name, Pb_stats.median v) :: acc)
      by_name []
    |> List.sort compare
  in
  let total = List.fold_left (fun a (_, v) -> a +. v) 0. rows in
  Printf.printf "self time per layer (median per traced op, %d ops):\n" (Hashtbl.length ops);
  List.iter (fun (name, v) -> Printf.printf "  %-18s %9.3f ms\n" name v) rows;
  Printf.printf "  %-18s %9.3f ms\n" "sum" total;
  total
