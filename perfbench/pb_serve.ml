(* serve-stream: an open-loop session generator against an in-process
   pint_serve daemon.

   The daemon runs [Serve_server.serve] (20 ms poll, the default) on its own
   domain with one shared pool worker and one shard.  A single-threaded
   generator on the main domain offers sessions on a fixed ladder of
   rates, with at most [max_conns] connections open.  Every session
   streams the same racy heat capture; every [predict_every]-th one opts
   into prediction.  A session is timed from its due time to its Summary
   frame, so a stalled daemon or a busy generator shows in the latency of
   the sessions behind it. *)

open Pb_time
open Pb_common

let max_conns = 2
let predict_every = 4
let window = 2

(* Offered rates (sessions/s) and each rung's share of the timed run.
   Every rung sits below what the daemon sustains at this commit (a
   session holds its connection for about 21 ms, so two connections carry
   up to about 90 sessions/s), so no session fails; a regression that
   lowers capacity fails the top rung first. *)
let ladder = [ (10., 0.2); (20., 0.3); (40., 0.5) ]

(* Per-session observability rings, in events per track.  At the default
   (16384 events, about 2.5 MB of rings per session) the allocation adds
   about 4 ms to every session, and where the major GC's pacing falls
   relative to it moved the peak heap between 1.9 and 20 MB across
   identical runs. *)
let obs_capacity = 1024

(* The daemon's select timeout: a session whose lease drains between
   wake-ups waits up to one poll period for its Summary. *)
let poll_ms = 20.

let session_timeout_ns = 5_000_000_000

type refs = {
  bytes : string;
  ref_keys : (Report.kind * int * int) list;
  ref_pred : (Report.kind * int * int * Interval.t) list;
}

type ctx = { refs : refs; server : Serve_server.t; daemon : unit Domain.t; addr : Unix.sockaddr }

(* References from an offline STINT replay plus the brute-force
   prediction oracle over the same bytes — a different path from the
   daemon's streaming PINT session and its predictor. *)
let references ~seed ~corrupt =
  let bytes = capture ~seed ~name:"heat" ~size:128 ~base:8 in
  let tf = Tracefile.of_bytes bytes in
  let o = Replay.run tf (make_det "stint") in
  let pred = Predict.oracle ~window ~observed:o.Replay.races (Predict.dag_of_trace tf) in
  let ref_keys = race_keys o.Replay.races in
  if ref_keys = [] then failwith "reference: the racy heat capture reports no races";
  let ref_pred =
    List.sort compare (List.map (fun (f : Predict.finding) -> (f.kind, f.prior, f.current, f.where)) pred)
  in
  { bytes; ref_keys = (if corrupt then List.tl ref_keys else ref_keys); ref_pred }

let setup ~seed ~corrupt () =
  let refs = references ~seed ~corrupt in
  let config =
    {
      Serve_server.default_config with
      pool_workers = 1;
      shards = 1;
      max_sessions = 2 * max_conns;
      obs_capacity = Some obs_capacity;
    }
  in
  let server = Serve_server.create ~config (Unix.ADDR_INET (Unix.inet_addr_loopback, 0)) in
  let addr = Serve_server.sockaddr server in
  let daemon = Domain.spawn (fun () -> Serve_server.serve ~poll:(poll_ms /. 1e3) server) in
  { refs; server; daemon; addr }

let dispose c =
  Serve_server.stop c.server;
  Domain.join c.daemon

(* -------------------------------------------------------------- sessions *)

type session = {
  idx : int;
  rung : int;
  due : int;
  predict : int;
  mutable noticed : int;
  mutable backlog : int;  (* sessions due but not started when this one fell due *)
  mutable started : int;
  mutable accepted : int;
  mutable end_sent : int;
  mutable finished : int;
  mutable error : string option;
  mutable fd : Unix.file_descr option;
  mutable frames : Serve_proto.Frames.t;
  mutable races : (Report.kind * int * int * Interval.t) list;
  mutable stats : (string * float) list;  (* the Summary counters the benchmark reads *)
}

let send_all fd s =
  let n = String.length s in
  let rec go off =
    if off < n then
      match Unix.write_substring fd s off (n - off) with
      | w -> go (off + w)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
  in
  go 0

(* A run keeps every session record: a closed session drops its socket
   buffers, so the heap holds no more than the sessions in flight. *)
let close s =
  match s.fd with
  | Some fd ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      s.fd <- None;
      s.frames <- Serve_proto.Frames.create ()
  | None -> ()

let fail s msg =
  if s.error = None then s.error <- Some msg;
  if s.finished = 0 then s.finished <- now_ns ();
  close s

let start c s =
  s.started <- now_ns ();
  match
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    s.fd <- Some fd;
    Unix.setsockopt fd Unix.TCP_NODELAY true;
    Unix.connect fd c.addr;
    send_all fd
      (Serve_proto.encode_client
         (Serve_proto.Hello { version = Serve_proto.protocol_version; shards = 0; predict = s.predict }))
  with
  | () -> ()
  | exception Unix.Unix_error (e, _, _) -> fail s ("connect: " ^ Unix.error_message e)

let summary_keys =
  List.map fst counter_metrics @ [ "obs.h.serve.feed_us.p50"; "obs.h.serve.feed_us.p99" ]

let verdict c s =
  let keys = List.sort_uniq compare (List.map (fun (k, p, q, _) -> (k, p, q)) s.races) in
  keys = c.refs.ref_keys

let on_message c s = function
  | Serve_proto.Accepted _ ->
      s.accepted <- now_ns ();
      let fd = Option.get s.fd in
      send_all fd (Serve_proto.encode_client (Serve_proto.Data c.refs.bytes));
      send_all fd (Serve_proto.encode_client Serve_proto.End);
      s.end_sent <- now_ns ()
  | Serve_proto.Races rs -> s.races <- List.rev_append rs s.races
  | Serve_proto.Summary { stats; predicted; _ } ->
      s.finished <- now_ns ();
      close s;
      let stat k = match List.assoc_opt k stats with Some v -> float_of_string v | None -> 0. in
      s.stats <- List.map (fun k -> (k, stat k)) summary_keys;
      let want_pred = if s.predict > 0 then c.refs.ref_pred else [] in
      if not (verdict c s) then s.error <- Some "served races differ from the offline replay"
      else if List.sort compare predicted <> want_pred then
        s.error <- Some "served predictions differ from the offline oracle";
      s.races <- []
  | Serve_proto.Reject msg -> fail s ("rejected: " ^ msg)

let buf = Bytes.create 65536

let on_readable c s =
  match s.fd with
  | None -> ()
  | Some fd -> (
      match Unix.read fd buf 0 (Bytes.length buf) with
      | 0 -> fail s "connection closed before summary"
      | n ->
          Serve_proto.Frames.feed s.frames ~len:n (Bytes.unsafe_to_string buf);
          let rec drain () =
            if s.fd <> None then
              match Serve_proto.Frames.next s.frames with
              | Some payload ->
                  on_message c s (Serve_proto.decode_server payload);
                  drain ()
              | None -> ()
          in
          (try drain () with e -> fail s ("protocol: " ^ Printexc.to_string e))
      | exception Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN), _, _) -> ()
      | exception Unix.Unix_error (e, _, _) -> fail s ("read: " ^ Unix.error_message e))

let done_ s = s.finished > 0

(* Run one rung's sessions to completion on the open-loop schedule. *)
let run_rung c (sessions : session array) =
  let pending = Queue.create () in
  let active = ref [] in
  let next = ref 0 in
  let n = Array.length sessions in
  while !next < n || (not (Queue.is_empty pending)) || !active <> [] do
    let now = now_ns () in
    while !next < n && sessions.(!next).due <= now do
      let s = sessions.(!next) in
      s.noticed <- now;
      s.backlog <- Queue.length pending;
      Queue.push s pending;
      incr next
    done;
    while List.length !active < max_conns && not (Queue.is_empty pending) do
      let s = Queue.pop pending in
      start c s;
      if not (done_ s) then active := s :: !active
    done;
    let now = now_ns () in
    List.iter (fun s -> if now - s.started > session_timeout_ns then fail s "session timed out") !active;
    active := List.filter (fun s -> not (done_ s)) !active;
    let wait_ns = if !next < n then min 50_000_000 (max 0 (sessions.(!next).due - now)) else 50_000_000 in
    let fds = List.filter_map (fun s -> s.fd) !active in
    let rd =
      match Unix.select fds [] [] (float_of_int wait_ns /. 1e9) with
      | rd, _, _ -> rd
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> []
    in
    List.iter (fun s -> match s.fd with Some fd when List.mem fd rd -> on_readable c s | _ -> ()) !active;
    active := List.filter (fun s -> not (done_ s)) !active
  done

let schedule ~seed ~rung ~rate ~secs ~first_idx ~t0 =
  let rng = Rng.create ((seed * 1_000_003) + rung) in
  let count = max 1 (int_of_float (Float.round (rate *. secs))) in
  Array.init count (fun k ->
      let jitter = (Rng.float rng -. 0.5) *. 0.8 in
      let idx = first_idx + k in
      {
        idx;
        rung;
        due = t0 + int_of_float ((float_of_int k +. 0.5 +. jitter) /. rate *. 1e9);
        predict = (if idx mod predict_every = predict_every - 1 then window else 0);
        noticed = 0;
        backlog = 0;
        started = 0;
        accepted = 0;
        end_sent = 0;
        finished = 0;
        error = None;
        fd = None;
        frames = Serve_proto.Frames.create ();
        races = [];
        stats = [];
      })

let lat s = ms_of_ns (s.finished - s.due)
let stat s k = diag s.stats k

let run ~seed ~seconds ~trace ~quick ~corrupt =
  let setups, c = first_setup ~dispose (setup ~seed ~corrupt) in
  (* warm-up sessions, plain and predict, not recorded *)
  let warm =
    schedule ~seed ~rung:(-1) ~rate:20.
      ~secs:(if quick then 0.1 else 0.2)
      ~first_idx:(predict_every - 2) ~t0:(now_ns ())
  in
  run_rung c warm;
  let all = ref [] in
  let rungs = ref [] in
  let share_done = ref 0. in
  let t_start = now_ns () in
  List.iteri
    (fun r (rate, share) ->
      let sessions =
        schedule ~seed ~rung:r ~rate ~secs:(seconds *. share) ~first_idx:(List.length !all)
          ~t0:(now_ns () + 10_000_000)
      in
      run_rung c sessions;
      (* the extra set-ups run between rungs, when no session is in flight,
         in proportion to the rungs' shares of the run *)
      let extras = extra_setups ~quick in
      let due = int_of_float (Float.round (float_of_int extras *. (!share_done +. share))) in
      for _ = int_of_float (Float.round (float_of_int extras *. !share_done)) + 1 to due do
        extra_setup setups
      done;
      share_done := !share_done +. share;
      rungs := (rate, sessions) :: !rungs;
      all := !all @ Array.to_list sessions)
    ladder;
  let elapsed = float_of_int (now_ns () - t_start) /. 1e9 in
  dispose c;
  let setup_s = setup_s setups in
  let server_stats = Serve_server.stats c.server in
  let sessions = Array.of_list !all in
  let missed s = s.error <> None || lat s > latency_limit_ms in
  List.iter
    (fun s ->
      match s.error with
      | Some e -> Printf.eprintf "pbench: session %d: %s\n%!" s.idx e
      | None ->
          if missed s then
            Printf.eprintf
              "pbench: session %d missed the %.0f ms limit: %.3f ms (queue %.3f, handshake %.3f, \
               upload %.3f, drain %.3f)\n%!"
              s.idx latency_limit_ms (lat s)
              (ms_of_ns (s.started - s.due))
              (ms_of_ns (s.accepted - s.started))
              (ms_of_ns (s.end_sent - s.accepted))
              (ms_of_ns (s.finished - s.end_sent)))
    !all;
  let failed = List.length (List.filter missed !all) in
  let attempted = Array.length sessions in
  let lats = Array.map lat sessions in
  (* A rung is sustained when its tail stays under the limit and the
     generator's backlog does not grow: the sessions' backlog in the
     rung's last third is on average no larger than in its first third. *)
  let rung_rows =
    List.map
      (fun (rate, ss) ->
        let l = Array.map lat ss in
        let tail, _ = Pb_stats.tail l in
        let k = Array.length ss / 3 in
        let mean a =
          Array.fold_left (fun x s -> x +. float_of_int s.backlog) 0. a /. float_of_int (Array.length a)
        in
        let growing =
          k > 0 && mean (Array.sub ss (Array.length ss - k) k) > mean (Array.sub ss 0 k) +. 0.5
        in
        let ok = tail < latency_limit_ms && (not growing) && not (Array.exists missed ss) in
        let first = ss.(0).due and last = Array.fold_left (fun a s -> max a s.finished) 0 ss in
        let achieved = float_of_int (Array.length ss) /. (float_of_int (last - first) /. 1e9) in
        Printf.printf "rung %5.1f/s: %4d sessions, p50 %.3f ms, tail %.3f ms, achieved %.3f/s, %s\n" rate
          (Array.length ss) (Pb_stats.median l) tail achieved
          (if ok then "sustained" else if growing then "backlog grows" else "misses the limit");
        (ok, achieved))
      (List.rev !rungs)
  in
  let sustained = List.fold_left (fun a (ok, ach) -> if ok then ach else a) 0. rung_rows in
  let p50 = Pb_stats.median lats in
  Printf.printf "serve-stream seed %d: %d sessions in %.2f s, %d failed\n" seed (Array.length sessions)
    elapsed failed;
  let latency = latency_values lats in
  let metrics =
    if not trace then
      [
        (* sessions wait on the daemon's poll, not the CPU: the baseline is
           the poll period, a session that needs exactly one wake-up *)
        m "overhead_x" (p50 /. poll_ms) "x";
        m "setup_s" setup_s "s";
      ]
    else begin
      (* Client-side spans per session, from the timestamps every run takes. *)
      Array.iter
        (fun s ->
          if s.error = None then begin
            Pb_spans.op := s.idx;
            let id = !Pb_spans.next_id in
            Pb_spans.next_id := id + 5;
            Pb_spans.record ~id ~name:"session" ~parent:(-1) ~start:s.due ~stop:s.finished ~calls:1;
            List.iteri
              (fun i (name, a, b) ->
                Pb_spans.record ~id:(id + 1 + i) ~name ~parent:id ~start:a ~stop:b ~calls:1)
              [
                ("serve.queue", s.due, s.started);
                ("serve.handshake", s.started, s.accepted);
                ("serve.upload", s.accepted, s.end_sent);
                ("serve.drain", s.end_sent, s.finished);
              ]
          end)
        sessions;
      (* the spans are built from timestamps every run takes, so tracing
         adds nothing to the sessions: tracing.overhead_ms reads 0 *)
      let med f = Pb_stats.median (Array.map f sessions) in
      (* server-side counters, read from the Summary frames; they must
         repeat exactly across sessions of the same kind *)
      let plain = drift () and pred = drift () in
      Array.iter
        (fun s ->
          if s.error = None then
            observe (if s.predict > 0 then pred else plain) ~what:"session" (read_counters (stat s)))
        sessions;
      let gen_late = Array.map (fun s -> ms_of_ns (s.noticed - s.due)) sessions in
      per_layer
        (layer_counters pred
        @ [
            ("detect.races", float_of_int (List.length c.refs.ref_keys));
            ("serve.queue_ms", med (fun s -> ms_of_ns (s.started - s.due)));
            ("serve.handshake_ms", med (fun s -> ms_of_ns (s.accepted - s.started)));
            ("serve.upload_ms", med (fun s -> ms_of_ns (s.end_sent - s.accepted)));
            ("serve.drain_ms", med (fun s -> ms_of_ns (s.finished - s.end_sent)));
            ("serve.feed_us_p50", med (fun s -> stat s "obs.h.serve.feed_us.p50"));
            ("serve.feed_us_p99", med (fun s -> stat s "obs.h.serve.feed_us.p99"));
            ("serve.gen_late_ms", fst (Pb_stats.tail gen_late));
            ("tracing.op_p50_ms", p50);
            ("tracing.self_sum_ms", self_time_table ~root:"session");
            ("selfcheck.counter_drift", float_of_int (plain.drifted + pred.drifted));
          ]
        @ (("serve.sustained_ops_per_s", sustained) :: ("gc.top_heap_mb", top_heap_mb ()) :: server_stats)
        @ latency)
    end
  in
  (attempted, failed, metrics)
