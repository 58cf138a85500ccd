(* Engine-layer tests: the shared Step/Stage/Pipeline machinery that every
   executor drives PINT's treap workers through. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* A synthetic stage: emits [work] productive steps (visits = 10, records =
   [records_per_step]), interleaving [idles] idle and [stalls] stalled
   steps first, then reports done. *)
let synthetic ~name ?(records_per_step = 1) ~idles ~stalls ~work () =
  let i = ref idles and s = ref stalls and w = ref work in
  Stage.make ~name
    ~cost:(fun ~records ~visits -> (100 * records) + visits)
    (fun () ->
      if !i > 0 then begin
        decr i;
        Step.idle
      end
      else if !s > 0 then begin
        decr s;
        Step.stalled
      end
      else if !w > 0 then begin
        decr w;
        Step.worked ~records:records_per_step 10
      end
      else Step.finished)

let test_step_helpers () =
  let w = Step.worked ~records:4 7 in
  check_bool "worked progressed" true (Step.progressed w);
  check_int "worked visits" 7 (Step.visits w);
  check_int "worked records" 4 (Step.records w);
  check_bool "worked not done" false (Step.is_done w);
  check_bool "idle blocked" true (Step.blocked Step.idle);
  check_bool "stalled blocked" true (Step.blocked Step.stalled);
  check_bool "done is done" true (Step.is_done Step.finished);
  check_int "default records" 1 (Step.records (Step.worked 3))

let test_stage_metrics () =
  let st = synthetic ~name:"x" ~records_per_step:8 ~idles:3 ~stalls:2 ~work:5 () in
  Stage.run st;
  let m = Stage.metrics st in
  check_int "steps" 5 m.Stage.steps;
  check_int "records" 40 m.Stage.records;
  check_int "visits" 50 m.Stage.visits;
  check_int "idles" 3 m.Stage.idles;
  check_int "stalls" 2 m.Stage.stalls;
  check_int "cost hook" 210 (Stage.cost st ~records:2 ~visits:10);
  Stage.reset_metrics st;
  check_int "reset" 0 (Stage.metrics st).Stage.steps

let test_stage_diagnostics_keys () =
  let st = synthetic ~name:"writer" ~idles:1 ~stalls:1 ~work:2 () in
  Stage.run st;
  let d = Stage.diagnostics st in
  List.iter
    (fun k -> check_bool (k ^ " present") true (List.mem_assoc k d))
    [ "stage.writer.steps"; "stage.writer.records"; "stage.writer.visits";
      "stage.writer.idle"; "stage.writer.stalls" ];
  check_bool "stall counted" true (List.assoc "stage.writer.stalls" d = 1.)

let test_pipeline_drive_completes () =
  let a = synthetic ~name:"a" ~idles:10 ~stalls:0 ~work:7 () in
  let b = synthetic ~name:"b" ~idles:0 ~stalls:4 ~work:3 () in
  let p = Pipeline.create () in
  Pipeline.register p a;
  Pipeline.register p b;
  check_int "two stages" 2 (List.length (Pipeline.stages p));
  Pipeline.drive p;
  check_int "a drained" 7 (Stage.metrics a).Stage.steps;
  check_int "b drained" 3 (Stage.metrics b).Stage.steps;
  (* driving again only retires the already-done stages *)
  Pipeline.drive p;
  check_int "no double work" 7 (Stage.metrics a).Stage.steps

let test_pipeline_producer_consumer () =
  (* a queue between two stages: the producer stalls when it is full, the
     consumer drains it — drive must interleave them to completion *)
  let q = Queue.create () in
  let cap = 4 in
  let to_produce = ref 50 in
  let producer =
    Stage.make ~name:"prod" (fun () ->
        if !to_produce = 0 then Step.finished
        else if Queue.length q >= cap then Step.stalled
        else begin
          Queue.push !to_produce q;
          decr to_produce;
          Step.worked 1
        end)
  in
  let eaten = ref 0 in
  let tick = ref 0 in
  let consumer =
    (* half-rate consumer: pops only every other turn, so the queue fills and
       the producer is guaranteed to hit backpressure *)
    Stage.make ~name:"cons" (fun () ->
        incr tick;
        if Queue.is_empty q then if !to_produce = 0 then Step.finished else Step.idle
        else if !tick mod 2 = 1 && !to_produce > 0 then Step.idle
        else begin
          ignore (Queue.pop q);
          incr eaten;
          Step.worked 1
        end)
  in
  Pipeline.drive (Pipeline.of_stages [ producer; consumer ]);
  check_int "all consumed" 50 !eaten;
  check_bool "producer stalled on backpressure" true ((Stage.metrics producer).Stage.stalls > 0)

let test_pipeline_diagnostics () =
  let a = synthetic ~name:"a" ~idles:1 ~stalls:0 ~work:2 () in
  let b = synthetic ~name:"b" ~idles:0 ~stalls:1 ~work:1 () in
  let p = Pipeline.of_stages [ a; b ] in
  Pipeline.drive p;
  let d = Pipeline.diagnostics p in
  check_int "5 counters per stage" 10 (List.length d);
  check_bool "a steps" true (List.assoc "stage.a.steps" d = 2.);
  check_bool "b stalls" true (List.assoc "stage.b.stalls" d = 1.)

let test_backoff_terminates () =
  (* relax must be bounded for any round count *)
  List.iter (fun n -> Backoff.relax n) [ 0; 1; 5; 8; 20; 62; 1000 ];
  check_bool "bounded" true true

(* ---------------------------------------------------------- shared pools *)

(* A stage that idles until [gate] opens, then finishes. *)
let gated gate name = Stage.make ~name (fun () -> if Atomic.get gate then Step.finished else Step.idle)

(* A lease under watch: how often its [on_done] fired, and whether every
   firing already saw [lease_done].  [on_done] may run before [submit]
   returns the lease it belongs to, so the lease is published separately. *)
type watched = { lease : Micropool.lease option Atomic.t; fired : int Atomic.t; early : bool Atomic.t }

let watch () = { lease = Atomic.make None; fired = Atomic.make 0; early = Atomic.make false }

let on_done w () =
  (match Atomic.get w.lease with
  | Some l when Micropool.lease_done l -> ()
  | _ -> Atomic.set w.early true);
  Atomic.incr w.fired

let submit_watched pool groups =
  let w = watch () in
  Atomic.set w.lease (Some (Micropool.submit ~on_done:(on_done w) pool groups));
  w

(* Submit [leases] leases of [groups] gated groups each on a 2-worker pool,
   open the gate, and check each [on_done] fired once, after [lease_done]. *)
let check_on_done ~leases ~groups () =
  let pool = Micropool.shared 2 in
  let gate = Atomic.make false in
  let ws =
    List.init leases (fun l ->
        submit_watched pool
          (List.init groups (fun g ->
               List.init 3 (fun i -> gated gate (Printf.sprintf "l%d.g%d.s%d" l g i)))))
  in
  List.iter (fun w -> check_int "not fired while gated" 0 (Atomic.get w.fired)) ws;
  Atomic.set gate true;
  List.iter (fun w -> Micropool.await (Option.get (Atomic.get w.lease))) ws;
  (* joining the workers orders every [on_done] before the checks *)
  Micropool.shutdown pool;
  List.iter
    (fun w ->
      check_int "fired exactly once" 1 (Atomic.get w.fired);
      check_bool "fired after lease_done" false (Atomic.get w.early))
    ws

let test_on_done_empty_lease () =
  let pool = Micropool.shared 1 in
  let w = watch () in
  let l = Micropool.submit ~on_done:(on_done w) pool [] in
  check_int "fired on submit" 1 (Atomic.get w.fired);
  check_bool "empty lease is done" true (Micropool.lease_done l);
  Micropool.shutdown pool;
  check_int "still once" 1 (Atomic.get w.fired)

(* A detector's stages finish only once its run ends: aborting the replay
   session that drives it must still complete the lease and fire once. *)
let test_on_done_aborted_session () =
  let pool = Micropool.shared 2 in
  let det, stages = Option.get (Systems.make_detector ~shards:2 "pint") in
  let s = Replay.Session.create det in
  let w = submit_watched pool (Systems.micropools stages) in
  check_bool "multi-group lease" true (List.length (Systems.micropools stages) > 1);
  check_int "not fired while the session runs" 0 (Atomic.get w.fired);
  Replay.Session.abort s;
  Micropool.await (Option.get (Atomic.get w.lease));
  Micropool.shutdown pool;
  check_int "fired exactly once" 1 (Atomic.get w.fired);
  check_bool "fired after lease_done" false (Atomic.get w.early)

(* Pinning through the shared pool: k groups submitted to a fresh k-worker
   pool run one group per worker domain, and no stage ever changes domain.
   Each stage records the domain of every step it takes.  A [Par_exec] run
   without stage groups starts no pool: only its core workers. *)
let test_pinning () =
  let k = 3 and per_group = 2 in
  let seen = Array.init k (fun _ -> Array.init per_group (fun _ -> ref [])) in
  let stage g i =
    let steps = ref 0 in
    Stage.make ~name:(Printf.sprintf "g%d.s%d" g i) (fun () ->
        let d = (Domain.self () :> int) in
        let cell = seen.(g).(i) in
        if not (List.mem d !cell) then cell := d :: !cell;
        incr steps;
        if !steps >= 50 then Step.finished else Step.worked 1)
  in
  let pool = Micropool.shared k in
  Micropool.await (Micropool.submit pool (List.init k (fun g -> List.init per_group (stage g))));
  Micropool.shutdown pool;
  let group_domain g =
    Array.iteri
      (fun i cell ->
        check_int (Printf.sprintf "g%d.s%d ran on one domain" g i) 1 (List.length !cell))
      seen.(g);
    let d = List.hd !(seen.(g).(0)) in
    Array.iter
      (fun cell -> check_int (Printf.sprintf "g%d shares a domain" g) d (List.hd !cell))
      seen.(g);
    d
  in
  let ds = List.init k group_domain in
  check_int "one domain per group" k (List.length (List.sort_uniq compare ds));
  let config = { Par_exec.default_config with n_workers = 2; pools = [] } in
  let r = Par_exec.run ~config ~driver:(fun _ -> Hooks.null_hooks) (fun () -> ()) in
  check_int "n_domains = n_workers" 2 r.Par_exec.n_domains

let () =
  Alcotest.run "pint_engine"
    [
      ( "engine",
        [
          Alcotest.test_case "step helpers" `Quick test_step_helpers;
          Alcotest.test_case "stage metrics" `Quick test_stage_metrics;
          Alcotest.test_case "stage diagnostics keys" `Quick test_stage_diagnostics_keys;
          Alcotest.test_case "pipeline drives to done" `Quick test_pipeline_drive_completes;
          Alcotest.test_case "producer/consumer backpressure" `Quick
            test_pipeline_producer_consumer;
          Alcotest.test_case "pipeline diagnostics" `Quick test_pipeline_diagnostics;
          Alcotest.test_case "backoff terminates" `Quick test_backoff_terminates;
        ] );
      ( "micropool",
        [
          Alcotest.test_case "on_done: one-slot lease" `Quick (check_on_done ~leases:1 ~groups:1);
          Alcotest.test_case "on_done: multi-slot leases" `Quick
            (check_on_done ~leases:8 ~groups:4);
          Alcotest.test_case "on_done: empty lease" `Quick test_on_done_empty_lease;
          Alcotest.test_case "on_done: aborted session" `Quick test_on_done_aborted_session;
          Alcotest.test_case "one group per fresh worker" `Quick test_pinning;
        ] );
    ]
