(* Shard micropools: the fixed stage-to-domain topology of the real
   executor (following the pinned-pool pattern of the ebsl OCaml-multicore
   work).

   K worker domains, each cooperatively round-robining the stage groups
   assigned to it — for PINT, one group is shard k's {writer, lreader,
   rreader} treap triple — until every stage reports [`Done].  A group is
   pinned for its whole lifetime: it is assigned to exactly one worker at
   submission and never migrates, so all the single-owner state the stages
   carry (treaps, scratch buffers, consume buffers, AHQ cursors, event
   rings) keeps exactly one writing domain without any synchronization.
   (OCaml exposes no portable OS-core affinity API, so "pinned" means
   pinned to a domain; the OS scheduler keeps a busy domain on its core in
   practice.)  The three stages of one shard share one lane's data anyway,
   so co-scheduling them is cache-friendly; a worker backs off with the
   engine {!Backoff} only when everything it holds is unproductive.

   One loop serves both uses.  A per-run pool ([Par_exec], [Replay.run
   ?pools]) is [shared k] + [submit] of its k groups (one per worker) +
   [await] + [shutdown]; a long-lived daemon (pint_serve) keeps the
   workers and submits one tenant's groups at a time.  Only the handoff is
   synchronized: a submission enqueues under the worker's mutex, and the
   worker adopts pending groups into its private active set.  Completion
   flows back through one atomic per slot, plus one countdown per lease
   whose last decrement fires the lease's [on_done]. *)

(* Shared by every slot of one lease: slots not yet retired, and the
   callback the retirement of the last one fires. *)
type countdown = { cd_left : int Atomic.t; cd_on_done : unit -> unit }

type slot = {
  sl_stages : Stage.t array;
  sl_finished : bool array; (* adopting worker's private done flags *)
  mutable sl_remaining : int;
  sl_done : bool Atomic.t; (* set by the worker when the last stage is Done *)
  sl_lease : countdown;
}

type worker = {
  w_id : int;
  w_lock : Mutex.t;
  mutable w_incoming : slot list; (* guarded by [w_lock] *)
  w_pending : int Atomic.t; (* |w_incoming|, checked without the lock *)
  w_load : int Atomic.t; (* slots assigned and not yet retired *)
  mutable w_active : slot list; (* worker-domain private *)
  w_ring : Evring.t; (* the worker domain's own obs track (Evring.null off) *)
  mutable w_parks : int; (* deep-backoff episodes: idle diagnostics *)
}

type shared = {
  sh_workers : worker array;
  sh_domains : unit Domain.t array;
  sh_stop : bool Atomic.t;
  sh_rr : int Atomic.t; (* submission tie-break cursor *)
}

type lease = slot list

let adopt w =
  if Atomic.get w.w_pending > 0 then begin
    Mutex.lock w.w_lock;
    let incoming = w.w_incoming in
    w.w_incoming <- [];
    Atomic.set w.w_pending 0;
    Mutex.unlock w.w_lock;
    (* preserve arrival order for fairness; incoming is push-front *)
    w.w_active <- w.w_active @ List.rev incoming
  end

(* Step every unfinished stage of the slot once; true iff any step
   progressed.  [`Idle]/[`Stalled] steps are counted by the stages
   themselves (Stage.exec), so per-stage diagnostics stay attributable even
   though the worker shares its domain among groups. *)
let step_slot sl =
  let progressed = ref false in
  for i = 0 to Array.length sl.sl_stages - 1 do
    if not sl.sl_finished.(i) then begin
      let st = Stage.exec sl.sl_stages.(i) in
      if Step.is_done st then begin
        sl.sl_finished.(i) <- true;
        sl.sl_remaining <- sl.sl_remaining - 1
      end
      else if Step.progressed st then progressed := true
    end
  done;
  !progressed

(* [step_slot] runs on every slot, whatever the earlier ones returned. *)
let rec step_slots progressed = function
  | [] -> progressed
  | sl :: rest -> step_slots (step_slot sl || progressed) rest

let is_retired sl = sl.sl_remaining = 0

let retire w sl =
  Atomic.set sl.sl_done true;
  Atomic.decr w.w_load;
  (* every other slot of the lease set its [sl_done] before its own
     decrement, so the last decrementer sees them all *)
  if Atomic.fetch_and_add sl.sl_lease.cd_left (-1) = 1 then sl.sl_lease.cd_on_done ()

(* The one stage loop: round-robin every active slot; any productive step
   or retirement resets the backoff ladder.  A round in which no slot
   retires allocates nothing — the active list is rebuilt only when some
   slot has finished. *)
let run_worker stop w =
  let idle_rounds = ref 0 in
  let running = ref true in
  while !running do
    adopt w;
    let progressed = step_slots false w.w_active in
    let retired = List.exists is_retired w.w_active in
    if retired then
      w.w_active <-
        List.filter
          (fun sl ->
            if is_retired sl then begin
              retire w sl;
              false
            end
            else true)
          w.w_active;
    if w.w_active = [] && Atomic.get w.w_pending = 0 && Atomic.get stop then running := false
    else if progressed || retired then idle_rounds := 0
    else begin
      incr idle_rounds;
      if !idle_rounds = Backoff.yield_round then begin
        (* entering the parked regime: one instant per park episode,
           emitted from the worker's own domain into its own ring *)
        w.w_parks <- w.w_parks + 1;
        Evring.emit w.w_ring ~kind:Ev.park ~arg:w.w_id
      end;
      Backoff.relax !idle_rounds
    end
  done

let shared ?(rings = [||]) k =
  if k < 1 then invalid_arg "Micropool.shared: need at least one worker";
  let workers =
    Array.init k (fun i ->
        {
          w_id = i;
          w_lock = Mutex.create ();
          w_incoming = [];
          w_pending = Atomic.make 0;
          w_load = Atomic.make 0;
          w_active = [];
          w_ring = (if i < Array.length rings then rings.(i) else Evring.null);
          w_parks = 0;
        })
  in
  let stop = Atomic.make false in
  let domains = Array.map (fun w -> Domain.spawn (fun () -> run_worker stop w)) workers in
  { sh_workers = workers; sh_domains = domains; sh_stop = stop; sh_rr = Atomic.make 0 }

let submit ?(on_done = ignore) sh (groups : Stage.t list list) : lease =
  if Atomic.get sh.sh_stop then invalid_arg "Micropool.submit: pool is shutting down";
  let lease = { cd_left = Atomic.make (List.length groups); cd_on_done = on_done } in
  (* a lease with no groups is done on arrival *)
  if groups = [] then on_done ();
  List.map
    (fun g ->
      let stages = Array.of_list g in
      let sl =
        {
          sl_stages = stages;
          sl_finished = Array.make (Array.length stages) false;
          sl_remaining = Array.length stages;
          sl_done = Atomic.make false;
          sl_lease = lease;
        }
      in
      (* least-loaded worker; the round-robin cursor breaks ties, so k
         groups submitted to a fresh k-worker pool land one per worker *)
      let k = Array.length sh.sh_workers in
      let start = Atomic.fetch_and_add sh.sh_rr 1 mod k in
      let best = ref sh.sh_workers.(start) in
      for i = 1 to k - 1 do
        let w = sh.sh_workers.((start + i) mod k) in
        if Atomic.get w.w_load < Atomic.get !best.w_load then best := w
      done;
      let w = !best in
      Atomic.incr w.w_load;
      Mutex.lock w.w_lock;
      w.w_incoming <- sl :: w.w_incoming;
      Atomic.incr w.w_pending;
      Mutex.unlock w.w_lock;
      sl)
    groups

let lease_done (l : lease) = List.for_all (fun sl -> Atomic.get sl.sl_done) l

let await l =
  let r = ref 0 in
  while not (lease_done l) do
    incr r;
    Backoff.relax !r
  done

let shutdown sh =
  Atomic.set sh.sh_stop true;
  Array.iter Domain.join sh.sh_domains

let shared_parks sh = Array.fold_left (fun acc w -> acc + w.w_parks) 0 sh.sh_workers
let n_shared_workers sh = Array.length sh.sh_workers
