exception Corrupt of string

let corrupt fmt = Printf.ksprintf (fun s -> raise (Corrupt s)) fmt

type outcome = {
  detector : string;
  n_strands : int;
  races : Report.race list;
  diagnostics : (string * float) list;
}

type strand_observer = sp:Sp_order.t -> pos:int -> Tracefile.entry -> Srec.t -> unit

(* One open sync block.  The executors keep a per-scope frame and
   save/restore it around [Fj.scope]; scope entry/exit is not a strand
   boundary, so it is invisible in the trace.  What the trace does record is
   which sync record every spawn and sync links to ([b_uid] below, the sync's
   uid in the original run) — and since blocks close innermost-first, a stack
   keyed by those links reconstructs the scope nesting exactly.  [b_sp] is
   mutable because every non-first spawn of a block refreshes the sync
   strand's position in the order maintenance structure. *)
type block = { mutable b_sp : Sp_order.strand; b_rec : Srec.t; b_uid : int }

(* Push one strand's recorded effects through the detector: accesses go
   through the sink (so sink-level detectors and coalescers see the run),
   ledgers and executor-side fields are restored on the record directly.
   The record's interval sets are pre-filled too — detectors that coalesce
   in their own sink will overwrite them with identical arrays, detectors
   that don't (the baseline) still leave a fully-populated record. *)
let push_effects ~aspace ~(sink : Access.sink) (e : Tracefile.entry) (r : Srec.t) =
  Array.iter
    (fun (iv : Interval.t) ->
      sink.Access.on_read ~addr:iv.Interval.lo ~len:(iv.Interval.hi - iv.Interval.lo + 1))
    e.Tracefile.reads;
  Array.iter
    (fun (iv : Interval.t) ->
      sink.Access.on_write ~addr:iv.Interval.lo ~len:(iv.Interval.hi - iv.Interval.lo + 1))
    e.Tracefile.writes;
  if e.Tracefile.compute > 0 then sink.Access.on_compute ~amount:e.Tracefile.compute;
  List.iter
    (fun (b, l) ->
      (* make the recorded free replayable on this (fresh) address space *)
      Aspace.reserve aspace ~base:b ~len:l;
      sink.Access.on_free ~base:b ~len:l)
    e.Tracefile.frees;
  r.Srec.reads <- e.Tracefile.reads;
  r.Srec.writes <- e.Tracefile.writes;
  r.Srec.raw_reads <- e.Tracefile.raw_reads;
  r.Srec.raw_writes <- e.Tracefile.raw_writes;
  r.Srec.work <- e.Tracefile.work;
  r.Srec.compute <- e.Tracefile.compute;
  r.Srec.clears <- e.Tracefile.clears;
  r.Srec.finished_at <- e.Tracefile.finished_at;
  r.Srec.cost <- e.Tracefile.cost

(* ---------------------------------------------------------------- the walk *)

(* The canonical depth-first walk: the one place a strand is replayed.
   Entries are offered as they become available (a whole file's array for
   [drive], decoded stream chunks for a [Session]), and the walk advances
   exactly while the next strand's entry has arrived, so it can suspend
   wherever the input is still short.  Pending strands live on an explicit
   stack: a spawn pushes its continuation and then its child (child on top
   = DFS), a sync pushes the block's sync strand, a return (or the root's
   final strand) ends the chain.  Replay records get uids in creation
   order (continuation, first-sync, child, then the child subtree), so
   every caller sees the same strand ids and, by Theorem 5, the same race
   set.  Stolen/trivial flags from the capture schedule are deliberately
   dropped — replay is the serial elision.  A serially captured trace
   (entries in finish order = DFS order) replays with O(1) entries
   buffered; a parallel capture buffers only its schedule skew. *)
module Walker = struct
  type pend = {
    p_uid : int; (* trace uid of the entry this strand replays *)
    p_rec : Srec.t;
    p_start : Events.start_kind;
    p_blocks : block list ref; (* shared along a chain, fresh per child *)
    p_parent_sync : Srec.t option;
  }

  type t = {
    w_aspace : Aspace.t;
    w_hooks : Hooks.t;
    w_sink : Access.sink;
    w_sp : Sp_order.t;
    w_cur : Srec.t ref;
    w_root_rec : Srec.t;
    w_on_strand : strand_observer option;
    (* arrived, not yet replayed: uid -> (entry, arrival order) — arrival
       order is the observed-schedule position, the entry's index in the
       file *)
    w_by_uid : (int, Tracefile.entry * int) Hashtbl.t;
    mutable w_arrived : int; (* entries offered *)
    mutable w_next_uid : int; (* last replay uid assigned *)
    mutable w_stack : pend list; (* DFS work stack; hd is next *)
    mutable w_started : bool; (* root entry arrived *)
    mutable w_visited : int; (* strands replayed *)
    mutable w_done : bool; (* on_done fired (end of input or abort) *)
  }

  (* Hooks are created eagerly: a caller running the detector's stages on
     pool domains submits them right after [create], which requires the
     driver's run to be set up. *)
  let create ?aspace ?on_strand (driver : Hooks.driver) =
    let aspace = match aspace with Some a -> a | None -> Aspace.create () in
    let sp, root_sp = Sp_order.create () in
    let root_rec = Srec.make ~uid:1 root_sp in
    let cur = ref root_rec in
    let hooks = driver { Hooks.aspace; sp; n_workers = 1; current = (fun ~wid:_ -> !cur) } in
    {
      w_aspace = aspace;
      w_hooks = hooks;
      w_sink = hooks.Hooks.sink ~wid:0;
      w_sp = sp;
      w_cur = cur;
      w_root_rec = root_rec;
      w_on_strand = on_strand;
      w_by_uid = Hashtbl.create 256;
      w_arrived = 0;
      w_next_uid = 1;
      w_stack = [];
      w_started = false;
      w_visited = 0;
      w_done = false;
    }

  let fresh w s =
    w.w_next_uid <- w.w_next_uid + 1;
    Srec.make ~uid:w.w_next_uid s

  (* Replay strand [p] from its entry [e], then push what the recorded DAG
     says runs next. *)
  let replay_strand w (p : pend) (e : Tracefile.entry) pos =
    let r = p.p_rec in
    w.w_cur := r;
    w.w_hooks.Hooks.on_start ~wid:0 r p.p_start;
    push_effects ~aspace:w.w_aspace ~sink:w.w_sink e r;
    (match w.w_on_strand with None -> () | Some f -> f ~sp:w.w_sp ~pos e r);
    w.w_visited <- w.w_visited + 1;
    match e.Tracefile.finish with
    | Tracefile.Spawn { cont; sync; child; first } ->
        let blocks = p.p_blocks in
        let sync_pre, open_block =
          if first then (None, None)
          else
            match !blocks with
            | top :: _ ->
                if top.b_uid <> sync then
                  corrupt "strand %d: spawn links sync %d but the open block's sync is %d"
                    e.Tracefile.uid sync top.b_uid;
                (Some top.b_sp, Some top)
            | [] -> corrupt "strand %d: non-first spawn with no open sync block" e.Tracefile.uid
        in
        let child_sp, cont_sp, sync_sp = Sp_order.spawn w.w_sp ~sync_pre r.Srec.sp in
        let cont_rec = fresh w cont_sp in
        let sync_rec =
          match open_block with
          | Some b ->
              b.b_sp <- sync_sp;
              b.b_rec
          | None ->
              let sr = fresh w sync_sp in
              blocks := { b_sp = sync_sp; b_rec = sr; b_uid = sync } :: !blocks;
              sr
        in
        Book.at_spawn ~u:r ~cont:cont_rec ~sync:sync_rec ~first;
        w.w_hooks.Hooks.on_finish ~wid:0 r
          (Events.F_spawn { cont = cont_rec; sync = sync_rec; first_of_block = first });
        let child_rec = fresh w child_sp in
        w.w_stack <-
          {
            p_uid = child;
            p_rec = child_rec;
            p_start = Events.S_child;
            p_blocks = ref [];
            p_parent_sync = Some sync_rec;
          }
          :: {
               p_uid = cont;
               p_rec = cont_rec;
               p_start = Events.S_cont { stolen = false };
               p_blocks = blocks;
               p_parent_sync = p.p_parent_sync;
             }
          :: w.w_stack
    | Tracefile.Sync { trivial = _; sync } ->
        let top, rest =
          match !(p.p_blocks) with
          | top :: rest -> (top, rest)
          | [] -> corrupt "strand %d: sync finish with no open sync block" e.Tracefile.uid
        in
        if top.b_uid <> sync then
          corrupt "strand %d: sync finish links sync %d but the open block's sync is %d"
            e.Tracefile.uid sync top.b_uid;
        w.w_hooks.Hooks.on_finish ~wid:0 r (Events.F_sync { trivial = true; sync = top.b_rec });
        p.p_blocks := rest;
        w.w_stack <-
          {
            p_uid = sync;
            p_rec = top.b_rec;
            p_start = Events.S_after_sync { trivial = true };
            p_blocks = p.p_blocks;
            p_parent_sync = p.p_parent_sync;
          }
          :: w.w_stack
    | Tracefile.Return _ ->
        if !(p.p_blocks) <> [] then
          corrupt "strand %d: return with %d open sync block(s)" e.Tracefile.uid
            (List.length !(p.p_blocks));
        w.w_hooks.Hooks.on_finish ~wid:0 r
          (Events.F_return { cont_stolen = false; parent_sync = p.p_parent_sync })
    | Tracefile.Root ->
        if !(p.p_blocks) <> [] then
          corrupt "strand %d: root finish with %d open sync block(s)" e.Tracefile.uid
            (List.length !(p.p_blocks));
        w.w_hooks.Hooks.on_finish ~wid:0 r Events.F_root

  (* Replay as far as the arrived entries allow. *)
  let rec advance w =
    match w.w_stack with
    | p :: rest -> (
        match Hashtbl.find_opt w.w_by_uid p.p_uid with
        | Some (e, pos) ->
            Hashtbl.remove w.w_by_uid p.p_uid;
            w.w_stack <- rest;
            replay_strand w p e pos;
            advance w
        | None -> ())
    | [] -> ()

  (* Make one entry available.  Only the entry the walk is waiting for
     (the top of the stack) can unblock it. *)
  let offer w (e : Tracefile.entry) =
    if e.Tracefile.start = Events.S_root then begin
      if w.w_started then corrupt "trace has more than one root strand";
      w.w_started <- true;
      w.w_stack <-
        {
          p_uid = e.Tracefile.uid;
          p_rec = w.w_root_rec;
          p_start = Events.S_root;
          p_blocks = ref [];
          p_parent_sync = None;
        }
        :: w.w_stack
    end;
    Hashtbl.replace w.w_by_uid e.Tracefile.uid (e, w.w_arrived);
    w.w_arrived <- w.w_arrived + 1;
    match w.w_stack with p :: _ when p.p_uid = e.Tracefile.uid -> advance w | _ -> ()

  (* End of input: every one of the [expected] entries replayed exactly
     once from a single root; then [on_done] lets the detector's pipeline
     stages reach [`Done]. *)
  let finish w ~expected =
    (match w.w_stack with
    | p :: _ -> corrupt "trace links to unknown strand uid %d" p.p_uid
    | [] -> ());
    if not w.w_started then corrupt "trace has no root strand";
    if w.w_visited <> expected then
      corrupt "replay visited %d strands but the trace holds %d" w.w_visited expected;
    if Hashtbl.length w.w_by_uid <> 0 then
      corrupt "trace holds %d strand(s) unreachable from the root" (Hashtbl.length w.w_by_uid);
    w.w_done <- true;
    w.w_hooks.Hooks.on_done ()

  (* End a failed walk so pipeline stages still reach [`Done] and pool
     domains are not wedged on a dead run.  Idempotent. *)
  let abort w =
    if not w.w_done then begin
      w.w_done <- true;
      w.w_hooks.Hooks.on_done ()
    end

  (* A whole in-memory trace, in file order. *)
  let walk w (tf : Tracefile.t) =
    Array.iter (offer w) tf.Tracefile.entries;
    finish w ~expected:(Tracefile.entry_count tf);
    w.w_visited
end

let drive ?aspace ?on_strand tf driver = Walker.walk (Walker.create ?aspace ?on_strand driver) tf

let run ?aspace ?(wrap = fun d -> d) ?(pools = []) ?on_strand tf (d : Detector.t) =
  (* Real-domain replay: the detector's pipeline stages run on a shared
     micropool concurrently with the (still single-threaded, deterministic)
     strand feed — the same producer/consumer topology as a live
     [Par_exec] run, driven from a reproducible schedule.  The walker sets
     up the detector's run before the stages are submitted; whether the
     walk ends or fails, [on_done] lets every stage reach [`Done], so the
     lease completes and the pool shuts down.  The drain after it is then
     a no-op pass that only publishes latencies. *)
  let w = Walker.create ?aspace ?on_strand (wrap d.Detector.driver) in
  let n =
    match pools with
    | [] -> Walker.walk w tf
    | groups ->
        let sh = Micropool.shared (List.length groups) in
        let lease = Micropool.submit sh groups in
        Fun.protect
          ~finally:(fun () ->
            Walker.abort w;
            Micropool.await lease;
            Micropool.shutdown sh)
          (fun () -> Walker.walk w tf)
  in
  d.Detector.drain ();
  {
    detector = d.Detector.name;
    n_strands = n;
    races = Report.races d.Detector.report;
    diagnostics = d.Detector.diagnostics ();
  }

(* ---------------------------------------------------------------- sessions *)

(* Push-driven replay: a walker fed from an incremental decoder.  Entries
   arrive in stream order — the same observed-schedule positions offline
   replay reads off the file — so a session's race set is bit-identical to
   the offline replay's at the Theorem-5 (kind, prior, current)
   granularity. *)
module Session = struct
  type t = {
    s_det : Detector.t;
    s_dec : Tracefile.Decoder.t;
    s_walk : Walker.t;
    s_seen : (Report.kind * int * int, unit) Hashtbl.t; (* races already returned *)
  }

  let create ?aspace ?(wrap = fun d -> d) ?max_pending ?on_strand (det : Detector.t) =
    {
      s_det = det;
      s_dec = Tracefile.Decoder.create ?max_pending ();
      s_walk = Walker.create ?aspace ?on_strand (wrap det.Detector.driver);
      s_seen = Hashtbl.create 64;
    }

  (* Races reported since the last call, at Theorem-5 key granularity.
     [Report.races] is safe to poll while pool domains are still adding. *)
  let new_races t =
    List.filter
      (fun (r : Report.race) ->
        let k = (r.Report.kind, r.Report.prior, r.Report.current) in
        if Hashtbl.mem t.s_seen k then false
        else begin
          Hashtbl.replace t.s_seen k ();
          true
        end)
      (Report.races t.s_det.Detector.report)

  let rec offer_decoded t =
    match Tracefile.Decoder.next t.s_dec with
    | None -> ()
    | Some e ->
        Walker.offer t.s_walk e;
        offer_decoded t

  let feed t ?pos ?len chunk =
    if t.s_walk.Walker.w_done then invalid_arg "Replay.Session.feed: session already finished";
    Tracefile.Decoder.feed t.s_dec ?pos ?len chunk;
    offer_decoded t;
    new_races t

  let eof t =
    if t.s_walk.Walker.w_done then invalid_arg "Replay.Session.eof: session already finished";
    Tracefile.Decoder.finish t.s_dec;
    offer_decoded t;
    Walker.finish t.s_walk
      ~expected:(Option.value ~default:0 (Tracefile.Decoder.entries_expected t.s_dec));
    new_races t

  let abort t = Walker.abort t.s_walk
  let poll_races t = new_races t
  let finished t = t.s_walk.Walker.w_done
  let fed_strands t = t.s_walk.Walker.w_visited
  let fed_bytes t = Tracefile.Decoder.fed_bytes t.s_dec
  let meta t = Option.map snd (Tracefile.Decoder.header t.s_dec)

  let outcome t =
    if not (finished t) then invalid_arg "Replay.Session.outcome: session still streaming";
    {
      detector = t.s_det.Detector.name;
      n_strands = fed_strands t;
      races = Report.races t.s_det.Detector.report;
      diagnostics = t.s_det.Detector.diagnostics ();
    }
end

(* ------------------------------------------------------------ differential *)

type divergence = { left_only : Report.race list; right_only : Report.race list }

let no_divergence d = d.left_only = [] && d.right_only = []

let key (r : Report.race) = (r.Report.kind, r.Report.prior, r.Report.current)

let diff_races a b =
  let tbl_of l =
    let t = Hashtbl.create 64 in
    List.iter (fun r -> Hashtbl.replace t (key r) ()) l;
    t
  in
  let ta = tbl_of a and tb = tbl_of b in
  {
    left_only = List.filter (fun r -> not (Hashtbl.mem tb (key r))) a;
    right_only = List.filter (fun r -> not (Hashtbl.mem ta (key r))) b;
  }

let differential tf da db =
  let oa = run tf da in
  let ob = run tf db in
  diff_races oa.races ob.races

let pp_divergence fmt d =
  if no_divergence d then Format.fprintf fmt "race sets agree"
  else begin
    List.iter (fun r -> Format.fprintf fmt "< %a@." Report.pp_race r) d.left_only;
    List.iter (fun r -> Format.fprintf fmt "> %a@." Report.pp_race r) d.right_only
  end
