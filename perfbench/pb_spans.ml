(* In-memory span recorder for the traced run.

   The benchmark wraps its own calls into each layer's public functions;
   nothing inside lib/ is instrumented.  A span holds a name, start, end,
   the span that caused it and the op it belongs to.  Spans are kept in
   memory and written out when the run ends.  With recording off,
   [with_] calls its body directly. *)

type span = {
  id : int;
  name : string;
  parent : int;  (** -1 for an op's root span *)
  op : int;
  start : int;  (** ns, monotonic *)
  stop : int;
  calls : int;  (** > 1 for an aggregate of many short calls *)
}

let on = ref false
let op = ref 0
let next_id = ref 0
let stack : (int * int) list ref = ref [] (* (id, start) of the open spans *)
let recorded : span list ref = ref []

let record ~id ~name ~parent ~start ~stop ~calls =
  recorded := { id; name; parent; op = !op; start; stop; calls } :: !recorded

let parent () = match !stack with (p, _) :: _ -> p | [] -> -1

let with_ name f =
  if not !on then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = parent () in
    let start = Pb_time.now_ns () in
    stack := (id, start) :: !stack;
    let close () =
      let stop = Pb_time.now_ns () in
      stack := List.tl !stack;
      record ~id ~name ~parent ~start ~stop ~calls:1
    in
    match f () with
    | r ->
        close ();
        r
    | exception e ->
        close ();
        raise e
  end

(* Time accumulated over many calls too short to record one by one (the
   detector's hook callbacks), recorded as one child of the open span.  It
   is laid out from the parent's start: only its length is meaningful. *)
type acc = { mutable ns : int; mutable calls : int }

let acc () = { ns = 0; calls = 0 }

let charge a t0 =
  a.ns <- a.ns + (Pb_time.now_ns () - t0);
  a.calls <- a.calls + 1

let flush_acc name a =
  if !on && a.calls > 0 then begin
    let id = !next_id in
    incr next_id;
    let start = match !stack with (_, s) :: _ -> s | [] -> Pb_time.now_ns () in
    record ~id ~name ~parent:(parent ()) ~start ~stop:(start + a.ns) ~calls:a.calls
  end;
  a.ns <- 0;
  a.calls <- 0

(* Self time per span: its duration minus the time its children cover.
   Returns, per op, the list of (name, self ns). *)
let self_times () =
  let spans = List.rev !recorded in
  let child_ns = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        let prev = Option.value (Hashtbl.find_opt child_ns s.parent) ~default:0 in
        Hashtbl.replace child_ns s.parent (prev + (s.stop - s.start)))
    spans;
  List.map
    (fun s ->
      let c = Option.value (Hashtbl.find_opt child_ns s.id) ~default:0 in
      (s.op, s.name, s.stop - s.start - c))
    spans

let write path =
  let oc = open_out path in
  output_string oc "[\n";
  List.iteri
    (fun i s ->
      Printf.fprintf oc
        "%s{\"id\":%d,\"name\":%S,\"parent\":%d,\"op\":%d,\"start_ns\":%d,\"end_ns\":%d,\"calls\":%d}\n"
        (if i = 0 then "" else ",")
        s.id s.name s.parent s.op s.start s.stop s.calls)
    (List.rev !recorded);
  output_string oc "]\n";
  close_out oc
