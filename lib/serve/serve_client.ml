type result = {
  session : int;
  races : (Report.kind * int * int * Interval.t) list;
  predicted : (Report.kind * int * int * Interval.t) list;
  n_strands : int;
  n_races : int;
  stats : (string * string) list;
}

let default_chunk = 65536

(* Blocking single-session client: handshake, stream the trace image in
   transport chunks, then read race batches until the final summary.  The
   server never blocks on us (its writes queue), so reading only after the
   full upload cannot deadlock: the upload drains because the server keeps
   reading, and race frames wait in its out queue. *)

let read_frame fd frames =
  let buf = Bytes.create 65536 in
  let rec go () =
    match Serve_proto.Frames.next frames with
    | Some payload -> Some (Serve_proto.decode_server payload)
    | None -> (
        match Unix.read fd buf 0 (Bytes.length buf) with
        | 0 -> None
        | n ->
            Serve_proto.Frames.feed frames ~len:n (Bytes.unsafe_to_string buf);
            go ()
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ())
  in
  go ()

let send_all fd s =
  let n = String.length s in
  let rec go off =
    if off < n then
      match Unix.write_substring fd s off (n - off) with
      | w -> go (off + w)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
  in
  go 0

let run ?(chunk = default_chunk) ?(shards = 0) ?(predict = 0) ~addr trace_bytes =
  let fd = Unix.socket (Unix.domain_of_sockaddr addr) Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect fd addr;
      let frames = Serve_proto.Frames.create () in
      (* a daemon at capacity answers ['X'] on accept and may close before
         the Hello lands: the write then fails, but the reject is already
         here to read *)
      (try
         send_all fd
           (Serve_proto.encode_client
              (Serve_proto.Hello { version = Serve_proto.protocol_version; shards; predict }))
       with Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> ());
      match read_frame fd frames with
      | None -> Error "connection closed during handshake"
      | Some (Serve_proto.Reject msg) -> Error msg
      | Some (Serve_proto.Accepted { session }) -> (
          let n = String.length trace_bytes in
          let off = ref 0 in
          while !off < n do
            let len = min chunk (n - !off) in
            send_all fd
              (Serve_proto.encode_client (Serve_proto.Data (String.sub trace_bytes !off len)));
            off := !off + len
          done;
          send_all fd (Serve_proto.encode_client Serve_proto.End);
          let races = ref [] in
          let rec collect () =
            match read_frame fd frames with
            | None -> Error "connection closed before summary"
            | Some (Serve_proto.Races rs) ->
                races := List.rev_append rs !races;
                collect ()
            | Some (Serve_proto.Summary { n_strands; n_races; stats; predicted }) ->
                Ok { session; races = List.rev !races; predicted; n_strands; n_races; stats }
            | Some (Serve_proto.Reject msg) -> Error msg
            | Some (Serve_proto.Accepted _) -> Error "unexpected duplicate accept"
          in
          collect ())
      | Some _ -> Error "unexpected first frame")

(* Theorem-5 signature of a served race list, comparable with the offline
   replay's (see test/ and the CI serve smoke job). *)
let signature races =
  List.sort_uniq compare (List.map (fun (k, p, c, _) -> (k, p, c)) races)
