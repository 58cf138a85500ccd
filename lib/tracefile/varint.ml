let write buf n =
  if n < 0 then invalid_arg "Varint.write: negative";
  let rec go n =
    if n < 0x80 then Buffer.add_char buf (Char.chr n)
    else begin
      Buffer.add_char buf (Char.chr (0x80 lor (n land 0x7f)));
      go (n lsr 7)
    end
  in
  go n

type cursor = { data : string; mutable pos : int }

let cursor data = { data; pos = 0 }

let at_end c = c.pos >= String.length c.data

let read_byte c =
  if c.pos >= String.length c.data then failwith "Varint: truncated input";
  let b = Char.code c.data.[c.pos] in
  c.pos <- c.pos + 1;
  b

(* [max_int] has 62 bits: eight full groups plus 6 bits in a ninth byte,
   which must be the last.  A larger ninth byte would continue or shift
   into the sign bit and wrap negative. *)
let read c =
  let rec go shift acc =
    let b = read_byte c in
    if shift = 56 && b > 0x3f then failwith "Varint: value out of range";
    let acc = acc lor ((b land 0x7f) lsl shift) in
    if b land 0x80 = 0 then acc else go (shift + 7) acc
  in
  go 0 0

let read_string c len =
  if len < 0 || c.pos + len > String.length c.data then failwith "Varint: truncated input";
  let s = String.sub c.data c.pos len in
  c.pos <- c.pos + len;
  s
