(* Order statistics over a run's samples. *)

let sorted a =
  let c = Array.copy a in
  Array.sort Float.compare c;
  c

(* Linear interpolation between closest ranks (numpy's default). *)
let quantile a q =
  let s = sorted a in
  let n = Array.length s in
  if n = 0 then 0.
  else
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i + 1 >= n then s.(n - 1) else s.(i) +. ((pos -. float_of_int i) *. (s.(i + 1) -. s.(i)))

let median a = quantile a 0.5

(* The highest percentile that still has [beyond] samples above it: the
   ([beyond]+1)-th largest sample.  Returns the value and its percentile;
   with [beyond] or fewer samples, the maximum. *)
let tail ?(beyond = 10) a =
  let s = sorted a in
  let n = Array.length s in
  if n = 0 then (0., 0.)
  else if n <= beyond then (s.(n - 1), 100.)
  else
    let i = n - 1 - beyond in
    (s.(i), 100. *. float_of_int (i + 1) /. float_of_int n)
