(* Monotonic nanoseconds (see pb_clock.c). *)
external now_ns : unit -> int = "pb_now_ns" [@@noalloc]

let ms_of_ns ns = float_of_int ns /. 1e6
