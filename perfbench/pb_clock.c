/* Monotonic nanosecond clock for the benchmark's own timers: OCaml 5.1's
   Unix library offers only gettimeofday (microseconds, not monotonic). */
#include <time.h>
#include <caml/mlvalues.h>

value pb_now_ns(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return Val_long((long)ts.tv_sec * 1000000000L + ts.tv_nsec);
}
