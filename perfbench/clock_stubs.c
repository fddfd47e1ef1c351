/* Monotonic nanosecond clock for the benchmark's own spans. */

#include <time.h>
#include <caml/mlvalues.h>

value nvbench_clock_ns(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return Val_long((long)ts.tv_sec * 1000000000L + (long)ts.tv_nsec);
}

/* CPU time of the calling thread, for comparison with the server's
   per-thread CPU time. */
value nvbench_thread_cpu_ns(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return Val_long((long)ts.tv_sec * 1000000000L + (long)ts.tv_nsec);
}
