(** Monotonic clock in nanoseconds ([CLOCK_MONOTONIC]); allocation-free, so
    reading it inside a measured loop leaves the GC counters untouched. *)

external now_ns : unit -> int = "nvbench_clock_ns" [@@noalloc]

(** CPU time of the calling thread in nanoseconds
    ([CLOCK_THREAD_CPUTIME_ID]); also allocation-free. *)
external thread_cpu_ns : unit -> int = "nvbench_thread_cpu_ns" [@@noalloc]

let seconds_since t0 = float_of_int (now_ns () - t0) *. 1e-9
