(** The live run: NVServe in a child process, driven by one closed-loop,
    single-connection client that validates every response.

    A run is {!Gen.trials} server lifetimes. Each one spawns the server,
    preloads every key, times a fixed share of the run's requests (sized by
    {!Gen.timed_batches}) from the workload's seeded stream in pipelined
    batches, scrapes [stats nvlf] and the server's [/proc] CPU around that
    window, then crashes and recovers the server and audits every key over
    TCP against the client's exact record of what the server holds
    ({!Audit.book}). *)

open Pbench

type child = { pid : int; cmd : out_channel; reply : in_channel }

let spawn (w : Gen.workload) ~seed =
  let exe = Sys.executable_name in
  let in_r, in_w = Unix.pipe ~cloexec:true () in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process exe
      [| exe; "serve"; "--workload"; w.name; "--seed"; string_of_int seed |]
      in_r out_w Unix.stderr
  in
  Unix.close in_r;
  Unix.close out_w;
  { pid; cmd = Unix.out_channel_of_descr in_w; reply = Unix.in_channel_of_descr out_r }

(* The words of the server's next reply line after its leading verb. *)
let reply c what =
  match In_channel.input_line c.reply with
  | None -> failwith ("server exited before its " ^ what ^ " reply")
  | Some l -> List.tl (String.split_on_char ' ' l)

let command c verb =
  output_string c.cmd (verb ^ "\n");
  flush c.cmd;
  reply c verb

let quit c =
  (try
     output_string c.cmd "quit\n";
     close_out c.cmd
   with Sys_error _ -> ());
  ignore (Unix.waitpid [] c.pid);
  close_in_noerr c.reply

let kill c =
  (try Unix.kill c.pid Sys.sigkill with Unix.Unix_error _ -> ());
  ignore (Unix.waitpid [] c.pid);
  close_out_noerr c.cmd;
  close_in_noerr c.reply

(* CPU time of every thread of [pid], in ns (per-task schedstat). *)
let proc_cpu_ns pid =
  let dir = Printf.sprintf "/proc/%d/task" pid in
  Array.fold_left
    (fun acc tid ->
      match In_channel.with_open_text (Filename.concat dir (tid ^ "/schedstat")) In_channel.input_line with
      | Some l -> acc + int_of_string (List.hd (String.split_on_char ' ' l))
      | None | (exception Sys_error _) -> acc)
    0 (Sys.readdir dir)

let self_cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* Peak resident set of [pid] in MB ([VmHWM]). *)
let peak_rss_mb pid =
  let lines =
    In_channel.with_open_text (Printf.sprintf "/proc/%d/status" pid) In_channel.input_all
    |> String.split_on_char '\n'
  in
  match List.find_opt (String.starts_with ~prefix:"VmHWM:") lines with
  | None -> nan
  | Some l ->
      let kb = List.filter (( <> ) "") (String.split_on_char ' ' l) |> List.tl |> List.hd in
      float_of_string (String.trim kb) /. 1024.

let connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  fd

(** One connection's client state: the request stream, the record of
    what the server holds, and the failure tally. *)
type session = {
  w : Gen.workload;
  st : Gen.stream;
  book : Audit.book;
  buf : Buffer.t;
  mutable fd : Unix.file_descr;
  mutable rd : Wire.reader;
  mutable attempted : int;
  mutable failed : int;
}

let session (w : Gen.workload) st port =
  let fd = connect port in
  {
    w;
    st;
    book = Audit.book ~keys:st.Gen.keys ~capacity:w.capacity;
    buf = Buffer.create 4096;
    fd;
    rd = Wire.reader fd;
    attempted = 0;
    failed = 0;
  }

let reconnect s port =
  Unix.close s.fd;
  s.fd <- connect port;
  s.rd <- Wire.reader s.fd

let encode s ops = Gen.encode s.st s.buf ops

(* Send one pipelined batch and validate its responses in order. *)
let exchange s ops bytes =
  Wire.write_all s.fd bytes;
  Array.iter (fun op -> if Audit.apply s.book op (Wire.next s.rd) then s.failed <- s.failed + 1) ops;
  s.attempted <- s.attempted + Array.length ops

let bulk s ops = List.iter (fun b -> exchange s b (encode s b)) (Gen.chunks Gen.bulk_batch ops)

let stats_nvlf s =
  Wire.write_all s.fd "stats nvlf\r\n";
  match Wire.next s.rd with
  | Wire.Stats kvs -> fun k -> float_of_string (List.assoc k kvs)
  | _ -> failwith "stats nvlf: unexpected reply"

(** Get every key once: each resident key must read its last acknowledged
    write, each evicted one must miss. Returns [(failures, keys present)]. *)
let audit s =
  let failed0 = s.failed and hits0 = s.book.hits in
  bulk s (Array.init s.w.nkeys (fun k -> Gen.Get k));
  (s.failed - failed0, s.book.hits - hits0)

let median_of f xs = Stats.median (Array.of_list (List.map f xs))

(* Per-window figures of the timed phase: requests per second, p50 and p99
   of the batch round trip in us. *)
type window = { ops_per_s : float; p50 : float; p99 : float }

(* Batches per window: its p99 has ten samples beyond it. Outside load on
   a shared host comes in bursts of a fraction of a second to seconds; the
   median window ignores bursts that cover less than half of the run, while
   a tail the program causes at a steady rate shows in every window. *)
let window_batches = 1000

let windows rtts ends =
  List.map
    (fun (lo, hi) ->
      let lat = Stats.sorted (Array.sub rtts lo (hi - lo)) in
      let start = if lo = 0 then 0. else ends.(lo - 1) in
      {
        ops_per_s = float_of_int ((hi - lo) * Gen.batch) /. ((ends.(hi - 1) -. start) *. 1e-9);
        p50 = Stats.percentile_sorted lat 50.;
        p99 = Stats.percentile_sorted lat 99.;
      })
    (Stats.windows ~size:window_batches (Array.length rtts))

type trial = {
  setup_s : float;
  windows : window list;
  server_cpu_s : float;
  client_cpu_s : float;
  fences : float;
  group_ops : float;
  group_commits : float;
  fence_wait_ns : float;
  recoveries : float list;
  rss_mb : float;
  lost : int;
  t_attempted : int;
  t_failed : int;
}

let run_trial w ~seed ~trial ~nbatches =
  let t_spawn = Clock.now_ns () in
  let child = spawn w ~seed in
  match
    let port = int_of_string (List.hd (reply child "port")) in
    let st = Gen.stream w ~seed ~trial in
    let s = session w st port in
    bulk s (Gen.preload st);
    let setup_s = Clock.seconds_since t_spawn in
    let before = stats_nvlf s in
    let cpu0 = proc_cpu_ns child.pid and ccpu0 = self_cpu_s () in
    let ops = Array.make Gen.batch (Gen.Get 0) in
    let rtts = Stats.samples () and ends = Stats.samples () in
    let t0 = Clock.now_ns () in
    let t_last = ref t0 in
    for _ = 1 to nbatches do
      for i = 0 to Gen.batch - 1 do
        ops.(i) <- Gen.next st
      done;
      let bytes = encode s ops in
      let t = Clock.now_ns () in
      exchange s ops bytes;
      t_last := Clock.now_ns ();
      Stats.push rtts (float_of_int (!t_last - t) /. 1e3);
      Stats.push ends (float_of_int (!t_last - t0))
    done;
    let wins = windows (Stats.to_array rtts) (Stats.to_array ends) in
    let gets = s.book.gets and hits = s.book.hits in
    let cpu1 = proc_cpu_ns child.pid and ccpu1 = self_cpu_s () in
    let after = stats_nvlf s in
    let diff k = after k -. before k in
    let fence_wait_ns = float_of_string (List.hd (command child "spin")) in
    (* Read before the crash: the server keeps a copy of its heap image
       while it times recoveries. *)
    let rss_mb = peak_rss_mb child.pid in
    let recoveries =
      match command child "crash" with
      | port' :: _freed :: (_ :: _ as times) ->
          reconnect s (int_of_string port');
          List.map float_of_string times
      | _ -> failwith "crash: unexpected reply"
    in
    let lost, present = audit s in
    Unix.close s.fd;
    let med f = median_of f wins in
    Printf.eprintf
      "trial %d (window medians): %.0f req/s, p50 %.1f us, p99 %.1f us; setup %.3f s, recoveries %s s, hits %d/%d, %d keys present after recovery\n%!"
      trial
      (med (fun w -> w.ops_per_s))
      (med (fun w -> w.p50))
      (med (fun w -> w.p99))
      setup_s
      (String.concat "/" (List.map (Printf.sprintf "%.4f") recoveries))
      hits gets present;
    {
      setup_s;
      windows = wins;
      server_cpu_s = float_of_int (cpu1 - cpu0) *. 1e-9;
      client_cpu_s = ccpu1 -. ccpu0;
      fences = diff "fences";
      group_ops = diff "group_ops";
      group_commits = diff "group_commits";
      fence_wait_ns;
      recoveries;
      rss_mb;
      lost;
      t_attempted = s.attempted;
      t_failed = s.failed;
    }
  with
  | r ->
      quit child;
      r
  | exception e ->
      kill child;
      raise e

let sum_of f trials = List.fold_left (fun acc t -> acc +. f t) 0. trials
let mean_of f trials = sum_of f trials /. float_of_int (List.length trials)
let ratio a b = if b = 0. then 0. else a /. b

(** Run {!Gen.trials} server lifetimes, each timing its share of the run's
    fixed request count, and report [(attempted, failed, metrics)].
    Throughput and latency are the mean over the trials of each trial's
    median window, recovery the mean over the trials of each trial's median
    recovery: a mean, so that every server lifetime weighs the same. Set-up
    and RSS are medians over the trials. *)
let run (w : Gen.workload) ~seed ~seconds =
  (* A dead server surfaces as EPIPE on the next write, not as a signal. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let trials = Gen.trials in
  let nbatches = Gen.timed_batches w ~seconds in
  let ts = List.init trials (fun trial -> run_trial w ~seed ~trial ~nbatches) in
  let requests = float_of_int (trials * nbatches * Gen.batch) in
  let attempted = List.fold_left (fun a t -> a + t.t_attempted) 0 ts in
  let failed = List.fold_left (fun a t -> a + t.t_failed) 0 ts in
  let per_req f = sum_of f ts /. requests in
  let window_median f t = median_of f t.windows in
  ( attempted,
    failed,
    [
      ("ops_per_s", mean_of (window_median (fun w -> w.ops_per_s)) ts);
      ("p50_us", mean_of (window_median (fun w -> w.p50)) ts);
      ("p99_us", mean_of (window_median (fun w -> w.p99)) ts);
      ("recovery_s", mean_of (fun t -> Stats.median (Array.of_list t.recoveries)) ts);
      ("setup_s", median_of (fun t -> t.setup_s) ts);
      ("rss_mb", median_of (fun t -> t.rss_mb) ts);
      ("failed_frac", float_of_int failed /. float_of_int attempted);
      ("lost_writes", sum_of (fun t -> float_of_int t.lost) ts);
      ("latency_samples", float_of_int (trials * nbatches));
      ("nvserve.cpu_us_per_req", per_req (fun t -> t.server_cpu_s) *. 1e6);
      ("nvserve.fences_per_req", per_req (fun t -> t.fences));
      ("nvserve.ops_per_commit", ratio (sum_of (fun t -> t.group_ops) ts) (sum_of (fun t -> t.group_commits) ts));
      ("client.cpu_us_per_req", per_req (fun t -> t.client_cpu_s) *. 1e6);
      ("heap.fence_wait_ns", median_of (fun t -> t.fence_wait_ns) ts);
    ] )
