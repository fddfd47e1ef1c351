(** The NVServe child process. It serves one workload's store and obeys
    line commands on stdin, answering each on stdout:

    - [spin]: time {!Nvm.Latency_model.spin_ns} at the pinned write
      latency; answers [spin <ns per call>].
    - [crash]: {!Server.Nvserve.kill}, then {!recoveries} times over the
      same pre-crash image: [Nvm.Heap.crash] and the timed
      [Lfds.Ctx.recover] plus [Shard_store.recover]; then a restart with
      [Nvserve.start_with]; answers
      [recovered <port> <freed_leaks> <seconds of each recovery>...].
    - [quit]: graceful stop, then exit.

    At start it prints [port <p>]. *)

open Server

let write_ns = 125

(** The fixed server set-up of every workload. Every field is pinned; the
    [with] keeps this compiling if the config grows. *)
let[@warning "-23"] config (w : Pbench.Gen.workload) =
  {
    (Nvserve.default_config ()) with
    Nvserve.port = 0;
    nworkers = 1;
    nbuckets = 4096;
    capacity = w.capacity;
    mode = Lfds.Persist_mode.Link_persist;
    latency = { (Nvm.Latency_model.default ()) with Nvm.Latency_model.nvram_write_ns = write_ns };
    idle_timeout = 0.;
    read_chunk = 4096;
    max_batch = 64;
    max_delay_us = 0;
    metrics_port = None;
    sample_every = 0;
    runtime = Nvserve.Sched;
  }

let spin_calls = 20_000

let fence_wait_ns () =
  let t0 = Pbench.Clock.now_ns () in
  for _ = 1 to spin_calls do
    Nvm.Latency_model.spin_ns write_ns
  done;
  float_of_int (Pbench.Clock.now_ns () - t0) /. float_of_int spin_calls

(** One recovery as the server's crash path runs it: [Nvm.Heap.crash],
    then [Lfds.Ctx.recover], then [Shard_store.recover], each as a span
    [(name, start ns, duration ns)]. *)
type recovered = {
  ctx : Lfds.Ctx.t;
  store : Shard_store.t;
  freed : int;
  spans : (string * int * int) list;
}

let recover_once cfg heap hcfg ~seed =
  let span name f =
    let t0 = Pbench.Clock.now_ns () in
    let r = f () in
    (r, (name, t0, Pbench.Clock.now_ns () - t0))
  in
  let (), crash = span "heap.crash" (fun () -> Nvm.Heap.crash ~seed heap) in
  let (ctx, active_pages), ctx_span = span "ctx.recover" (fun () -> Lfds.Ctx.recover heap hcfg) in
  let (store, freed), store_span =
    span "shard_store.recover" (fun () ->
        Shard_store.recover ctx ~nshards:cfg.Nvserve.nworkers ~nbuckets:cfg.nbuckets
          ~capacity:cfg.capacity ~active_pages ~nworkers:cfg.nworkers)
  in
  { ctx; store; freed; spans = [ crash; ctx_span; store_span ] }

(** [recovery_s]: the time of [Ctx.recover] plus [Shard_store.recover]. *)
let recovery_s r =
  List.fold_left
    (fun acc (name, _, dur) -> if name = "heap.crash" then acc else acc +. (float_of_int dur *. 1e-9))
    0. r.spans

(* Recoveries timed per crash: each restores the same pre-crash image and
   crashes it with the same seed, so all of them redo the same work. *)
let recoveries = 3

let crash_and_recover cfg ~seed srv =
  Nvserve.kill srv;
  let heap = Lfds.Ctx.heap (Nvserve.ctx srv) in
  let hcfg = Nvserve.heap_cfg srv in
  let image = Nvm.Heap.snapshot heap in
  let runs =
    List.init recoveries (fun _ ->
        Nvm.Heap.restore heap image;
        recover_once cfg heap hcfg ~seed)
  in
  let last = List.nth runs (recoveries - 1) in
  let srv' = Nvserve.start_with cfg ~heap_cfg:hcfg last.ctx last.store in
  Printf.printf "recovered %d %d %s\n%!" (Nvserve.port srv') last.freed
    (String.concat " " (List.map (fun r -> Printf.sprintf "%.9f" (recovery_s r)) runs));
  srv'

let main (w : Pbench.Gen.workload) ~seed =
  let cfg = config w in
  let srv = ref (Nvserve.start cfg) in
  Printf.printf "port %d\n%!" (Nvserve.port !srv);
  let rec loop () =
    match In_channel.input_line stdin with
    | Some "spin" ->
        Printf.printf "spin %.3f\n%!" (fence_wait_ns ());
        loop ()
    | Some "crash" ->
        srv := crash_and_recover cfg ~seed !srv;
        loop ()
    | Some "quit" | None -> Nvserve.stop !srv
    | Some cmd ->
        Printf.eprintf "nvbench serve: unknown command %S\n%!" cmd;
        loop ()
  in
  loop ()
