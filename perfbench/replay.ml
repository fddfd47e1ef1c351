(** The traced run: the live run's seeded request stream replayed in-process
    through each layer's public functions — [Server.Framing.next], then
    [Kvcache.Protocol.handle_deferred] per request, then
    [Kvcache.Protocol.commit] per batch — over a store built with the
    server's config, followed by the crash and recovery calls.

    The stream is replayed twice on fresh stores. The plain pass gives the
    per-request CPU time and the count metrics (heap, allocator, epochs,
    GC); the traced pass records a span around every layer call, sharing
    the request's id, and writes them as a Chrome trace. Their CPU time
    difference is the tracing overhead. *)

open Pbench
module Proto = Kvcache.Protocol

type store = { heap : Nvm.Heap.t; hcfg : Lfds.Ctx.config; proto : Proto.t }

let fresh (w : Gen.workload) =
  let cfg = Serve.config w in
  let hcfg = Server.Nvserve.heap_config cfg in
  let ctx = Lfds.Ctx.create hcfg in
  let store =
    Server.Shard_store.create ctx ~nshards:cfg.nworkers ~nbuckets:cfg.nbuckets
      ~capacity:cfg.capacity
  in
  { heap = Lfds.Ctx.heap ctx; hcfg; proto = Proto.create (Server.Shard_store.ops store) }

(* A batch as the server's connection buffer would hold it. *)
type batch = { ops : Gen.op array; bytes : Bytes.t }

let encode st buf ops = { ops; bytes = Bytes.of_string (Gen.encode st buf ops) }

(** Preload batches, then [nbatches] timed batches: the stream the live
    client sends in its first trial. *)
let stream w ~seed ~nbatches =
  let st = Gen.stream w ~seed ~trial:0 in
  let buf = Buffer.create 4096 in
  let preload = List.map (encode st buf) (Gen.chunks Gen.bulk_batch (Gen.preload st)) in
  let timed =
    Array.init nbatches (fun _ -> encode st buf (Array.init Gen.batch (fun _ -> Gen.next st)))
  in
  (st, preload, timed)

(* Span kinds; a span row is [kind; request id; start; dur; loads; stores;
   cas; write-backs; fences]. *)
let k_framing = 0
let k_get = 1
let k_set = 2
let k_commit = 3
let kind_names = [| "framing.next"; "protocol.get"; "protocol.set"; "group_commit.commit" |]
let stride = 9

type rows = { rows : int array; mutable n : int }

(* Brackets around each layer call: [start] before, [stop kind id t0]
   after. The plain pass uses no-ops. *)
type tracer = { start : unit -> int; stop : int -> int -> int -> unit }

let quiet = { start = (fun () -> 0); stop = (fun _ _ _ -> ()) }

(* Spans go to preallocated int rows: time from the clock, work as the
   calling domain's heap counter deltas over the span. *)
let tracer heap r =
  let c = Nvm.Heap.stats heap 0 in
  let mark = Array.make 5 0 in
  {
    start =
      (fun () ->
        mark.(0) <- c.Nvm.Pstats.loads;
        mark.(1) <- c.stores;
        mark.(2) <- c.cas;
        mark.(3) <- c.write_backs;
        mark.(4) <- c.fences;
        Clock.now_ns ());
    stop =
      (fun kind id t0 ->
        let t1 = Clock.now_ns () in
        let o = r.n * stride in
        r.rows.(o) <- kind;
        r.rows.(o + 1) <- id;
        r.rows.(o + 2) <- t0;
        r.rows.(o + 3) <- t1 - t0;
        r.rows.(o + 4) <- c.loads - mark.(0);
        r.rows.(o + 5) <- c.stores - mark.(1);
        r.rows.(o + 6) <- c.cas - mark.(2);
        r.rows.(o + 7) <- c.write_backs - mark.(3);
        r.rows.(o + 8) <- c.fences - mark.(4);
        r.n <- r.n + 1);
  }

(* One batch through framing, protocol and commit, as an NVServe worker
   runs a wakeup's requests; responses land in [out], span ids count from
   [base]. *)
let run_batch ?(base = 0) s b out ~tr =
  let len = Bytes.length b.bytes in
  let rec go pos i =
    if pos < len then begin
      let t = tr.start () in
      match Server.Framing.next b.bytes ~pos ~len:(len - pos) with
      | Server.Framing.Request { req; consumed } ->
          tr.stop k_framing (base + i) t;
          let kind = match b.ops.(i) with Gen.Get _ -> k_get | Gen.Set _ -> k_set in
          let t = tr.start () in
          out.(i) <- Proto.handle_deferred s.proto ~tid:0 req;
          tr.stop kind (base + i) t;
          go (pos + consumed) (i + 1)
      | _ -> failwith "replay: a request did not frame"
    end
  in
  go 0 0;
  let t = tr.start () in
  Proto.commit s.proto ~tid:0 ~ops:(Array.length b.ops);
  tr.stop k_commit base t

(* Validate responses in stream order against the client's record. *)
let check_responses book ops out =
  let failed = ref 0 in
  Array.iteri
    (fun i op ->
      let b = Bytes.of_string out.(i) in
      let resp =
        match Wire.parse b ~pos:0 ~len:(Bytes.length b) with
        | Wire.Parsed (r, c) when c = Bytes.length b -> r
        | _ -> Wire.Other out.(i)
      in
      if Audit.apply book op resp then incr failed)
    ops;
  !failed

type pass = {
  cpu_ns : int;  (** thread CPU time of the layer calls *)
  delta : Nvm.Pstats.t;
  minor_words : float;
  majors : int;
  failed : int;
}

(* Preload, then the timed batches under [tr_of store]. Only the layer
   calls are timed and counted: responses are validated between batches. *)
let pass w (st, preload, timed) ~tr_of =
  let s = fresh w in
  let book = Audit.book ~keys:st.Gen.keys ~capacity:w.capacity in
  let failed = ref 0 in
  let out = Array.make Gen.bulk_batch "" in
  let check b = failed := !failed + check_responses book b.ops out in
  List.iter
    (fun b ->
      run_batch s b out ~tr:quiet;
      check b)
    preload;
  let tr = tr_of s in
  let st0 = Nvm.Heap.aggregate_stats s.heap in
  let majors0 = (Gc.quick_stat ()).Gc.major_collections in
  let cpu_ns = ref 0 and minor_words = ref 0. in
  Array.iteri
    (fun i b ->
      let w0 = Gc.minor_words () in
      let t0 = Clock.thread_cpu_ns () in
      run_batch s b out ~base:(i * Gen.batch) ~tr;
      cpu_ns := !cpu_ns + (Clock.thread_cpu_ns () - t0);
      minor_words := !minor_words +. (Gc.minor_words () -. w0);
      check b)
    timed;
  let majors = (Gc.quick_stat ()).Gc.major_collections - majors0 in
  let delta = Nvm.Pstats.diff (Nvm.Heap.aggregate_stats s.heap) st0 in
  ({ cpu_ns = !cpu_ns; delta; minor_words = !minor_words; majors; failed = !failed }, s)

let span ~name ~key ~start_ns ~dur_ns ?(loads = 0) ?(stores = 0) ?(cas = 0) ?(wb = 0) ?(fences = 0) () =
  {
    Trace.Nvtrace.tid = 0;
    name;
    key;
    start_ns;
    dur_ns;
    loads;
    stores;
    cas;
    write_backs = wb;
    fences;
    sync_batches = 0;
    lines_drained = 0;
    lc_adds = 0;
    lc_fails = 0;
  }

(* The first [limit] request-layer spans and the recovery spans. *)
let write_trace path r ~limit ~recovery =
  let ct = Trace.Chrome_trace.create () in
  Trace.Chrome_trace.add_process ct ~pid:1 ~name:"replay: framing / protocol / group commit";
  Trace.Chrome_trace.add_process ct ~pid:2 ~name:"recovery";
  let origin = if r.n > 0 then r.rows.(2) else 0 in
  for i = 0 to min limit r.n - 1 do
    let o = i * stride in
    Trace.Chrome_trace.add_span ct ~pid:1
      (span ~name:kind_names.(r.rows.(o)) ~key:r.rows.(o + 1)
         ~start_ns:(float_of_int (r.rows.(o + 2) - origin))
         ~dur_ns:(float_of_int r.rows.(o + 3)) ~loads:r.rows.(o + 4) ~stores:r.rows.(o + 5)
         ~cas:r.rows.(o + 6) ~wb:r.rows.(o + 7) ~fences:r.rows.(o + 8) ())
  done;
  List.iter
    (fun (name, t0, dur) ->
      Trace.Chrome_trace.add_span ct ~pid:2
        (span ~name ~key:0 ~start_ns:(float_of_int (t0 - origin)) ~dur_ns:(float_of_int dur) ()))
    recovery;
  Trace.Chrome_trace.write_file ct path

let trace_spans_written = 4096

(** Replay the first live trial's stream ({!Gen.timed_batches} timed
    batches); report [(requests, failed, metrics)] and write the trace to
    [trace_out]. *)
let run (w : Gen.workload) ~seed ~seconds ~trace_out =
  let nbatches = Gen.timed_batches w ~seconds in
  let input = stream w ~seed ~nbatches in
  (* The plain pass's store is dropped before the traced pass: two heaps
     alive at once would double the major GC's marking work. *)
  let plain, _ = pass w input ~tr_of:(fun _ -> quiet) in
  let nreq = nbatches * Gen.batch in
  let rows = { rows = Array.make (((2 * nreq) + nbatches) * stride) 0; n = 0 } in
  Gc.compact ();
  let traced, store = pass w input ~tr_of:(fun s -> tracer s.heap rows) in
  let r = Serve.recover_once (Serve.config w) store.heap store.hcfg ~seed in
  let recovery = r.spans and freed = r.freed in
  write_trace trace_out rows ~limit:trace_spans_written ~recovery;
  (* Mean span time of one kind. *)
  let mean kind =
    let sum = ref 0 and n = ref 0 in
    for i = 0 to rows.n - 1 do
      if rows.rows.(i * stride) = kind then begin
        sum := !sum + rows.rows.((i * stride) + 3);
        incr n
      end
    done;
    if !n = 0 then 0. else float_of_int !sum /. float_of_int !n
  in
  let d = plain.delta in
  let per_req x = float_of_int x /. float_of_int nreq in
  let seconds name = List.find_map (fun (n, _, dur) -> if n = name then Some (float_of_int dur *. 1e-9) else None) recovery |> Option.get in
  ( nreq,
    plain.failed + traced.failed,
    [
      ("replay.us_per_req", float_of_int plain.cpu_ns /. float_of_int nreq /. 1e3);
      ("framing.ns_per_req", mean k_framing);
      ("protocol.get_ns", mean k_get);
      ("protocol.set_ns", mean k_set);
      ("group_commit.commit_ns", mean k_commit);
      ("group_commit.deferred_links_per_req", per_req d.deferred_links);
      ("heap.fences_per_req", per_req d.fences);
      ("heap.wb_per_req", per_req d.write_backs);
      ("heap.loads_per_req", per_req d.loads);
      ("heap.cas_per_req", per_req d.cas);
      ("nvalloc.allocs_per_req", per_req d.allocs);
      ("nvalloc.frees_per_req", per_req d.frees);
      ("nv_epochs.apt_hit_rate", Nvm.Pstats.apt_hit_rate d);
      ("nv_epochs.epoch_stalls_per_req", per_req d.epoch_stalls);
      ("gc.minor_words_per_req", plain.minor_words /. float_of_int nreq);
      ("gc.major_per_mreq", float_of_int plain.majors *. 1e6 /. float_of_int nreq);
      ("heap.crash_s", seconds "heap.crash");
      ("ctx.recover_s", seconds "ctx.recover");
      ("shard_store.recover_s", seconds "shard_store.recover");
      ("shard_store.freed_leaks", float_of_int freed);
      ("trace.overhead_frac", float_of_int (traced.cpu_ns - plain.cpu_ns) /. float_of_int plain.cpu_ns);
    ] )
