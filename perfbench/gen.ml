(** Workloads and their seeded request streams.

    A workload fixes the key range, the server's LRU capacity and the share
    of sets. Its stream is a pure function of [(workload, seed, trial)]: the
    live client and the in-process replay draw the same requests, byte for
    byte. Values are self-validating: each names the key index and the
    version it was written as, so a client can tell a stale or corrupt read
    from a fresh one without storing payloads. *)

type workload = {
  name : string;
  nkeys : int;  (** key range; every key is preloaded before timing *)
  capacity : int;  (** server LRU capacity, items *)
  set_pct : int;  (** sets in the timed stream, percent; the rest are gets *)
  nominal_rps : int;
      (** requests per second the timed phase is sized for: a run of [s]
          seconds sends [s * nominal_rps] requests, however fast it goes *)
}

let workloads =
  [
    { name = "kv-write"; nkeys = 50_000; capacity = 100_000; set_pct = 50; nominal_rps = 60_000 };
    { name = "kv-evict"; nkeys = 200_000; capacity = 50_000; set_pct = 50; nominal_rps = 75_000 };
  ]

let find name = List.find_opt (fun w -> w.name = name) workloads

(** Requests per pipelined batch in the timed phase. *)
let batch = 16

(** Server lifetimes per live run; the replay re-runs the first one's
    stream. *)
let trials = 4

(** Timed batches per trial when a run of [seconds] is split over
    {!trials} server lifetimes: fixed work, not a deadline. *)
let timed_batches w ~seconds =
  max 1 (int_of_float (seconds *. float_of_int w.nominal_rps /. float_of_int (trials * batch)))

(** Requests per batch while preloading and auditing (one server commit). *)
let bulk_batch = 64

let value_bytes = 32

let blit_digits b off n width =
  let n = ref n in
  for i = width - 1 downto 0 do
    Bytes.unsafe_set b (off + i) (Char.unsafe_chr (Char.code '0' + (!n mod 10)));
    n := !n / 10
  done

let key_of n =
  let b = Bytes.of_string "pb-00000000" in
  blit_digits b 3 n 8;
  Bytes.unsafe_to_string b

(* "v<key index, 10 digits>.<version, 8 digits>" padded with 'x'. *)
let value_of ~n ~version =
  let b = Bytes.make value_bytes 'x' in
  Bytes.set b 0 'v';
  blit_digits b 1 n 10;
  Bytes.set b 11 '.';
  blit_digits b 12 version 8;
  Bytes.unsafe_to_string b

let digits s off width =
  let rec go i acc =
    if i = width then Some acc
    else
      match s.[off + i] with
      | '0' .. '9' as c -> go (i + 1) ((acc * 10) + Char.code c - Char.code '0')
      | _ -> None
  in
  go 0 0

(** [(key index, version)] of a value written by {!value_of}; [None] when
    the bytes are not one. *)
let parse_value s =
  let pad_ok () =
    let ok = ref true in
    for i = 20 to String.length s - 1 do
      if s.[i] <> 'x' then ok := false
    done;
    !ok
  in
  if String.length s <> value_bytes || s.[0] <> 'v' || s.[11] <> '.' || not (pad_ok ())
  then None
  else
    match (digits s 1 10, digits s 12 8) with
    | Some n, Some v -> Some (n, v)
    | _ -> None

type op = Get of int | Set of int * int  (** key index, version *)

type stream = {
  w : workload;
  keys : string array;
  rng : Random.State.t;
  next_version : int array;
}

let stream w ~seed ~trial =
  {
    w;
    keys = Array.init w.nkeys key_of;
    rng = Random.State.make [| seed; trial; Hashtbl.hash w.name |];
    next_version = Array.make w.nkeys 1;
  }

let set_op st n =
  let v = st.next_version.(n) in
  st.next_version.(n) <- v + 1;
  Set (n, v)

(** Every key once, in a seeded order: the preload. *)
let preload st =
  let order = Array.init st.w.nkeys Fun.id in
  for i = st.w.nkeys - 1 downto 1 do
    let j = Random.State.int st.rng (i + 1) in
    let t = order.(i) in
    order.(i) <- order.(j);
    order.(j) <- t
  done;
  Array.map (set_op st) order

(** [a] cut into consecutive batches of at most [size]. *)
let chunks size a =
  let n = Array.length a in
  List.init ((n + size - 1) / size) (fun i -> Array.sub a (i * size) (min size (n - (i * size))))

(** The next request of the timed phase: a uniform key, a set with
    probability [set_pct]%. *)
let next st =
  let n = Random.State.int st.rng st.w.nkeys in
  if Random.State.int st.rng 100 < st.w.set_pct then set_op st n else Get n

let set_flags_bytes = Printf.sprintf " 0 0 %d\r\n" value_bytes

let add_request st buf = function
  | Get n ->
      Buffer.add_string buf "get ";
      Buffer.add_string buf st.keys.(n);
      Buffer.add_string buf "\r\n"
  | Set (n, version) ->
      Buffer.add_string buf "set ";
      Buffer.add_string buf st.keys.(n);
      Buffer.add_string buf set_flags_bytes;
      Buffer.add_string buf (value_of ~n ~version);
      Buffer.add_string buf "\r\n"

(** The wire bytes of a pipelined batch, built in [buf]. *)
let encode st buf ops =
  Buffer.clear buf;
  Array.iter (add_request st buf) ops;
  Buffer.contents buf
