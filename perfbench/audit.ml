(** Validation of get responses against the client's record of the server's
    state — during the timed phase and in the post-recovery audit alike.

    The record is exact, not statistical: the server runs one shard, driven
    over one connection in order, and NV-Memcached's LRU is exact (a set
    evicts the least recently used item when the shard is at capacity, and
    a get hit moves its item to the front). So the client knows, key by
    key, which keys are resident and which version each holds. *)

type verdict =
  | Fresh  (** the last acknowledged version *)
  | Absent  (** a miss *)
  | Stale  (** a well-formed value of this key, but not the acked version *)
  | Corrupt  (** anything else: another key, bad bytes, an error reply *)

let check ~key ~n ~acked (resp : Wire.response) =
  match resp with
  | Wire.Miss -> Absent
  | Wire.Value { key = k; data } when k = key -> (
      match Gen.parse_value data with
      | Some (n', v) when n' = n -> if v = acked then Fresh else Stale
      | _ -> Corrupt)
  | _ -> Corrupt

(** Whether a verdict fails: a resident key must read its acked version,
    and a key the LRU evicted must miss. A miss of a resident key is a
    lost acknowledged write; a hit on an evicted one is a deletion that
    did not hold. *)
let failed ~resident = function
  | Fresh -> not resident
  | Absent -> resident
  | Stale | Corrupt -> true

(** The server's LRU over key indices [0, nkeys): a doubly linked list,
    most recently used at the head. *)
module Lru = struct
  type t = {
    capacity : int;
    prev : int array;
    next : int array;
    resident : bool array;
    mutable head : int;
    mutable tail : int;
    mutable count : int;
  }

  let nil = -1

  let create ~nkeys ~capacity =
    {
      capacity;
      prev = Array.make nkeys nil;
      next = Array.make nkeys nil;
      resident = Array.make nkeys false;
      head = nil;
      tail = nil;
      count = 0;
    }

  let mem t n = t.resident.(n)

  let unlink t n =
    let p = t.prev.(n) and x = t.next.(n) in
    if p = nil then t.head <- x else t.next.(p) <- x;
    if x = nil then t.tail <- p else t.prev.(x) <- p

  let push_front t n =
    t.prev.(n) <- nil;
    t.next.(n) <- t.head;
    if t.head = nil then t.tail <- n else t.prev.(t.head) <- n;
    t.head <- n

  (** A get hit: move to the front. *)
  let touch t n =
    if t.resident.(n) then begin
      unlink t n;
      push_front t n
    end

  (** An acknowledged set: a resident key moves to the front; a new one
      evicts the least recently used key first when the shard is full. *)
  let set t n =
    if t.resident.(n) then touch t n
    else begin
      if t.count >= t.capacity then begin
        let victim = t.tail in
        unlink t victim;
        t.resident.(victim) <- false;
        t.count <- t.count - 1
      end;
      push_front t n;
      t.resident.(n) <- true;
      t.count <- t.count + 1
    end
end

(** The client's record: the last acknowledged version of every key (0 =
    never acknowledged), the server's LRU, and the gets seen so far and how
    many of them read the acked version. *)
type book = {
  keys : string array;
  acked : int array;
  lru : Lru.t;
  mutable gets : int;
  mutable hits : int;
}

let book ~keys ~capacity =
  let nkeys = Array.length keys in
  { keys; acked = Array.make nkeys 0; lru = Lru.create ~nkeys ~capacity; gets = 0; hits = 0 }

(** Apply the response to one request to the record; return whether it
    failed. *)
let apply b (op : Gen.op) resp =
  match op with
  | Set (n, v) -> (
      match resp with
      | Wire.Stored ->
          b.acked.(n) <- v;
          Lru.set b.lru n;
          false
      | _ -> true)
  | Get n ->
      let v = check ~key:b.keys.(n) ~n ~acked:b.acked.(n) resp in
      let resident = Lru.mem b.lru n in
      b.gets <- b.gets + 1;
      if v = Fresh then b.hits <- b.hits + 1;
      (* The server touches on a hit; the record follows what it expects. *)
      Lru.touch b.lru n;
      failed ~resident v
