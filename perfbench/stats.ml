(** Exact order statistics over raw samples (no histogram buckets). *)

(** Percentile [p] (0..100) of an ascending array, interpolating linearly
    between the two closest ranks. Raises [Invalid_argument] when empty. *)
let percentile_sorted a p =
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.percentile: no samples";
  let r = p /. 100. *. float_of_int (n - 1) in
  let lo = int_of_float r in
  let hi = min (lo + 1) (n - 1) in
  a.(lo) +. ((a.(hi) -. a.(lo)) *. (r -. float_of_int lo))

let sorted a =
  let c = Array.copy a in
  Array.sort Float.compare c;
  c

let percentile a p = percentile_sorted (sorted a) p
let median a = percentile a 50.

(** [windows ~size n] cuts [0, n) into [max 1 (n / size)] contiguous
    ranges [(lo, hi)] ([hi] exclusive) of near-equal length, each at least
    [size] long when [n >= size]. *)
let windows ~size n =
  let k = max 1 (n / size) in
  List.init k (fun i -> (i * n / k, (i + 1) * n / k))

(** A growable buffer of float samples. *)
type samples = { mutable data : float array; mutable n : int }

let samples () = { data = Array.make 4096 0.; n = 0 }

let push s x =
  if s.n = Array.length s.data then begin
    let d = Array.make (2 * s.n) 0. in
    Array.blit s.data 0 d 0 s.n;
    s.data <- d
  end;
  s.data.(s.n) <- x;
  s.n <- s.n + 1

let to_array s = Array.sub s.data 0 s.n
