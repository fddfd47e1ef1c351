(* Unit tests for the benchmark's percentile, response-parsing and audit
   code. *)

open Pbench

let check name ok = if not ok then failwith ("test_nvbench: " ^ name)

let feq a b = Float.abs (a -. b) < 1e-9

let test_percentile () =
  let a = [| 5.; 1.; 4.; 2.; 3. |] in
  check "median odd" (feq (Stats.median a) 3.);
  check "p0" (feq (Stats.percentile a 0.) 1.);
  check "p100" (feq (Stats.percentile a 100.) 5.);
  check "p25" (feq (Stats.percentile a 25.) 2.);
  check "interpolated" (feq (Stats.percentile [| 1.; 2. |] 50.) 1.5);
  check "p99 of 1..100" (feq (Stats.percentile (Array.init 100 (fun i -> float_of_int (i + 1))) 99.) 99.01);
  check "single" (feq (Stats.percentile [| 7. |] 99.) 7.);
  check "empty raises"
    (match Stats.percentile [||] 50. with _ -> false | exception Invalid_argument _ -> true);
  check "windows exact" (Stats.windows ~size:10 30 = [ (0, 10); (10, 20); (20, 30) ]);
  check "windows remainder" (Stats.windows ~size:10 25 = [ (0, 12); (12, 25) ]);
  check "windows short" (Stats.windows ~size:10 4 = [ (0, 4) ]);
  let s = Stats.samples () in
  for i = 1 to 10_000 do
    Stats.push s (float_of_int i)
  done;
  check "samples grow" (Array.length (Stats.to_array s) = 10_000);
  check "samples median" (feq (Stats.median (Stats.to_array s)) 5000.5)

let parse_all s =
  let b = Bytes.of_string s in
  let rec go pos acc =
    if pos >= Bytes.length b then List.rev acc
    else
      match Wire.parse b ~pos ~len:(Bytes.length b - pos) with
      | Wire.Parsed (r, c) -> go (pos + c) (r :: acc)
      | Wire.Partial -> List.rev (Wire.Other "<partial>" :: acc)
  in
  go 0 []

let test_parse () =
  let v = Gen.value_of ~n:7 ~version:3 in
  let hit = Printf.sprintf "VALUE pb-00000007 0 32\r\n%s\r\nEND\r\n" v in
  check "pipelined"
    (parse_all ("STORED\r\n" ^ hit ^ "END\r\nERROR\r\n")
    = [ Wire.Stored; Wire.Value { key = "pb-00000007"; data = v }; Wire.Miss; Wire.Other "ERROR" ]);
  (* Every torn prefix of a hit is partial; the whole is one response. *)
  for cut = 0 to String.length hit - 1 do
    check "torn"
      (Wire.parse (Bytes.of_string (String.sub hit 0 cut)) ~pos:0 ~len:cut = Wire.Partial)
  done;
  check "bad trailer"
    (match parse_all (Printf.sprintf "VALUE k 0 2\r\nabXXEND\r\n") with
    | Wire.Other _ :: _ -> true
    | _ -> false);
  check "stats"
    (parse_all "STAT fences 12\r\nSTAT version nvlf 0.1\r\nEND\r\n"
    = [ Wire.Stats [ ("fences", "12"); ("version", "nvlf 0.1") ] ]);
  check "bad stat line" (parse_all "STAT fences\r\nEND\r\n" = [ Wire.Other "STAT fences"; Wire.Miss ]);
  check "window respected"
    (Wire.parse (Bytes.of_string "xxSTORED\r\nyy") ~pos:2 ~len:8 = Wire.Parsed (Wire.Stored, 8))

let test_values () =
  check "round trip" (Gen.parse_value (Gen.value_of ~n:123456 ~version:99) = Some (123456, 99));
  check "length" (String.length (Gen.value_of ~n:0 ~version:1) = Gen.value_bytes);
  check "bad pad" (Gen.parse_value (String.make 32 'x') = None);
  check "key" (Gen.key_of 42 = "pb-00000042")

let test_audit () =
  let key = Gen.key_of 9 in
  let value version = Wire.Value { key; data = Gen.value_of ~n:9 ~version } in
  let v r = Audit.check ~key ~n:9 ~acked:4 r in
  check "fresh" (v (value 4) = Audit.Fresh);
  check "stale" (v (value 3) = Audit.Stale);
  check "absent" (v Wire.Miss = Audit.Absent);
  check "wrong key"
    (v (Wire.Value { key = Gen.key_of 8; data = Gen.value_of ~n:9 ~version:4 }) = Audit.Corrupt);
  check "wrong index" (v (Wire.Value { key; data = Gen.value_of ~n:8 ~version:4 }) = Audit.Corrupt);
  check "error reply" (v (Wire.Other "SERVER_ERROR") = Audit.Corrupt);
  check "miss fails when resident" (Audit.failed ~resident:true Audit.Absent);
  check "miss expected when evicted" (not (Audit.failed ~resident:false Audit.Absent));
  check "hit on an evicted key fails" (Audit.failed ~resident:false Audit.Fresh);
  check "stale always fails" (Audit.failed ~resident:false Audit.Stale)

(* The LRU record follows NV-Memcached: a new key evicts the least recently
   used one at capacity; a resident set or a get hit moves to the front. *)
let test_lru () =
  let keys = Array.init 5 Gen.key_of in
  let b = Audit.book ~keys ~capacity:3 in
  let resident () = List.filter (Audit.Lru.mem b.lru) [ 0; 1; 2; 3; 4 ] in
  let stored op = check "stored" (not (Audit.apply b op Wire.Stored)) in
  let hit n = Wire.Value { key = keys.(n); data = Gen.value_of ~n ~version:b.acked.(n) } in
  stored (Gen.Set (0, 1));
  stored (Gen.Set (1, 1));
  stored (Gen.Set (2, 1));
  check "fills" (resident () = [ 0; 1; 2 ]);
  check "get hit" (not (Audit.apply b (Gen.Get 0) (hit 0)));
  stored (Gen.Set (3, 1));
  check "evicts least recent" (resident () = [ 0; 2; 3 ]);
  stored (Gen.Set (2, 2));
  check "resident set evicts nothing" (resident () = [ 0; 2; 3 ]);
  stored (Gen.Set (4, 1));
  check "set moved to front" (resident () = [ 2; 3; 4 ]);
  check "evicted key must miss" (not (Audit.apply b (Gen.Get 0) Wire.Miss));
  check "evicted key hit fails" (Audit.apply b (Gen.Get 1) (Wire.Value { key = keys.(1); data = Gen.value_of ~n:1 ~version:1 }));
  check "lost write fails" (Audit.apply b (Gen.Get 2) Wire.Miss);
  check "stale fails" (Audit.apply b (Gen.Get 2) (Wire.Value { key = keys.(2); data = Gen.value_of ~n:2 ~version:1 }));
  check "rejected set fails" (Audit.apply b (Gen.Set (0, 2)) (Wire.Other "SERVER_ERROR"));
  check "rejected set not recorded" (not (Audit.Lru.mem b.lru 0) && b.acked.(0) = 1);
  check "counts gets" (b.gets = 5 && b.hits = 2)

let test_stream () =
  let w = Option.get (Gen.find "kv-write") in
  let draw () =
    let st = Gen.stream w ~seed:5 ~trial:0 in
    let pre = Gen.preload st in
    (pre, List.init 1000 (fun _ -> Gen.next st))
  in
  let pre, ops = draw () in
  check "seeded" ((pre, ops) = draw ());
  check "preload covers keys"
    (List.sort compare (Array.to_list (Array.map (function Gen.Set (n, _) -> n | Gen.Get n -> n) pre))
    = List.init w.nkeys Fun.id);
  let sets = List.length (List.filter (function Gen.Set _ -> true | Gen.Get _ -> false) ops) in
  check "set share" (sets > 400 && sets < 600)

let () =
  test_percentile ();
  test_parse ();
  test_values ();
  test_audit ();
  test_lru ();
  test_stream ();
  print_endline "test_nvbench: ok"
