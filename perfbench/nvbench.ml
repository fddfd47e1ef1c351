(** nvbench: [serve], [live] and [replay] subcommands (see [run.py], which
    drives them). [live] and [replay] print one JSON line:
    [{"attempted": n, "failed": n, "metrics": {name: value, ...}}]. *)

let usage = "nvbench (serve|live|replay) --workload W --seed S [options]"

let print_result ~attempted ~failed metrics =
  (* JSON has no NaN or infinity. *)
  let num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "null" in
  let kv = List.map (fun (k, v) -> Printf.sprintf "%S: %s" k (num v)) metrics in
  Printf.printf "{\"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!" attempted failed
    (String.concat ", " kv)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. in
  let trace_out = ref "nvbench-trace.json" in
  let specs =
    [
      ("--workload", Arg.Set_string workload, "W  kv-write | kv-evict");
      ("--seed", Arg.Set_int seed, "S  input seed");
      ("--seconds", Arg.Set_float seconds, "T  sizes the timed request count (see Gen.timed_batches)");
      ("--trace-out", Arg.Set_string trace_out, "F  replay: Chrome trace file");
    ]
  in
  let cmd = ref "" in
  Arg.parse specs (fun a -> if !cmd = "" then cmd := a else raise (Arg.Bad a)) usage;
  let w =
    match Pbench.Gen.find !workload with
    | Some w -> w
    | None ->
        prerr_endline ("nvbench: unknown workload " ^ !workload);
        exit 2
  in
  match !cmd with
  | "serve" -> Serve.main w ~seed:!seed
  | "live" ->
      let attempted, failed, metrics = Live.run w ~seed:!seed ~seconds:!seconds in
      print_result ~attempted ~failed metrics
  | "replay" ->
      let attempted, failed, metrics =
        Replay.run w ~seed:!seed ~seconds:!seconds ~trace_out:!trace_out
      in
      print_result ~attempted ~failed metrics
  | c ->
      prerr_endline ("nvbench: unknown command " ^ c ^ "\n" ^ usage);
      exit 2
