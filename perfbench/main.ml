(* The benchmark's single command.

     perfbench --workload NAME --seed N --seconds S --trace 0|1

   [--trace 0] measures the end-to-end metrics with tracing and metering
   off; [--trace 1] runs the traced per-layer pass. A human-readable
   report goes to stderr; the last line of stdout is one JSON object with
   [correct], [attempted], [failed] and [metrics]. *)

open Perfbench

let workloads = Suite.all

let json_number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let json_line (tally : Tally.t) (r : Harness.result) =
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (tally.failed = 0) tally.attempted tally.failed
    (String.concat ", "
       (List.map
          (fun (name, (v, unit)) ->
            Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v) unit)
          r.metrics))

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0 and trace = ref (-1) in
  let usage =
    Printf.sprintf "perfbench --workload {%s} --seed N --seconds S --trace 0|1"
      (String.concat "|" (List.map fst workloads))
  in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N seed the inputs are made from (>= 0)");
      ("--seconds", Arg.Set_int seconds, "S length of the measured window");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or traced per-layer (1) run");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let bench =
    match List.assoc_opt !workload workloads with
    | Some b when !seed >= 0 && !seconds > 0 && (!trace = 0 || !trace = 1) -> b
    | _ ->
      prerr_endline usage;
      exit 2
  in
  let b = bench ~seed:!seed ~cores:(Util.Parallel.available_cores ()) in
  let tally = Tally.create () in
  let result =
    if !trace = 0 then b.measure ~seconds:(float_of_int !seconds) tally else b.trace tally
  in
  Printf.eprintf "fixture %s\n" (Fixture.to_string b.fixture);
  List.iter (fun l -> Printf.eprintf "  %s\n" l) result.notes;
  List.iter
    (fun (name, (v, unit)) -> Printf.eprintf "  %-30s %14.6g %s\n" name v unit)
    result.metrics;
  Printf.eprintf "  %-30s %14.6g ratio (%d of %d checks failed)\n" "failed_frac"
    (Tally.failed_frac tally) tally.failed tally.attempted;
  List.iter (fun f -> Printf.eprintf "  FAILED: %s\n" f) (List.rev tally.failures);
  print_endline (json_line tally result)
