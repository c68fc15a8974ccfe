(* Tests of the benchmark's own helpers: the percentile summary, the
   fixture string, and failure counting. *)

open Perfbench

let floats n = List.init n (fun i -> float_of_int (i + 1))

let test_percentiles () =
  let s = Stats.summarize (floats 10) in
  Alcotest.(check int) "count" 10 s.count;
  Alcotest.(check (float 0.)) "median of 1..10" 5.5 s.p50;
  Alcotest.(check bool) "10 samples: median only" true (s.tail = None);
  Alcotest.(check bool) "39 samples: median only" true
    ((Stats.summarize (floats 39)).tail = None);
  let tail n = (Stats.summarize (floats n)).tail in
  Alcotest.(check (option (pair (float 0.) (float 0.)))) "40 samples: p75"
    (Some (75., 30.)) (tail 40);
  Alcotest.(check (option (pair (float 0.) (float 0.)))) "100 samples: p90"
    (Some (90., 90.)) (tail 100);
  Alcotest.(check (option (pair (float 0.) (float 0.)))) "1000 samples: p99"
    (Some (99., 990.)) (tail 1000);
  Alcotest.(check (float 0.)) "median is order-free" 2.
    (Stats.median [ 3.; 1.; 2. ]);
  Alcotest.(check (list (float 0.))) "per-index medians, cut to the shortest row"
    [ 2.; 20. ]
    (Stats.per_index_medians [ [ 1.; 10.; 7. ]; [ 2.; 30. ]; [ 3.; 20.; 9. ] ])

let test_fixture_round_trip () =
  List.iter
    (fun f ->
      let s = Fixture.to_string f in
      match Fixture.of_string s with
      | Ok g ->
        Alcotest.(check bool) ("round trip " ^ s) true (f = g);
        Alcotest.(check string) "printed again" s (Fixture.to_string g)
      | Error e -> Alcotest.fail (s ^ ": " ^ e))
    [
      Sweep_web.fixture ~seed:7 ~cores:2;
      Serve_web.fixture ~seed:0 ~cores:1;
      Scale_cdn.fixture ~seed:123 ~cores:4;
      Deploy_group.fixture ~seed:9 ~cores:2;
    ];
  Alcotest.(check bool) "garbage is an error" true
    (Result.is_error (Fixture.of_string "no-colon"))

(* A tiny sweep-web instance whose first feasible cell gets a bound its
   certificate no longer reproduces: the check counts it and returns. *)
let test_tampered_certificate_is_counted () =
  let cfg =
    {
      (Sweep_web.fixture ~seed:3 ~cores:1) with
      params =
        [
          ("nodes", Fixture.Int 5);
          ("scale", Fixture.Float 0.002);
          ("intervals", Fixture.Int 2);
          ("classes", Fixture.Names [ "general"; "storage-constrained" ]);
          ("fractions", Fixture.Floats [ 0.9 ]);
        ];
    }
  in
  let fx = Sweep_web.setup cfg () in
  let out = Sweep_web.run ~jobs:1 fx in
  let clean = Tally.create () in
  ignore (Sweep_web.check clean fx out);
  Alcotest.(check int) "untampered run passes" 0 clean.failed;
  let tampered = ref false in
  let per_class =
    List.map
      (fun (label, cells) ->
        ( label,
          List.map
            (fun (q, (r : Bounds.Pipeline.t)) ->
              if r.feasible && not !tampered then begin
                tampered := true;
                (q, { r with lower_bound = r.lower_bound +. 1. })
              end
              else (q, r))
            cells ))
      out.sweep.per_class
  in
  Alcotest.(check bool) "a feasible cell exists" true !tampered;
  let tally = Tally.create () in
  ignore
    (Sweep_web.check tally fx { out with sweep = { out.sweep with per_class } });
  Alcotest.(check int) "one failure counted" 1 tally.failed;
  Alcotest.(check int) "same number of checks" clean.attempted tally.attempted

let test_exception_is_counted () =
  let t = Tally.create () in
  Tally.guard t "boom" (fun () -> failwith "boom");
  Tally.check t true "fine";
  Alcotest.(check int) "attempted" 2 t.attempted;
  Alcotest.(check int) "failed" 1 t.failed;
  Alcotest.(check (float 0.)) "failed_frac" 0.5 (Tally.failed_frac t)

(* BENCHMARK.json names exactly the workloads and metrics this code
   prints, with the same units. *)
let test_benchmark_json () =
  let text = In_channel.with_open_bin "../BENCHMARK.json" In_channel.input_all in
  let find_from i sub =
    let n = String.length sub in
    let rec go i =
      if i + n > String.length text then None
      else if String.sub text i n = sub then Some i
      else go (i + 1)
    in
    go i
  in
  let count sub =
    let rec go i acc =
      match find_from i sub with Some j -> go (j + 1) (acc + 1) | None -> acc
    in
    go 0 0
  in
  let unit_after name =
    match find_from 0 (Printf.sprintf "\"name\": %S" name) with
    | None -> None
    | Some i -> (
      let key = "\"unit\": \"" in
      match find_from i key with
      | None -> None
      | Some j ->
        let start = j + String.length key in
        Some (String.sub text start (String.index_from text start '"' - start)))
  in
  List.iter
    (fun (name, _) ->
      Alcotest.(check bool) ("workload " ^ name) true
        (find_from 0 (Printf.sprintf "\"name\": %S" name) <> None))
    Suite.all;
  let metrics = Harness.end_to_end_metrics @ Harness.per_layer_metrics in
  List.iter
    (fun (name, unit) ->
      Alcotest.(check (option string)) ("unit of " ^ name) (Some unit) (unit_after name))
    metrics;
  Alcotest.(check int) "no other metrics" (List.length metrics) (count "\"unit\":")

let () =
  Alcotest.run "perfbench"
    [
      ("stats", [ Alcotest.test_case "percentile helper" `Quick test_percentiles ]);
      ("fixture", [ Alcotest.test_case "string round trip" `Quick test_fixture_round_trip ]);
      ("schema", [ Alcotest.test_case "BENCHMARK.json" `Quick test_benchmark_json ]);
      ( "checks",
        [
          Alcotest.test_case "tampered certificate counted" `Quick
            test_tampered_certificate_is_counted;
          Alcotest.test_case "exception counted" `Quick test_exception_is_counted;
        ] );
    ]
