(* Online engine: chunk-size invariance, jobs byte-identity, regret sign.

   The engine's contract is that epoching is an observation schedule,
   not a workload transformation — the same trace chunked at any epoch
   size must fold to the same cumulative state, and the final epoch's
   deployments must match the offline ones bit for bit. *)

module CS = Replica_select.Case_study
module E = Online.Engine

let digest v = Digest.to_hex (Digest.string (Marshal.to_string v [ Marshal.No_sharing ]))

let cs = lazy (CS.make ~nodes:10 ~scale:0.01 ~intervals:12 CS.Web)

let intervals = 12

let interval_s () =
  Workload.Trace.duration_s (Lazy.force cs).CS.trace /. float_of_int intervals

let config ?(strategies = [ ("greedy-global", Heuristics.Greedy_global.strategy) ])
    ?(jobs = 1) ~epoch_intervals () =
  let cs = Lazy.force cs in
  {
    E.system = cs.CS.system;
    interval_s = interval_s ();
    epoch_intervals;
    costs = Mcperf.Spec.default_costs;
    goal = Mcperf.Spec.Qos { tlat_ms = 150.; fraction = 0.95 };
    placeable = None;
    strategies;
    solver = Bounds.Pipeline.Auto;
    warm = true;
    jobs;
  }

(* A deterministic fingerprint of an epoch: everything except the wall
   clocks. *)
let epoch_view (e : E.epoch) =
  ( e.E.index,
    e.E.intervals,
    e.E.chunk_events,
    e.E.total_events,
    e.E.working_set,
    List.map
      (fun (n, (r : Bounds.Pipeline.t)) ->
        ( n,
          r.Bounds.Pipeline.feasible,
          r.Bounds.Pipeline.lower_bound,
          r.Bounds.Pipeline.lp_iterations,
          r.Bounds.Pipeline.solve_path ))
      e.E.bounds,
    e.E.decisions )

(* --- chunking is lossless ------------------------------------------------- *)

(* Folding the trace chunk-by-chunk through Incremental must reproduce
   the whole-trace Demand.of_trace byte for byte, at every epoch size. *)
let test_chunking_reproduces_demand () =
  let cs = Lazy.force cs in
  let s = interval_s () in
  let full = Workload.Demand.of_trace ~intervals cs.CS.trace in
  let dfull = digest full in
  List.iter
    (fun k ->
      let chunks = E.chunks ~interval_s:s ~epoch_intervals:k cs.CS.trace in
      let nodes = Workload.Trace.node_count cs.CS.trace in
      let incr =
        List.fold_left Workload.Incremental.extend
          (Workload.Incremental.create ~nodes ~interval_s:s)
          chunks
      in
      Alcotest.(check int)
        (Printf.sprintf "events k=%d" k)
        (Workload.Trace.length cs.CS.trace)
        (Workload.Incremental.events incr);
      Alcotest.(check string)
        (Printf.sprintf "demand k=%d" k)
        dfull
        (digest (Workload.Incremental.demand incr));
      (* The cumulative trace rebuilt from the chunks is the original. *)
      let rebuilt =
        match chunks with
        | first :: rest -> List.fold_left Workload.Trace.extend first rest
        | [] -> assert false
      in
      Alcotest.(check string)
        (Printf.sprintf "trace k=%d" k)
        (digest cs.CS.trace) (digest rebuilt))
    [ 1; 2; 3; 4; 5; 6; 12 ]

(* The final epoch sees the whole trace, so its deployments must equal
   the offline ones — and must not depend on the epoch size. *)
let test_epoch_size_invariant_final_decisions () =
  let cs = Lazy.force cs in
  let spec = CS.qos_spec cs ~fraction:0.95 ~for_bounds:false () in
  let offline =
    match Sim.Runner.greedy_global ~spec () with
    | Some d -> (d.Sim.Runner.parameter, d.Sim.Runner.cost)
    | None -> Alcotest.fail "offline greedy-global infeasible"
  in
  let finals =
    List.map
      (fun k ->
        let _, epochs = E.run (config ~epoch_intervals:k ()) ~trace:cs.CS.trace in
        let last = List.nth epochs (List.length epochs - 1) in
        Alcotest.(check int)
          (Printf.sprintf "final intervals k=%d" k)
          intervals last.E.intervals;
        match last.E.decisions with
        | [ d ] ->
          ( (match d.E.parameter with
            | Some p -> p
            | None -> Alcotest.fail "final epoch infeasible"),
            Option.get d.E.cost )
        | _ -> Alcotest.fail "expected one decision")
      [ 4; 6; 12 ]
  in
  List.iteri
    (fun i (p, c) ->
      Alcotest.(check int) (Printf.sprintf "param run %d" i) (fst offline) p;
      Alcotest.(check (float 0.)) (Printf.sprintf "cost run %d" i) (snd offline) c)
    finals

(* --- jobs byte-identity --------------------------------------------------- *)

(* The default strategy set has four LP classes, so the bound solves
   really fan out. Iteration counts and solve paths in the view, plus the
   lift counters, catch a worker that lost or mis-keyed a class's warm
   entry even when the rounded decisions agree. *)
let test_jobs_identity () =
  let cs = Lazy.force cs in
  let run jobs =
    let t, epochs =
      E.run
        (config ~strategies:E.default_strategies ~jobs ~epoch_intervals:4 ())
        ~trace:cs.CS.trace
    in
    (digest (List.map epoch_view epochs), E.warm_lifts t, E.bound_solves t)
  in
  let d1, lifts1, solves1 = run 1 in
  Alcotest.(check bool)
    (Printf.sprintf "warm lifts happen (%d of %d solves)" lifts1 solves1)
    true (lifts1 >= 1);
  List.iter
    (fun jobs ->
      let d, lifts, solves = run jobs in
      Alcotest.(check string) (Printf.sprintf "epochs jobs 1 = jobs %d" jobs) d1 d;
      Alcotest.(check int) (Printf.sprintf "warm lifts jobs 1 = jobs %d" jobs) lifts1 lifts;
      Alcotest.(check int)
        (Printf.sprintf "bound solves jobs 1 = jobs %d" jobs)
        solves1 solves)
    [ 2; 4 ]

(* --- regret --------------------------------------------------------------- *)

let test_regret_nonnegative () =
  let cs = Lazy.force cs in
  let strategies =
    [
      ("greedy-global", Heuristics.Greedy_global.strategy);
      ("greedy-replica", Heuristics.Greedy_replica.strategy);
      ("proportional", Heuristics.Proportional.strategy);
    ]
  in
  let t, epochs =
    E.run (config ~strategies ~epoch_intervals:4 ()) ~trace:cs.CS.trace
  in
  let seen = ref 0 in
  List.iter
    (fun (e : E.epoch) ->
      List.iter
        (fun (d : E.decision) ->
          match d.E.regret with
          | Some r ->
            incr seen;
            Alcotest.(check bool)
              (Printf.sprintf "regret >= 0 (%s, epoch %d, regret %.9f)"
                 d.E.strategy e.E.index r)
              true (r >= -1e-9)
          | None -> ())
        e.E.decisions)
    epochs;
  Alcotest.(check bool) "some regrets reported" true (!seen > 0);
  Alcotest.(check bool) "bounds were solved" true (E.bound_solves t > 0)

(* Warm starts change solve effort, never the reported bound's validity:
   a warm run reports the same deployments as a cold run. Only the warm
   engine lifts last epoch's solution into the next solve. *)
let test_warm_vs_cold_decisions_agree () =
  let cs = Lazy.force cs in
  let run warm =
    let t, epochs =
      E.run { (config ~epoch_intervals:6 ()) with E.warm } ~trace:cs.CS.trace
    in
    ( E.warm_lifts t,
      List.map
        (fun (e : E.epoch) ->
          List.map
            (fun (d : E.decision) -> (d.E.strategy, d.E.parameter, d.E.cost))
            e.E.decisions)
        epochs )
  in
  let warm_lifts, warm = run true and cold_lifts, cold = run false in
  Alcotest.(check bool) "same deployments" true (warm = cold);
  (* The lift counter is what tells a warm run from a cold one. *)
  Alcotest.(check int) "cold engine never lifts" 0 cold_lifts;
  Alcotest.(check bool)
    (Printf.sprintf "warm engine lifts a prior solution (%d lifts)" warm_lifts)
    true (warm_lifts >= 1)

(* --- engine stream edge cases --------------------------------------------- *)

(* A strategy that fails mid-search: the failure propagates out of
   [feed] and the epoch span still closes, so the trace stays balanced
   and later spans do not nest under a dead epoch. *)
let test_failing_search_closes_epoch_span () =
  let module S = Heuristics.Strategy in
  let failing ctx =
    let (S.Instance ((module M), st)) = Heuristics.Greedy_global.strategy ctx in
    S.Instance
      ((module struct
         include M

         let observe _ _ = failwith "observe failed"
       end),
        st)
  in
  let cs = Lazy.force cs in
  let t =
    E.create (config ~strategies:[ ("failing", failing) ] ~epoch_intervals:4 ())
  in
  let chunks = E.chunks ~interval_s:(interval_s ()) ~epoch_intervals:4 cs.CS.trace in
  Obs.Config.install { Obs.Config.default with sink = Obs.Config.Memory };
  let raised =
    Fun.protect
      ~finally:(fun () -> Obs.Config.install Obs.Config.disabled)
      (fun () ->
        let raised =
          List.exists
            (fun chunk ->
              match E.feed t chunk with
              | exception Util.Parallel.Task_failed _ -> true
              | _ -> false)
            chunks
        in
        let evs = Obs.Trace.events () in
        let count p = List.length (List.filter p evs) in
        Alcotest.(check int) "span begins = span ends"
          (count (fun (e : Obs.Trace.event) -> e.kind = Obs.Trace.Span_begin))
          (count (fun (e : Obs.Trace.event) -> e.kind = Obs.Trace.Span_end));
        Alcotest.(check bool) "an epoch span was opened" true
          (count (fun (e : Obs.Trace.event) ->
               e.kind = Obs.Trace.Span_begin && e.name = "online.epoch")
          > 0);
        raised)
  in
  Alcotest.(check bool) "failure propagates out of feed" true raised

let test_feed_rejects_misaligned_chunk () =
  let cs = Lazy.force cs in
  let t = E.create (config ~epoch_intervals:4 ()) in
  let chunks = E.chunks ~interval_s:(interval_s ()) ~epoch_intervals:4 cs.CS.trace in
  ignore (E.feed t (List.hd chunks));
  (* Re-feeding the same chunk is not a continuation: same horizon. *)
  Alcotest.(check bool) "misaligned chunk rejected" true
    (match E.feed t (List.hd chunks) with
    | exception Invalid_argument _ -> true
    | _ -> false)

let () =
  Alcotest.run "online"
    [
      ( "chunking",
        [
          Alcotest.test_case "demand reproduced at every epoch size" `Quick
            test_chunking_reproduces_demand;
          Alcotest.test_case "final decisions epoch-size invariant" `Quick
            test_epoch_size_invariant_final_decisions;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "jobs 1 vs 4 byte-identical" `Quick
            test_jobs_identity;
          Alcotest.test_case "warm vs cold deployments agree" `Quick
            test_warm_vs_cold_decisions_agree;
        ] );
      ( "regret",
        [
          Alcotest.test_case "nonnegative every epoch" `Quick
            test_regret_nonnegative;
        ] );
      ( "stream",
        [
          Alcotest.test_case "misaligned chunk rejected" `Quick
            test_feed_rejects_misaligned_chunk;
          Alcotest.test_case "failing search closes the epoch span" `Quick
            test_failing_search_closes_epoch_span;
        ] );
    ]
