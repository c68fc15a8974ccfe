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
   the offline ones and its class bounds must equal the offline bound bit
   for bit — neither may depend on the epoch size. *)
let test_epoch_size_invariant_final_decisions () =
  let cs = Lazy.force cs in
  let spec = CS.qos_spec cs ~fraction:0.95 ~for_bounds:false () in
  let offline =
    match Sim.Runner.greedy_global ~spec () with
    | Some d -> (d.Sim.Runner.parameter, d.Sim.Runner.cost)
    | None -> Alcotest.fail "offline greedy-global infeasible"
  in
  let cfg = config ~epoch_intervals:1 () in
  let whole =
    Mcperf.Spec.make ~system:cfg.E.system
      ~demand:(Workload.Demand.of_trace ~intervals cs.CS.trace)
      ~costs:cfg.E.costs ~goal:cfg.E.goal ()
  in
  (* Resolve each strategy's class the way the engine does. *)
  let ctx =
    Heuristics.Strategy.Context.make ~system:cfg.E.system ~costs:cfg.E.costs
      ~goal:cfg.E.goal ()
  in
  let offline_bounds =
    List.map
      (fun (_, f) ->
        let cls = Heuristics.Strategy.heuristic_class (f ctx) in
        ( cls.Mcperf.Classes.name,
          Bounds.Pipeline.compute ~solver:cfg.E.solver whole cls ))
      cfg.E.strategies
  in
  let finals =
    List.map
      (fun k ->
        let _, epochs = E.run (config ~epoch_intervals:k ()) ~trace:cs.CS.trace in
        let last = List.nth epochs (List.length epochs - 1) in
        Alcotest.(check int)
          (Printf.sprintf "final intervals k=%d" k)
          intervals last.E.intervals;
        Alcotest.(check bool) (Printf.sprintf "final bounds k=%d" k) true
          (last.E.bounds <> []);
        List.iter
          (fun (name, (r : Bounds.Pipeline.t)) ->
            let o = List.assoc name offline_bounds in
            let label what = Printf.sprintf "%s %s k=%d" name what k in
            Alcotest.(check int64) (label "lower_bound bits")
              (Int64.bits_of_float o.Bounds.Pipeline.lower_bound)
              (Int64.bits_of_float r.Bounds.Pipeline.lower_bound);
            Alcotest.(check int) (label "lp_iterations")
              o.Bounds.Pipeline.lp_iterations r.Bounds.Pipeline.lp_iterations;
            Alcotest.(check string) (label "solve_path")
              (Bounds.Pipeline.path_label o.Bounds.Pipeline.solve_path)
              (Bounds.Pipeline.path_label r.Bounds.Pipeline.solve_path))
          last.E.bounds;
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
   really fan out. Iteration counts and solve paths in the view catch a
   worker that solved the wrong class even when the rounded decisions
   agree. *)
let test_jobs_identity () =
  let cs = Lazy.force cs in
  let run jobs =
    let t, epochs =
      E.run
        (config ~strategies:E.default_strategies ~jobs ~epoch_intervals:4 ())
        ~trace:cs.CS.trace
    in
    (digest (List.map epoch_view epochs), E.bound_solves t)
  in
  let d1, solves1 = run 1 in
  List.iter
    (fun jobs ->
      let d, solves = run jobs in
      Alcotest.(check string) (Printf.sprintf "epochs jobs 1 = jobs %d" jobs) d1 d;
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

(* [config] is a public record, so [create] checks the interval width
   itself rather than trusting that it came from [default]. *)
let test_create_rejects_bad_interval () =
  List.iter
    (fun interval_s ->
      Alcotest.check_raises
        (Printf.sprintf "interval_s = %g" interval_s)
        (Invalid_argument "Engine.create: interval_s must be positive")
        (fun () ->
          ignore (E.create { (config ~epoch_intervals:4 ()) with E.interval_s })))
    [ 0.; Float.nan; Float.infinity ]

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
          Alcotest.test_case "non-positive interval rejected" `Quick
            test_create_rejects_bad_interval;
          Alcotest.test_case "failing search closes the epoch span" `Quick
            test_failing_search_closes_epoch_span;
        ] );
    ]
