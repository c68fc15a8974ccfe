(* Regenerates the paper's evaluation figures (Section 6).

   - fig1: lower bounds per heuristic class vs QoS goal (WEB and GROUP).
   - fig2: cost of the chosen deployed heuristic vs its class bound, with
     LRU caching for comparison.
   - fig3: the two-phase deployment scenario (node opening + bounds on the
     reduced topology).
   - scale: solver wall-clock vs instance size (the Section 5 discussion).

   Absolute numbers depend on the synthetic substitutes for the paper's
   proprietary trace and topology (see DESIGN.md); the reproduced
   artefacts are the orderings, ceilings and cost ratios. *)

module CS = Replica_select.Case_study
module SS = Replica_select.Scale_scenario
module Report = Replica_select.Report
module Methodology = Replica_select.Methodology

let qos_sweep quick =
  if quick then [ 0.95; 0.999; 0.99999 ] else CS.qos_points

let maybe_write_csv ~csv_dir ~name series =
  match csv_dir with
  | None -> ()
  | Some dir ->
    if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
    let path = Filename.concat dir (name ^ ".csv") in
    let oc = open_out path in
    output_string oc (Report.csv_of_figure series);
    close_out oc;
    Printf.printf "wrote %s\n%!" path

let cost_of_result (r : Bounds.Pipeline.t) =
  if r.Bounds.Pipeline.feasible then Some r.Bounds.Pipeline.lower_bound
  else None

(* Recovery bookkeeping: how each sweep's cells were actually solved and
   how much supervision the worker pool needed. Quiet unless something
   out of the ordinary happened (or faults are being injected, so the
   recovery paths are visibly exercised). *)
let pool_nontrivial (p : Util.Parallel.pool_stats) =
  p.Util.Parallel.worker_deaths > 0
  || p.Util.Parallel.respawns > 0
  || p.Util.Parallel.task_retries > 0
  || p.Util.Parallel.inline_recoveries > 0
  || p.Util.Parallel.timeouts > 0
  || p.Util.Parallel.fork_failures > 0
  || p.Util.Parallel.degraded
  || p.Util.Parallel.remote_deaths > 0
  || p.Util.Parallel.reconnects > 0
  || p.Util.Parallel.blacklisted > 0

let pool_summary (p : Util.Parallel.pool_stats) =
  Printf.sprintf
    "deaths=%d respawns=%d retries=%d inline=%d timeouts=%d fork_failures=%d \
     remote_workers=%d remote_deaths=%d reconnects=%d blacklisted=%d%s"
    p.Util.Parallel.worker_deaths p.Util.Parallel.respawns
    p.Util.Parallel.task_retries p.Util.Parallel.inline_recoveries
    p.Util.Parallel.timeouts p.Util.Parallel.fork_failures
    p.Util.Parallel.remote_workers p.Util.Parallel.remote_deaths
    p.Util.Parallel.reconnects p.Util.Parallel.blacklisted
    (if p.Util.Parallel.degraded then " degraded" else "")

(* Acceptance violations (deadline overruns, failed certificate rechecks)
   accumulate here; the figure drivers exit nonzero when any occurred so
   scripted runs can gate on them. *)
let violations = ref 0

(* Distributed-sweep configuration, installed ambiently by the CLI (like
   the fault spec): remote worker addresses and the per-task timeout that
   makes dropped dispatch frames recoverable. Every bound sweep in the
   process picks them up through [sweep_figure]. *)
let dist_workers : (string * int) list ref = ref []
let dist_task_timeout_s : float option ref = ref None

(* --- observability ------------------------------------------------------- *)

(* The ambient Obs configuration is installed once, before any sweep
   forks workers. --trace keeps the deterministic logical clock (the
   trace is byte-identical at every --jobs); --profile switches on
   wall-clock attributes and timing histograms for performance triage. *)
let setup_obs ~trace ~metrics ~profile =
  if trace <> None || metrics <> None || profile then
    Obs.Config.install
      {
        Obs.Config.trace = trace <> None || profile;
        metrics = metrics <> None || profile;
        wall_clock = profile;
        sink =
          (match trace with
          | Some f -> Obs.Config.Jsonl_file f
          | None -> Obs.Config.Null);
        metrics_path = metrics;
      }

(* The counters worth a line in the per-sweep summary: enough to see at
   a glance where a sweep's work went (solver iterations, fallback hops,
   pool supervision) when triaging a degraded or slow cell. *)
let summary_counters =
  lazy
    (List.map
       (fun n -> (n, Obs.Metrics.counter n))
       [
         "pipeline.cells"; "pipeline.fallback_hops"; "pdhg.solves";
         "pdhg.iterations"; "pdhg.restarts"; "pdhg.deadline_stops";
         "simplex.solves"; "simplex.pivots"; "branch_bound.nodes";
         "sim.heuristic_runs"; "pool.tasks_dispatched"; "pool.worker_deaths";
         "pool.task_retries"; "pool.inline_recoveries"; "pool.timeouts";
       ])

(* Metrics accumulate for the whole process, so the per-sweep table
   shows the movement across one sweep: value-after minus value-before
   for every counter that moved. *)
let with_metrics_summary ~name f =
  if not (Obs.Config.metering ()) then f ()
  else begin
    let counters = Lazy.force summary_counters in
    let before =
      List.map (fun (n, c) -> (n, Obs.Metrics.counter_value c)) counters
    in
    let r = f () in
    let moved =
      List.filter_map
        (fun ((n, c), (_, b)) ->
          let d = Obs.Metrics.counter_value c - b in
          if d > 0 then Some (n, d) else None)
        (List.combine counters before)
    in
    if moved <> [] then begin
      Printf.printf "metrics %s:\n" name;
      List.iter (fun (n, d) -> Printf.printf "  %-28s %12d\n" n d) moved;
      Printf.printf "%!"
    end;
    r
  end

let print_sweep_robustness ~name (sweep : Bounds.Pipeline.sweep) =
  let paths =
    List.filter (fun (_, n) -> n > 0) (Bounds.Pipeline.path_counts sweep)
  in
  let fallbacks =
    List.exists
      (fun (p, _) ->
        p = Bounds.Pipeline.Path_pdhg_retry
        || p = Bounds.Pipeline.Path_simplex_fallback)
      paths
  in
  if
    Util.Faults.active () || fallbacks
    || pool_nontrivial sweep.Bounds.Pipeline.pool
    || sweep.Bounds.Pipeline.resumed > 0
  then
    Printf.printf "robustness %s: paths[%s] pool[%s] resumed=%d\n%!" name
      (String.concat " "
         (List.map
            (fun (p, n) ->
              Printf.sprintf "%s=%d" (Bounds.Pipeline.path_label p) n)
            paths))
      (pool_summary sweep.Bounds.Pipeline.pool)
      sweep.Bounds.Pipeline.resumed

(* Degradation bookkeeping: which quality each cell stopped with, and —
   under a --deadline — whether the sweep honored its budget. The grace
   term is one cell's wall-clock plus scheduling slop: the governor can
   only stop a cell at its next solver checkpoint, so the last cell may
   straddle the deadline by its own runtime but never more. *)
let print_sweep_quality ~name ~deadline_s ~cell_budget_s
    (sweep : Bounds.Pipeline.sweep) =
  let budgeted =
    Float.is_finite deadline_s || Float.is_finite cell_budget_s
  in
  let counts =
    List.filter (fun (_, n) -> n > 0) (Bounds.Pipeline.quality_counts sweep)
  in
  let degraded =
    List.exists
      (fun (q, _) ->
        q = Bounds.Pipeline.Iter_budget || q = Bounds.Pipeline.Time_budget)
      counts
  in
  if budgeted || degraded then
    Printf.printf "quality %s: %s\n%!" name
      (String.concat " "
         (List.map
            (fun (q, n) ->
              Printf.sprintf "%s=%d" (Bounds.Pipeline.quality_label q) n)
            counts));
  if Float.is_finite deadline_s then begin
    let max_cell =
      List.fold_left
        (fun acc (s : Bounds.Pipeline.task_stat) ->
          Float.max acc s.Bounds.Pipeline.wall_s)
        0. sweep.Bounds.Pipeline.stats
    in
    let grace = max_cell +. 1.0 in
    let elapsed = sweep.Bounds.Pipeline.elapsed_s in
    if elapsed <= deadline_s +. grace then
      Printf.printf "deadline %s: budget %.2fs elapsed %.2fs (within; grace %.2fs)\n%!"
        name deadline_s elapsed grace
    else begin
      incr violations;
      Printf.printf "deadline %s: budget %.2fs elapsed %.2fs OVERRUN (grace %.2fs)\n%!"
        name deadline_s elapsed grace
    end
  end

(* Recheck every cell's certificate from scratch (see
   {!Bounds.Pipeline.certify}): feasible cells must reproduce their bound
   from the attached dual, infeasible cells must carry a Farkas ray that
   [check_farkas] accepts. *)
let certify_sweep ?placeable ~name spec (sweep : Bounds.Pipeline.sweep)
    classes =
  match spec.Mcperf.Spec.goal with
  | Mcperf.Spec.Avg_latency _ -> ()
  | Mcperf.Spec.Qos { tlat_ms; _ } ->
    let total = ref 0 and ok = ref 0 in
    List.iter
      (fun (label, results) ->
        match List.assoc_opt label classes with
        | None -> ()
        | Some cls ->
          List.iter
            (fun (q, r) ->
              incr total;
              let spec =
                {
                  spec with
                  Mcperf.Spec.goal = Mcperf.Spec.Qos { tlat_ms; fraction = q };
                }
              in
              match Bounds.Pipeline.certify ?placeable spec cls r with
              | Ok () -> incr ok
              | Error msg ->
                incr violations;
                Printf.printf "certificate FAIL %s @ %.5f: %s\n%!" label q msg)
            results)
      sweep.Bounds.Pipeline.per_class;
    Printf.printf "certificates %s: %d/%d verified\n%!" name !ok !total

(* One parallel batch for a whole figure: every (class, point) cell is an
   independent task, so a figure's bound grid saturates the worker pool
   instead of sweeping class by class. [journal_dir] turns on
   checkpointing: an interrupted run re-executed with the same arguments
   resumes from DIR/<name>.journal. *)
let sweep_figure ?placeable ?journal_dir ?(deadline_s = infinity)
    ?(cell_budget_s = infinity) ?(certify = false) ~name ~jobs spec points
    classes =
  let journal =
    Option.map
      (fun dir ->
        if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
        Filename.concat dir (name ^ ".journal"))
      journal_dir
  in
  let cfg =
    {
      Bounds.Pipeline.Sweep_config.default with
      jobs;
      placeable;
      deadline_s;
      cell_budget_s;
      journal;
      workers = !dist_workers;
      timeout_s = !dist_task_timeout_s;
    }
  in
  let sweep =
    with_metrics_summary ~name (fun () ->
        Bounds.Pipeline.sweep_classes cfg spec ~fractions:points classes)
  in
  print_sweep_robustness ~name sweep;
  print_sweep_quality ~name ~deadline_s ~cell_budget_s sweep;
  if certify then certify_sweep ?placeable ~name spec sweep classes;
  let series =
    List.map
      (fun (label, results) ->
        Report.series_of ~label
          (List.map (fun (q, r) -> (q, cost_of_result r)) results))
      sweep.Bounds.Pipeline.per_class
  in
  (series, Report.timing_of_stats sweep.Bounds.Pipeline.stats,
   sweep.Bounds.Pipeline.elapsed_s)

(* --- Figure 1 ----------------------------------------------------------- *)

let fig1_classes =
  [
    ("General lower bound", Mcperf.Classes.general);
    ("Storage constrained", Mcperf.Classes.storage_constrained);
    ("Replica constrained", Mcperf.Classes.replica_constrained_uniform);
    ("Decentral local routing", Mcperf.Classes.decentralized_local_routing);
    ( "Caching",
      Mcperf.Classes.allow_intra_interval_reaction Mcperf.Classes.caching );
    ( "Cooperative caching",
      Mcperf.Classes.allow_intra_interval_reaction
        Mcperf.Classes.cooperative_caching );
  ]

let fig1 ?csv_dir ?journal_dir ~quick ~scale ~seed ~jobs ~deadline_s
    ~cell_budget_s ~certify workload =
  let cs = CS.make ~seed ~scale workload in
  let spec = CS.qos_spec cs ~fraction:0.95 ~for_bounds:true () in
  let points = qos_sweep quick in
  Logs.app (fun f ->
      f "fig1 %s: %d classes x %d points, jobs=%d ..."
        (CS.workload_name workload)
        (List.length fig1_classes) (List.length points) jobs);
  let name = "fig1-" ^ String.lowercase_ascii (CS.workload_name workload) in
  let series, timing, elapsed_s =
    sweep_figure ?journal_dir ~deadline_s ~cell_budget_s ~certify ~name ~jobs
      spec points fig1_classes
  in
  Report.print_figure
    ~title:
      (Printf.sprintf
         "Figure 1 (%s): lower bound per heuristic class vs QoS goal"
         (CS.workload_name workload))
    ~xlabel:"QoS" series;
  Report.print_timing
    ~title:(Printf.sprintf "fig1 %s" (CS.workload_name workload))
    ~jobs ~elapsed_s timing;
  maybe_write_csv ~csv_dir ~name series;
  series

(* --- Figure 2 ----------------------------------------------------------- *)

(* Deployed-heuristic sweeps: one task per goal point. Each point's
   minimal-parameter search is itself monotone-deterministic, so parallel
   and sequential sweeps agree; the raw per-point outcomes are returned so
   callers can derive ratios without re-simulating. [cell_budget_s] gives
   each point an advisory budget: the bisection inside is anytime (its
   upper bracket stays feasible), so on expiry it returns a valid but
   possibly non-minimal parameter. *)
let deployed_sweep ?(cell_budget_s = infinity) ~jobs ~label points run =
  let budget_of =
    if Float.is_finite cell_budget_s then Some (fun _ -> cell_budget_s)
    else None
  in
  let t0 = Unix.gettimeofday () in
  let outcomes = Util.Parallel.map ~jobs ?budget_of ~f:run points in
  let elapsed_s = Unix.gettimeofday () -. t0 in
  let pool = Util.Parallel.last_pool_stats () in
  if pool_nontrivial pool then
    Printf.printf "robustness %s: pool[%s]\n%!" label (pool_summary pool);
  let raw =
    List.map2 (fun q (o : _ Util.Parallel.result) -> (q, o.Util.Parallel.value))
      points outcomes
  in
  let series =
    Report.series_of ~label
      (List.map
         (fun (q, d) ->
           (q, Option.map (fun (d : Sim.Runner.deployed) -> d.Sim.Runner.cost) d))
         raw)
  in
  let timing =
    List.map2
      (fun q (o : _ Util.Parallel.result) ->
        {
          Report.task = label;
          x = q;
          wall_s = o.Util.Parallel.wall_s;
          solver = "sim";
          iterations = 0;
          quality = "-";
        })
      points outcomes
  in
  (series, raw, timing, elapsed_s)

let fig2 ?csv_dir ?journal_dir ~quick ~scale ~seed ~jobs ~deadline_s
    ~cell_budget_s ~certify workload =
  let cs = CS.make ~seed ~scale workload in
  let points = qos_sweep quick in
  let bound_spec = CS.qos_spec cs ~fraction:0.95 ~for_bounds:true () in
  let sim_spec q = CS.qos_spec cs ~fraction:q ~for_bounds:false () in
  let chosen_cls, chosen_label, run_chosen =
    match workload with
    | CS.Web ->
      ( Mcperf.Classes.storage_constrained,
        "Greedy global heuristic",
        fun q -> Sim.Runner.greedy_global ~spec:(sim_spec q) () )
    | CS.Group ->
      ( Mcperf.Classes.replica_constrained_uniform,
        "Replica constrained heuristic",
        fun q -> Sim.Runner.greedy_replica ~spec:(sim_spec q) () )
  in
  Logs.app (fun f -> f "fig2 %s: class bound ..." (CS.workload_name workload));
  let bound_label =
    match workload with
    | CS.Web -> "Storage constrained bound"
    | CS.Group -> "Replica constrained bound"
  in
  let bound_series, bound_timing, bound_elapsed =
    sweep_figure ?journal_dir ~deadline_s ~cell_budget_s ~certify
      ~name:
        ("fig2-" ^ String.lowercase_ascii (CS.workload_name workload) ^ "-bound")
      ~jobs bound_spec points
      [ (bound_label, chosen_cls) ]
  in
  Logs.app (fun f -> f "fig2 %s: %s ..." (CS.workload_name workload) chosen_label);
  let chosen_series, chosen_raw, chosen_timing, chosen_elapsed =
    deployed_sweep ~cell_budget_s ~jobs ~label:chosen_label points run_chosen
  in
  Logs.app (fun f -> f "fig2 %s: LRU caching ..." (CS.workload_name workload));
  let lru_series, lru_raw, lru_timing, lru_elapsed =
    deployed_sweep ~cell_budget_s ~jobs ~label:"LRU caching" points (fun q ->
        Sim.Runner.lru_caching ~spec:(sim_spec q) ~trace:cs.CS.trace ())
  in
  let series = List.concat [ bound_series; [ chosen_series; lru_series ] ] in
  Report.print_figure
    ~title:
      (Printf.sprintf
         "Figure 2 (%s): deployed heuristic cost vs its class bound"
         (CS.workload_name workload))
    ~xlabel:"QoS" series;
  Report.print_timing
    ~title:(Printf.sprintf "fig2 %s" (CS.workload_name workload))
    ~jobs
    ~elapsed_s:(bound_elapsed +. chosen_elapsed +. lru_elapsed)
    (bound_timing @ chosen_timing @ lru_timing);
  (* The introduction's headline claim: cost ratio of the default heuristic
     (LRU) to the methodology's choice, at the goals both can meet. *)
  let ratios =
    List.filter_map
      (fun q ->
        match (List.assoc q chosen_raw, List.assoc q lru_raw) with
        | Some c, Some l when c.Sim.Runner.cost > 0. ->
          Some (q, l.Sim.Runner.cost /. c.Sim.Runner.cost)
        | _ -> None)
      points
  in
  List.iter
    (fun (q, ratio) ->
      Printf.printf "intro-claim %s @ %.5f: LRU costs %.1fx the chosen heuristic\n"
        (CS.workload_name workload) q ratio)
    ratios;
  maybe_write_csv ~csv_dir
    ~name:("fig2-" ^ String.lowercase_ascii (CS.workload_name workload))
    series;
  series

(* --- Figure 3 ----------------------------------------------------------- *)

let fig3_classes =
  [
    ( "Reactive bound",
      Mcperf.Classes.allow_intra_interval_reaction
        Mcperf.Classes.reactive_general );
    ("Storage constrained", Mcperf.Classes.storage_constrained);
    ("Replica constrained", Mcperf.Classes.replica_constrained_uniform);
    ( "Caching bound",
      Mcperf.Classes.allow_intra_interval_reaction Mcperf.Classes.caching );
  ]

let fig3 ?csv_dir ?journal_dir ~quick ~scale ~seed ~zeta ~jobs ~deadline_s
    ~cell_budget_s ~certify workload =
  let cs = CS.make ~seed ~scale workload in
  let points = qos_sweep quick in
  (* Phase 1: decide where to deploy nodes. The planning goal must be one
     the reactive classes can reach at all (heavy-tailed workloads have an
     irreducible cold-miss floor per site), so plan at the sweep's lowest
     goal; phase 2 then reports how far up the deployed system can go. *)
  let phase1_spec = CS.qos_spec cs ~fraction:0.95 ~for_bounds:true () in
  match Methodology.plan_deployment ~zeta phase1_spec with
  | None ->
    Printf.printf "fig3 %s: no deployment can meet the goal\n"
      (CS.workload_name workload);
    []
  | Some plan ->
    Report.print_deployment plan;
    (* Phase 2: bounds with users reassigned to the open nodes and
       placement restricted to them. *)
    let placeable = plan.Methodology.placeable in
    let bound_spec =
      Methodology.reassign_demand
        (CS.qos_spec cs ~fraction:0.95 ~for_bounds:true ())
        plan
    in
    let sim_spec q =
      Methodology.reassign_demand (CS.qos_spec cs ~fraction:q ~for_bounds:false ()) plan
    in
    let trace =
      Workload.Trace.remap_nodes cs.CS.trace
        ~mapping:plan.Methodology.assignment
    in
    Logs.app (fun f ->
        f "fig3 %s: %d classes x %d points, jobs=%d ..."
          (CS.workload_name workload)
          (List.length fig3_classes) (List.length points) jobs);
    let bound_series, bound_timing, bound_elapsed =
      sweep_figure ~placeable ?journal_dir ~deadline_s ~cell_budget_s ~certify
        ~name:
          ("fig3-"
          ^ String.lowercase_ascii (CS.workload_name workload)
          ^ "-bound")
        ~jobs bound_spec points fig3_classes
    in
    let deployed, _, deployed_timing, deployed_elapsed =
      match workload with
      | CS.Web ->
        deployed_sweep ~cell_budget_s ~jobs ~label:"Greedy global heuristic"
          points (fun q ->
            Sim.Runner.greedy_global ~placeable ~spec:(sim_spec q) ())
      | CS.Group ->
        deployed_sweep ~cell_budget_s ~jobs ~label:"LRU caching" points
          (fun q ->
            Sim.Runner.lru_caching ~placeable ~spec:(sim_spec q) ~trace ())
    in
    let series = bound_series @ [ deployed ] in
    Report.print_figure
      ~title:
        (Printf.sprintf
           "Figure 3 (%s): bounds with only the %d deployed nodes"
           (CS.workload_name workload)
           (List.length plan.Methodology.open_nodes))
      ~xlabel:"QoS" series;
    Report.print_timing
      ~title:(Printf.sprintf "fig3 %s" (CS.workload_name workload))
      ~jobs
      ~elapsed_s:(bound_elapsed +. deployed_elapsed)
      (bound_timing @ deployed_timing);
    maybe_write_csv ~csv_dir
      ~name:("fig3-" ^ String.lowercase_ascii (CS.workload_name workload))
      series;
    series

(* --- Scale (Section 5 runtime discussion) -------------------------------- *)

let scale_experiment ~seed () =
  Printf.printf
    "\n=== Solver wall-clock vs instance scale (general bound, WEB, 99%%) ===\n";
  Printf.printf "%-8s %-10s %-10s %-12s %-12s %-10s\n" "scale" "vars" "rows"
    "solve(s)" "round(s)" "gap";
  List.iter
    (fun scale ->
      let cs = CS.make ~seed ~scale CS.Web in
      let spec = CS.qos_spec cs ~fraction:0.99 ~for_bounds:true () in
      let perm = Mcperf.Permission.compute spec Mcperf.Classes.general in
      let model = Mcperf.Model.build perm in
      let t0 = Unix.gettimeofday () in
      let out =
        Lp.Pdhg.solve ~options:Bounds.Pipeline.default_pdhg_options
          model.Mcperf.Model.problem
      in
      let t1 = Unix.gettimeofday () in
      let rounded = Rounding.Round.round model ~x:out.Lp.Pdhg.x in
      let t2 = Unix.gettimeofday () in
      let gap =
        match rounded with
        | Ok r ->
          let c = r.Rounding.Round.evaluation.Mcperf.Costing.total in
          Printf.sprintf "%.1f%%"
            (100. *. (c -. out.Lp.Pdhg.best_bound) /. Float.max c 1e-9)
        | Error _ -> "-"
      in
      Printf.printf "%-8.3f %-10d %-10d %-12.2f %-12.2f %-10s\n%!" scale
        (Lp.Problem.nvars model.Mcperf.Model.problem)
        (Lp.Problem.nrows model.Mcperf.Model.problem)
        (t1 -. t0) (t2 -. t1) gap)
    [ 0.02; 0.05; 0.1; 0.2 ]

(* --- Selection methodology demo (Section 6.1 narrative) ------------------- *)

let selection ~scale ~seed workload =
  let cs = CS.make ~seed ~scale workload in
  let spec = CS.qos_spec cs ~fraction:0.999 ~for_bounds:true () in
  let sel = Methodology.select spec in
  Report.print_selection
    ~title:
      (Printf.sprintf "Heuristic selection for %s at 99.9%% QoS"
         (CS.workload_name workload))
    sel


(* --- validate: cross-check every bound producer on small instances -------- *)

let validate ~seed () =
  Printf.printf
    "\n=== Cross-validation: IP optimum vs LP bounds vs rounding (8 nodes, 2%% WEB) ===\n";
  Printf.printf "%-30s %12s %12s %12s %12s\n" "class" "simplex-LP"
    "pdhg-bound" "lagrangian" "rounded";
  let cs = CS.make ~seed ~nodes:8 ~scale:0.01 ~intervals:8 CS.Web in
  let spec = CS.qos_spec cs ~fraction:0.95 ~for_bounds:true () in
  List.iter
    (fun (cls : Mcperf.Classes.t) ->
      let perm = Mcperf.Permission.compute spec cls in
      if not (Mcperf.Permission.feasible perm) then
        Printf.printf "%-30s infeasible at this goal\n" cls.Mcperf.Classes.name
      else begin
        let model = Mcperf.Model.build perm in
        let problem = model.Mcperf.Model.problem in
        let simplex_lp, x_exact =
          match Lp.Simplex.solve problem with
          | Lp.Simplex.Optimal { x; objective } -> (objective, Some x)
          | Lp.Simplex.Infeasible | Lp.Simplex.Unbounded -> (nan, None)
        in
        let pdhg =
          (Lp.Pdhg.solve
             ~options:{ Lp.Pdhg.default_options with max_iters = 10_000; rel_tol = 1e-5 }
             problem)
            .Lp.Pdhg.best_bound
        in
        let lagr =
          (Bounds.Lagrangian.bound ~iterations:40 spec cls)
            .Bounds.Lagrangian.bound
        in
        let rounded =
          match x_exact with
          | Some x -> (
            match Rounding.Round.round model ~x with
            | Ok r -> r.Rounding.Round.evaluation.Mcperf.Costing.total
            | Error _ -> nan)
          | None -> nan
        in
        Printf.printf "%-30s %12.2f %12.2f %12.2f %12.2f\n%!"
          cls.Mcperf.Classes.name simplex_lp pdhg lagr rounded
      end)
    [
      Mcperf.Classes.general;
      Mcperf.Classes.storage_constrained;
      Mcperf.Classes.replica_constrained;
      Mcperf.Classes.replica_constrained_uniform;
      Mcperf.Classes.cooperative_caching;
    ];
  (* A second, genuinely tiny instance where the exact IP is tractable:
     the LP bound must sit below the IP optimum, the rounded cost above. *)
  Printf.printf
    "\n=== Tiny instance (5 nodes, 4 intervals): LP <= IP <= rounded ===\n";
  Printf.printf "%-30s %12s %12s %12s\n" "class" "LP" "IP" "rounded";
  let cs = CS.make ~seed ~nodes:5 ~scale:0.002 ~intervals:4 CS.Web in
  let spec = CS.qos_spec cs ~fraction:0.9 ~for_bounds:true () in
  List.iter
    (fun (cls : Mcperf.Classes.t) ->
      let perm = Mcperf.Permission.compute spec cls in
      if not (Mcperf.Permission.feasible perm) then
        Printf.printf "%-30s infeasible at this goal\n" cls.Mcperf.Classes.name
      else begin
        let model = Mcperf.Model.build perm in
        let problem = model.Mcperf.Model.problem in
        match Lp.Simplex.solve problem with
        | Lp.Simplex.Infeasible | Lp.Simplex.Unbounded ->
          Printf.printf "%-30s LP failed\n" cls.Mcperf.Classes.name
        | Lp.Simplex.Optimal { x; objective = lp } ->
          let ip =
            match Ipsolve.Branch_bound.solve ~max_nodes:20_000 problem with
            | Ipsolve.Branch_bound.Optimal { objective; _ } -> objective
            | Ipsolve.Branch_bound.Node_limit _
            | Ipsolve.Branch_bound.Infeasible ->
              nan
          in
          let rounded =
            match Rounding.Round.round model ~x with
            | Ok r -> r.Rounding.Round.evaluation.Mcperf.Costing.total
            | Error _ -> nan
          in
          Printf.printf "%-30s %12.2f %12.2f %12.2f\n%!"
            cls.Mcperf.Classes.name lp ip rounded
      end)
    [ Mcperf.Classes.general; Mcperf.Classes.replica_constrained ]

(* --- validate --family tree: the exact DP as ground truth ----------------- *)

module TS = Replica_select.Tree_scenario

(* Every number printed here is deterministic (no wall clocks), so
   scripted runs can [cmp] the output across --jobs settings. *)
let validate_tree ~seed ~count ~jobs () =
  let tol x = 1e-6 *. (1. +. Float.abs x) in
  let fail name fmt =
    incr violations;
    Printf.printf "FAIL %s: " name;
    Printf.kfprintf (fun oc -> output_char oc '\n') stdout fmt
  in
  Printf.printf
    "\n=== Tree family: exact DP vs every other producer (%d instances, seed %d) ===\n"
    count seed;
  Printf.printf "%-22s %5s %5s %9s %9s %9s %9s %9s %9s %12s\n" "instance"
    "nodes" "sites" "dp" "simplex" "pdhg" "lagrange" "rounded" "propor"
    "path";
  let family = TS.family ~seed ~count () in
  List.iter
    (fun (scen : TS.t) ->
      let spec = scen.TS.spec and placeable = scen.TS.placeable in
      let name = scen.TS.name in
      let nodes = Mcperf.Spec.node_count spec in
      let sites =
        match placeable with
        | None -> nodes
        | Some p -> Array.fold_left (fun n b -> if b then n + 1 else n) 0 p
      in
      let dp_cell = Bounds.Pipeline.compute ?placeable spec Mcperf.Classes.general in
      if not dp_cell.Bounds.Pipeline.feasible then
        fail name "general class infeasible";
      if dp_cell.Bounds.Pipeline.solve_path <> Bounds.Pipeline.Path_tree_dp
      then
        fail name "not routed through tree-dp (%s)"
          (Bounds.Pipeline.path_label dp_cell.Bounds.Pipeline.solve_path);
      let dp = dp_cell.Bounds.Pipeline.lower_bound in
      (match
         Bounds.Pipeline.certify ?placeable spec Mcperf.Classes.general
           dp_cell
       with
      | Ok () -> ()
      | Error msg -> fail name "certify rejected the DP cell: %s" msg);
      let lp_cell =
        Bounds.Pipeline.compute ~solver:Bounds.Pipeline.Exact_simplex
          ?placeable spec Mcperf.Classes.general
      in
      let lp = lp_cell.Bounds.Pipeline.lower_bound in
      if lp > dp +. tol dp then fail name "simplex LP %.6f above DP %.6f" lp dp;
      let rounded =
        match lp_cell.Bounds.Pipeline.rounded with
        | None -> nan
        | Some r ->
          let ev = r.Rounding.Round.evaluation in
          if not ev.Mcperf.Costing.meets_goal then
            fail name "rounded LP placement misses the goal";
          if ev.Mcperf.Costing.total < dp -. tol dp then
            fail name "rounded LP cost %.6f below DP optimum %.6f"
              ev.Mcperf.Costing.total dp;
          ev.Mcperf.Costing.total
      in
      let pdhg_cell =
        Bounds.Pipeline.compute
          ~solver:
            (Bounds.Pipeline.First_order
               {
                 Lp.Pdhg.default_options with
                 Lp.Pdhg.max_iters = 20_000;
                 rel_tol = 1e-6;
               })
          ?placeable spec Mcperf.Classes.general
      in
      let pdhg = pdhg_cell.Bounds.Pipeline.lower_bound in
      if pdhg > dp +. tol dp then
        fail name "PDHG bound %.6f above DP %.6f" pdhg dp;
      (* the Lagrangian producer has no placeable support; compare only
         on unrestricted instances *)
      let lagr =
        match placeable with
        | Some _ -> nan
        | None ->
          let b =
            (Bounds.Lagrangian.bound ~iterations:40 spec
               Mcperf.Classes.general)
              .Bounds.Lagrangian.bound
          in
          if b > dp +. tol dp then
            fail name "Lagrangian %.6f above DP %.6f" b dp;
          b
      in
      let prop =
        match
          Sim.Runner.deploy_offline ?placeable
            ~factory:Heuristics.Proportional.strategy ~spec ()
        with
        | None ->
          fail name "proportional search found no feasible budget";
          nan
        | Some d ->
          if d.Sim.Runner.cost < dp -. tol dp then
            fail name "proportional cost %.6f below DP optimum %.6f"
              d.Sim.Runner.cost dp;
          d.Sim.Runner.cost
      in
      Printf.printf "%-22s %5d %5d %9.2f %9.2f %9.2f %9.2f %9.2f %9.2f %12s\n%!"
        name nodes sites dp lp pdhg lagr rounded prop
        (Bounds.Pipeline.path_label dp_cell.Bounds.Pipeline.solve_path))
    family;
  (* Sweep layer: the same instances through sweep_classes at the
     requested --jobs; every general cell must take the DP path and the
     printed grid is identical at any --jobs (which is why the header
     does not echo the jobs count). *)
  Printf.printf "\n=== Tree sweeps (general + caching) ===\n";
  List.iter
    (fun (scen : TS.t) ->
      let cfg =
        {
          Bounds.Pipeline.Sweep_config.default with
          Bounds.Pipeline.Sweep_config.jobs;
          placeable = scen.TS.placeable;
        }
      in
      let sweep =
        Bounds.Pipeline.sweep_classes cfg scen.TS.spec
          ~fractions:TS.default_fractions
          [
            ("general", Mcperf.Classes.general);
            ( "caching",
              Mcperf.Classes.allow_intra_interval_reaction
                Mcperf.Classes.caching );
          ]
      in
      List.iter
        (fun (label, cells) ->
          Printf.printf "%-22s %-8s" scen.TS.name label;
          List.iter
            (fun (q, (r : Bounds.Pipeline.t)) ->
              if
                String.equal label "general"
                && r.Bounds.Pipeline.feasible
                && r.Bounds.Pipeline.solve_path
                   <> Bounds.Pipeline.Path_tree_dp
              then
                fail scen.TS.name "sweep cell @ %g not on the DP path" q;
              Printf.printf "  %g:%s" q
                (if r.Bounds.Pipeline.feasible then
                   Printf.sprintf "%.2f" r.Bounds.Pipeline.lower_bound
                 else "-"))
            cells;
          print_newline ())
        sweep.Bounds.Pipeline.per_class)
    family;
  Printf.printf "\ntree validation: %s\n%!"
    (if !violations = 0 then "all checks passed"
     else Printf.sprintf "%d violations" !violations)

(* --- validate --family avail: correlated failures, survivable bounds ------ *)

(* Like the tree family, every number printed here is deterministic (no
   wall clocks, order-preserving parallel maps), so scripted runs [cmp]
   the output across --jobs settings. [count] is the sampled scenario
   count. *)
let validate_avail ~seed ~count ~jobs () =
  let tol x = 1e-6 *. (1. +. Float.abs x) in
  let fail name fmt =
    incr violations;
    Printf.printf "FAIL %s: " name;
    Printf.kfprintf (fun oc -> output_char oc '\n') stdout fmt
  in
  Printf.printf
    "\n=== Avail family: failure sampler, survivability, scenario LP (%d \
     scenarios, seed %d) ===\n"
    count seed;
  let cs = CS.make ~seed ~nodes:8 ~scale:0.01 ~intervals:8 CS.Web in
  let spec = CS.qos_spec cs ~fraction:0.95 ~for_bounds:true () in
  let sys = spec.Mcperf.Spec.system in
  let nodes = Mcperf.Spec.node_count spec in
  let groups = Avail.Groups.derive sys in
  Printf.printf "failure groups: %d\n" (Array.length groups);
  Array.iter
    (fun (g : Avail.Groups.t) ->
      Printf.printf "  %-14s size=%d members=[%s]\n" g.Avail.Groups.name
        (Array.length g.Avail.Groups.members)
        (String.concat ","
           (Array.to_list (Array.map string_of_int g.Avail.Groups.members))))
    groups;
  let sspec = { Avail.Scenario.default with Avail.Scenario.seed; count } in
  let scenarios = Avail.Scenario.sample_all sspec sys ~groups in
  (* Sampler determinism: a second sampling pass must be byte-identical. *)
  let scenarios2 = Avail.Scenario.sample_all sspec sys ~groups in
  Array.iteri
    (fun i s ->
      if
        not
          (String.equal (Avail.Scenario.signature s)
             (Avail.Scenario.signature scenarios2.(i)))
      then fail "sampler" "scenario %d not reproducible" i)
    scenarios;
  Printf.printf "\nscenarios (down-count, signature):";
  Array.iter
    (fun s ->
      Printf.printf " %d:%s" (Avail.Scenario.down_count s)
        (Avail.Scenario.signature s))
    scenarios;
  print_newline ();
  let perm = Mcperf.Permission.compute spec Mcperf.Classes.general in
  (* The expected-cost scenario LP for the general class: a lower bound
     on the expected degraded cost of EVERY placement that meets the
     nominal goal. *)
  let bound_cell =
    Bounds.Avail_bound.expected_cost_bound spec Mcperf.Classes.general
      ~scenarios
  in
  if not bound_cell.Bounds.Avail_bound.feasible then
    fail "scenario-lp" "general class reported infeasible at the goal";
  Printf.printf
    "\nscenario LP (general): bound=%.4f vars=%d (%d nominal) rows=%d %s\n"
    bound_cell.Bounds.Avail_bound.expected_bound
    bound_cell.Bounds.Avail_bound.vars
    bound_cell.Bounds.Avail_bound.nominal_vars
    bound_cell.Bounds.Avail_bound.rows
    (if bound_cell.Bounds.Avail_bound.exact then "simplex" else "pdhg");
  (* Placements to check the bound against: the rounded LP solution and
     the two centralized greedy heuristics, all evaluated on the same
     spec. *)
  let placements =
    List.filter_map
      (fun x -> x)
      [
        (match
           (Bounds.Pipeline.compute spec Mcperf.Classes.general)
             .Bounds.Pipeline.rounded
         with
        | Some r -> Some ("rounded-lp", r.Rounding.Round.placement)
        | None -> None);
        Option.bind
          (Sim.Runner.greedy_global ~jobs ~spec ())
          (fun d ->
            Option.map (fun p -> ("greedy-global", p)) d.Sim.Runner.placement);
        Option.bind
          (Sim.Runner.greedy_replica ~jobs ~spec ())
          (fun d ->
            Option.map (fun p -> ("greedy-replica", p)) d.Sim.Runner.placement);
      ]
  in
  if placements = [] then fail "placements" "no feasible placement produced";
  Printf.printf "\n%-14s %10s %10s %10s %9s %9s %9s\n" "placement" "cost"
    "expected" "lp-bound" "fragility" "worstviol" "meanunav";
  List.iter
    (fun (name, placement) ->
      let base = Mcperf.Costing.evaluate perm placement in
      if not base.Mcperf.Costing.meets_goal then
        fail name "placement misses the nominal goal";
      (* All-up degradation must reproduce the nominal total exactly. *)
      let up = Array.make nodes false in
      let d0 = Avail.Survive.degrade ~base perm placement ~down:up in
      if
        Float.abs (d0.Avail.Survive.degraded_cost -. base.Mcperf.Costing.total)
        > 1e-9 *. (1. +. Float.abs base.Mcperf.Costing.total)
      then
        fail name "all-up degraded cost %.6f <> nominal %.6f"
          d0.Avail.Survive.degraded_cost base.Mcperf.Costing.total;
      (* Monotonicity along a nested chain of failure sets. *)
      let chain = Array.init nodes (fun n -> n) in
      let prev = ref d0.Avail.Survive.degraded_cost in
      let down = Array.make nodes false in
      Array.iter
        (fun n ->
          if n <> sys.Topology.System.origin then begin
            down.(n) <- true;
            let d = Avail.Survive.degrade ~base perm placement ~down in
            if d.Avail.Survive.degraded_cost < !prev -. tol !prev then
              fail name "degraded cost dropped when failing node %d" n;
            prev := d.Avail.Survive.degraded_cost
          end)
        chain;
      (* Assessment is identical at --jobs 1 and the requested --jobs. *)
      let a1 = Avail.Survive.assess ~jobs:1 perm placement ~scenarios in
      let aj = Avail.Survive.assess ~jobs perm placement ~scenarios in
      if a1 <> aj then fail name "assessment differs across jobs";
      (* The scenario LP is a valid lower bound on the expected degraded
         cost of this goal-meeting placement. *)
      if
        bound_cell.Bounds.Avail_bound.feasible
        && aj.Avail.Survive.expected_cost
           < bound_cell.Bounds.Avail_bound.expected_bound
             -. tol bound_cell.Bounds.Avail_bound.expected_bound
      then
        fail name "expected degraded cost %.6f below scenario LP %.6f"
          aj.Avail.Survive.expected_cost
          bound_cell.Bounds.Avail_bound.expected_bound;
      (* k-failure checks agree with their own survives flag. *)
      let checks =
        Bounds.Avail_bound.k_failure_check perm placement ~groups ()
      in
      let survived =
        Array.fold_left
          (fun acc (c : Bounds.Avail_bound.group_check) ->
            let expect =
              c.Bounds.Avail_bound.violation <= 0.05 +. 1e-12
            in
            if expect <> c.Bounds.Avail_bound.survives then
              fail name "k-failure survives flag inconsistent for %s"
                c.Bounds.Avail_bound.group;
            if c.Bounds.Avail_bound.survives then acc + 1 else acc)
          0 checks
      in
      Printf.printf "%-14s %10.2f %10.2f %10.2f %9.4f %9.4f %9.4f  k2:%d/%d\n"
        name base.Mcperf.Costing.total aj.Avail.Survive.expected_cost
        bound_cell.Bounds.Avail_bound.expected_bound
        aj.Avail.Survive.fragility aj.Avail.Survive.worst_violation
        aj.Avail.Survive.mean_unavailable survived (Array.length checks))
    placements;
  (* Timeline: deterministic regeneration and jobs-invariant replay. *)
  let tl = Avail.Scenario.timeline sspec sys ~groups in
  let tl2 = Avail.Scenario.timeline sspec sys ~groups in
  if
    not
      (String.equal
         (Avail.Scenario.render_timeline tl)
         (Avail.Scenario.render_timeline tl2))
  then fail "timeline" "regeneration not byte-identical";
  let down_steps =
    Array.fold_left
      (fun acc row -> if Array.exists (fun d -> d) row then acc + 1 else acc)
      0 tl.Avail.Scenario.down
  in
  Printf.printf "\ntimeline: %d steps, %d with failures\n"
    tl.Avail.Scenario.steps down_steps;
  (match placements with
  | (name, placement) :: _ ->
    let r1 =
      Sim.Runner.degradation_replay ~jobs:1 ~perm ~placement ~timeline:tl ()
    in
    let rj =
      Sim.Runner.degradation_replay ~jobs ~perm ~placement ~timeline:tl ()
    in
    if r1 <> rj then fail name "replay differs across jobs";
    Printf.printf
      "replay %s: unavail_steps=%d worst_violation=%.4f mean_cost_ratio=%.4f\n"
      name rj.Sim.Runner.unavail_steps rj.Sim.Runner.worst_violation
      rj.Sim.Runner.mean_cost_ratio
  | [] -> ());
  Printf.printf "\navail validation: %s\n%!"
    (if !violations = 0 then "all checks passed"
     else Printf.sprintf "%d violations" !violations)

(* --- tree figure: how much the rule-of-thumb leaves on the table ---------- *)

(* On trees the general bound is the exact optimum (the DP), so the
   figure reads as ground truth vs the caching class's bound vs the
   proportional heuristic's deployed cost — the paper's bound-vs-deployed
   comparison, but with the bound known to be tight. *)
let figtree ?csv_dir ~seed ~jobs () =
  let scen = TS.make ~seed (TS.Random { nodes = 24 }) in
  let spec = scen.TS.spec in
  let points = [ 0.9; 0.95; 0.99; 0.999 ] in
  let classes =
    [
      ("Exact tree optimum (general)", Mcperf.Classes.general);
      ( "Caching",
        Mcperf.Classes.allow_intra_interval_reaction Mcperf.Classes.caching );
    ]
  in
  let name = Printf.sprintf "figtree-n24-s%d" seed in
  let series, timing, elapsed_s =
    sweep_figure ~name ~jobs spec points classes
  in
  (match spec.Mcperf.Spec.goal with
  | Mcperf.Spec.Avg_latency _ -> ()
  | Mcperf.Spec.Qos { tlat_ms; _ } ->
    let prop =
      Report.series_of ~label:"Proportional (deployed)"
        (List.map
           (fun q ->
             let spec =
               {
                 spec with
                 Mcperf.Spec.goal = Mcperf.Spec.Qos { tlat_ms; fraction = q };
               }
             in
             ( q,
               Option.map
                 (fun (d : Sim.Runner.deployed) -> d.Sim.Runner.cost)
                 (Sim.Runner.deploy_offline
                    ~factory:Heuristics.Proportional.strategy ~spec ()) ))
           points)
    in
    let series = series @ [ prop ] in
    Report.print_figure
      ~title:
        (Printf.sprintf
           "Tree figure (random 24-node tree, seed %d): exact optimum vs \
            caching bound vs proportional heuristic"
           seed)
      ~xlabel:"QoS" series;
    Report.print_timing ~title:"figtree" ~jobs ~elapsed_s timing;
    maybe_write_csv ~csv_dir ~name series)

(* --- avail figure: fragility frontier vs the scenario-LP bound ------------ *)

(* Every deployed heuristic is sized at the nominal goal as in fig2, then
   re-priced under the sampled correlated-failure scenarios: the table
   ranks heuristics by fragility (expected degraded-cost blow-up) and
   compares their expected degraded cost against the class-level scenario
   LP (a certified lower bound for every goal-meeting placement). A
   degradation replay over the failure timeline adds the temporal view.
   Timings go to stderr; stdout is deterministic. *)
let figavail ~seed ~scale ~scenarios:scenario_count ~jobs workload =
  let cs = CS.make ~seed ~scale workload in
  let fraction = 0.95 in
  let sim_spec = CS.qos_spec cs ~fraction ~for_bounds:false () in
  let bound_spec = CS.qos_spec cs ~fraction ~for_bounds:true () in
  let sys = sim_spec.Mcperf.Spec.system in
  let groups = Avail.Groups.derive sys in
  let sspec =
    {
      Avail.Scenario.default with
      Avail.Scenario.seed;
      count = scenario_count;
    }
  in
  let scenarios = Avail.Scenario.sample_all sspec sys ~groups in
  let perm = Mcperf.Permission.compute sim_spec Mcperf.Classes.general in
  Printf.printf
    "\n=== figavail (%s): fragility frontier @ QoS %.2f (%d scenarios, %d \
     failure groups, seed %d) ===\n"
    (CS.workload_name workload) fraction (Array.length scenarios)
    (Array.length groups) seed;
  let t0 = Unix.gettimeofday () in
  let runners =
    [
      (fun () -> Sim.Runner.lru_caching ~jobs ~spec:sim_spec ~trace:cs.CS.trace ());
      (fun () ->
        Sim.Runner.cooperative_caching ~jobs ~spec:sim_spec ~trace:cs.CS.trace ());
      (fun () ->
        Sim.Runner.caching_with_prefetch ~jobs ~spec:sim_spec ~trace:cs.CS.trace ());
      (fun () ->
        Sim.Runner.hierarchical_caching ~jobs ~spec:sim_spec ~trace:cs.CS.trace ());
      (fun () -> Sim.Runner.greedy_global ~jobs ~spec:sim_spec ());
      (fun () -> Sim.Runner.greedy_replica ~jobs ~spec:sim_spec ());
    ]
  in
  let timeline = Avail.Scenario.timeline sspec sys ~groups in
  let assessed =
    List.filter_map
      (fun run ->
        match run () with
        | Some (d : Sim.Runner.deployed) -> (
          match d.Sim.Runner.placement with
          | Some p ->
            let a = Avail.Survive.assess ~jobs perm p ~scenarios in
            let checks =
              Bounds.Avail_bound.k_failure_check perm p ~groups ()
            in
            let survived =
              Array.fold_left
                (fun acc (c : Bounds.Avail_bound.group_check) ->
                  if c.Bounds.Avail_bound.survives then acc + 1 else acc)
                0 checks
            in
            let replay =
              Sim.Runner.degradation_replay ~jobs ~perm ~placement:p ~timeline
                ()
            in
            Some (d, a, survived, Array.length checks, replay)
          | None -> None)
        | None -> None)
      runners
  in
  (* Rank by fragility, most robust first; ties break on the name. *)
  let ranked =
    List.stable_sort
      (fun (d1, a1, _, _, _) (d2, a2, _, _, _) ->
        match compare a1.Avail.Survive.fragility a2.Avail.Survive.fragility with
        | 0 -> compare d1.Sim.Runner.name d2.Sim.Runner.name
        | c -> c)
      assessed
  in
  (* [cost] is the deployed, class-priced cost (as in fig2); [nominal]
     and [expected] re-price the placement uniformly under the general
     class, which is what fragility relates. *)
  Printf.printf "%-28s %5s %10s %10s %10s %9s %9s %9s %6s %12s\n" "heuristic"
    "param" "cost" "nominal" "expected" "fragility" "worstviol" "meanunav"
    "k2-ok" "replay";
  List.iter
    (fun ((d : Sim.Runner.deployed), a, survived, total, (r : Sim.Runner.replay)) ->
      Printf.printf
        "%-28s %5d %10.1f %10.1f %10.1f %9.4f %9.4f %9.4f %3d/%-3d %5d/%d steps\n"
        d.Sim.Runner.name d.Sim.Runner.parameter d.Sim.Runner.cost
        a.Avail.Survive.base_cost a.Avail.Survive.expected_cost
        a.Avail.Survive.fragility
        a.Avail.Survive.worst_violation a.Avail.Survive.mean_unavailable
        survived total r.Sim.Runner.unavail_steps
        (Array.length r.Sim.Runner.steps))
    ranked;
  (* Class-level expected-cost bounds on the aggregated bound demand. *)
  let chosen_cls, chosen_name =
    match workload with
    | CS.Web -> (Mcperf.Classes.storage_constrained, "storage-constrained")
    | CS.Group ->
      (Mcperf.Classes.replica_constrained_uniform, "replica-constrained")
  in
  Printf.printf "\n%-28s %12s %12s %8s %8s\n" "class" "nominal-lb"
    "expected-lb" "vars" "solver";
  List.iter
    (fun (label, cls) ->
      let nominal = Bounds.Pipeline.compute bound_spec cls in
      let cell =
        Bounds.Avail_bound.expected_cost_bound bound_spec cls ~scenarios
      in
      Printf.printf "%-28s %12.1f %12.1f %8d %8s\n" label
        (if nominal.Bounds.Pipeline.feasible then
           nominal.Bounds.Pipeline.lower_bound
         else nan)
        (if cell.Bounds.Avail_bound.feasible then
           cell.Bounds.Avail_bound.expected_bound
         else nan)
        cell.Bounds.Avail_bound.vars
        (if cell.Bounds.Avail_bound.exact then "simplex" else "pdhg"))
    [ ("general", Mcperf.Classes.general); (chosen_name, chosen_cls) ];
  Printf.eprintf "figavail %s: %.1fs\n%!" (CS.workload_name workload)
    (Unix.gettimeofday () -. t0)

(* --- scale figure: Lagrangian sweep on the CDN scale family --------------- *)

(* Fig2-style sweep at 200+ nodes and 10k objects, far past where the
   monolithic LP is tractable, via the bundled + sharded Lagrangian
   decomposition. Everything printed on stdout is deterministic in the
   inputs (timings go to stderr), so check.sh can [cmp] runs at
   different --jobs byte for byte. *)
let figscale ~seed ~objects ~jobs ~check () =
  let fail fmt =
    incr violations;
    Printf.printf "FAIL figscale: ";
    Printf.kfprintf (fun oc -> output_char oc '\n') stdout fmt
  in
  let points = [ 0.9; 0.95; 0.99 ] in
  let scen = SS.make ~seed ~objects () in
  let spec = SS.qos_spec scen ~fraction:(List.hd points) in
  let t0 = Unix.gettimeofday () in
  let sweep =
    Bounds.Lagrangian.sweep ~iterations:40 ~jobs spec Mcperf.Classes.general
      ~fractions:points
  in
  let elapsed = Unix.gettimeofday () -. t0 in
  Printf.printf "\n=== Scale figure: %s (%d nodes, %d objects, %d leaves) ===\n"
    scen.SS.name (SS.node_count scen) (SS.object_count scen) scen.SS.leaves;
  (match sweep with
  | (_, out) :: _ ->
    Printf.printf
      "bundling: %d objects -> %d bundles (%.1fx), %d rescaled members\n"
      out.Bounds.Lagrangian.objects out.Bounds.Lagrangian.bundles
      (float_of_int out.Bounds.Lagrangian.objects
      /. float_of_int (max 1 out.Bounds.Lagrangian.bundles))
      out.Bounds.Lagrangian.rescaled_members
  | [] -> ());
  Printf.printf "%-8s %14s %10s %10s\n" "QoS" "lagr-bound" "sub-exact"
    "sub-pdhg";
  List.iter
    (fun (q, (out : Bounds.Lagrangian.outcome)) ->
      Printf.printf "%-8g %14.2f %10d %10d\n" q out.Bounds.Lagrangian.bound
        out.Bounds.Lagrangian.subproblems_exact
        out.Bounds.Lagrangian.subproblems_bounded)
    sweep;
  Printf.eprintf "figscale: sweep %.2fs (jobs=%d)\n%!" elapsed jobs;
  if check then begin
    (* Down-shifted instance where the monolithic LP is still exactly
       solvable: the Lagrangian dual must stay below the LP optimum
       (weak duality), and — the family being homogeneous — the bundled
       bound must equal the forced-unbundled one bit for bit. *)
    let small = SS.make ~seed ~fanouts:[ 2; 3 ] ~objects:60 () in
    List.iter
      (fun q ->
        let spec = SS.qos_spec small ~fraction:q in
        let bundled =
          Bounds.Lagrangian.bound ~iterations:40 ~jobs spec
            Mcperf.Classes.general
        in
        let unbundled =
          Bounds.Lagrangian.bound ~iterations:40 ~jobs ~bundling:false spec
            Mcperf.Classes.general
        in
        if
          bundled.Bounds.Lagrangian.bound
          <> unbundled.Bounds.Lagrangian.bound
        then
          fail "bundled %.17g <> unbundled %.17g at QoS %g"
            bundled.Bounds.Lagrangian.bound
            unbundled.Bounds.Lagrangian.bound q;
        let perm = Mcperf.Permission.compute spec Mcperf.Classes.general in
        if Mcperf.Permission.feasible perm then begin
          let model = Mcperf.Model.build perm in
          match Lp.Simplex.solve model.Mcperf.Model.problem with
          | Lp.Simplex.Optimal { objective = lp; _ } ->
            if bundled.Bounds.Lagrangian.bound > lp +. 1e-6 then
              fail "lagrangian %.6f above LP optimum %.6f at QoS %g"
                bundled.Bounds.Lagrangian.bound lp q
          | Lp.Simplex.Infeasible | Lp.Simplex.Unbounded ->
            fail "small-instance LP did not solve at QoS %g" q
        end)
      points;
    if !violations = 0 then Printf.printf "scale checks passed\n%!"
  end

(* --- ablations: the design choices DESIGN.md calls out -------------------- *)

let ablation ~seed () =
  (* 1. Object aggregation: exact pattern classes vs popularity clusters.
     GROUP's uniform popularity makes clustering near-lossless and much
     faster; the table quantifies both claims. *)
  Printf.printf "\n=== Ablation 1: object aggregation (GROUP, 99%% QoS) ===\n";
  Printf.printf "%-24s %10s %14s %10s\n" "aggregation" "classes" "general-bound"
    "time(s)";
  List.iter
    (fun (label, bound_classes) ->
      let cs = CS.make ~seed ~bound_classes CS.Group in
      let spec = CS.qos_spec cs ~fraction:0.99 ~for_bounds:true () in
      let t0 = Unix.gettimeofday () in
      let r = Bounds.Pipeline.compute spec Mcperf.Classes.general in
      Printf.printf "%-24s %10d %14.1f %10.1f\n%!" label
        cs.CS.bound_demand.Workload.Demand.objects
        r.Bounds.Pipeline.lower_bound
        (Unix.gettimeofday () -. t0))
    [ ("exact patterns", 1000); ("popularity clusters", 24) ];
  (* 2. PDHG restarts: certified bound after a fixed budget. *)
  Printf.printf "\n=== Ablation 2: PDHG restart-to-average (WEB SC, 99.9%%, 8k iters) ===\n";
  let cs = CS.make ~seed CS.Web in
  let spec = CS.qos_spec cs ~fraction:0.999 ~for_bounds:true () in
  let perm =
    Mcperf.Permission.compute spec Mcperf.Classes.storage_constrained
  in
  let model = Mcperf.Model.build perm in
  List.iter
    (fun (label, restart_every) ->
      let t0 = Unix.gettimeofday () in
      let out =
        Lp.Pdhg.solve
          ~options:
            {
              Lp.Pdhg.default_options with
              max_iters = 8_000;
              rel_tol = 1e-7;
              restart_every;
            }
          model.Mcperf.Model.problem
      in
      Printf.printf "%-24s bound %12.1f  pinf %9.2e  (%.1fs)\n%!" label
        out.Lp.Pdhg.best_bound out.Lp.Pdhg.primal_infeasibility
        (Unix.gettimeofday () -. t0))
    [ ("no restarts", 0); ("restart every 1000", 1_000) ];
  (* 3. Replacement policy: same class bound, different deployed costs. *)
  Printf.printf "\n=== Ablation 3: replacement policy (WEB at 95%% QoS) ===\n";
  Printf.printf "%-10s %10s %12s %12s\n" "policy" "capacity" "cost" "worst-QoS";
  let sim_spec = CS.qos_spec cs ~fraction:0.95 ~for_bounds:false () in
  List.iter
    (fun policy ->
      match
        Sim.Runner.policy_caching ~policy ~spec:sim_spec ~trace:cs.CS.trace ()
      with
      | Some d ->
        Printf.printf "%-10s %10d %12.0f %12.5f\n%!"
          (Heuristics.Policy_cache.kind_name policy)
          d.Sim.Runner.parameter d.Sim.Runner.cost d.Sim.Runner.worst_qos
      | None ->
        Printf.printf "%-10s cannot meet the goal\n"
          (Heuristics.Policy_cache.kind_name policy))
    [ Heuristics.Policy_cache.Lru; Heuristics.Policy_cache.Fifo;
      Heuristics.Policy_cache.Lfu ];
  (* 4. The per-access reactive refinement (Theorem 3) on the caching
     ceiling. *)
  Printf.printf
    "\n=== Ablation 4: per-access reactive refinement (GROUP caching ceiling) ===\n";
  let csg = CS.make ~seed CS.Group in
  let specg = CS.qos_spec csg ~fraction:0.999 ~for_bounds:true () in
  List.iter
    (fun (label, cls) ->
      let p = Mcperf.Permission.compute specg cls in
      let ceiling =
        Array.fold_left Float.min 1. (Mcperf.Permission.max_feasible_qos p)
      in
      Printf.printf "%-34s worst-user ceiling %.5f\n%!" label ceiling)
    [
      ("caching, interval-exact (20a)", Mcperf.Classes.caching);
      ( "caching, per-access (Theorem 3)",
        Mcperf.Classes.allow_intra_interval_reaction Mcperf.Classes.caching );
    ]


(* --- workload: profile the synthetic case-study traces -------------------- *)

let workload_profiles ~scale ~seed () =
  List.iter
    (fun w ->
      let cs = CS.make ~seed ~scale w in
      Printf.printf "\n=== Workload profile: %s (scale %.2f) ===\n"
        (CS.workload_name w) scale;
      Format.printf "%a@." Workload.Profile.pp
        (Workload.Profile.of_trace cs.CS.trace))
    [ CS.Web; CS.Group ]


(* --- baselines: Qiu et al.'s placement-strategy comparison ---------------- *)

let baselines ~scale ~seed () =
  List.iter
    (fun w ->
      let cs = CS.make ~seed ~scale w in
      let spec = CS.qos_spec cs ~fraction:0.99 ~for_bounds:false () in
      Printf.printf
        "\n=== Placement strategies at fixed replication factors (%s, RC class) ===\n"
        (CS.workload_name w);
      Printf.printf "(worst-user QoS bought by the same storage budget)\n";
      Printf.printf "%-10s %12s %12s %12s\n" "replicas" "random" "hotspot"
        "greedy";
      List.iter
        (fun replicas ->
          let results =
            Heuristics.Placement_baselines.compare_strategies
              ~rng:(Util.Prng.create ~seed) ~spec ~replicas ()
          in
          (* The uniform replica constraint fixes the storage bill at
             alpha*I*K*R for every strategy; what distinguishes them is the
             worst-user QoS the same budget buys. *)
          let cost st =
            let _, (e : Mcperf.Costing.evaluation) =
              List.find (fun (s, _) -> s = st) results
            in
            Printf.sprintf "%.5f%s"
              (Array.fold_left Float.min 1. e.Mcperf.Costing.qos)
              (if e.Mcperf.Costing.meets_goal then "" else "*")
          in
          Printf.printf "%-10d %12s %12s %12s\n%!" replicas
            (cost Heuristics.Placement_baselines.Random)
            (cost Heuristics.Placement_baselines.Hotspot)
            (cost Heuristics.Placement_baselines.Greedy))
        [ 1; 2; 4; 8 ];
      Printf.printf "(* = does not meet the 99%% QoS goal at this factor)\n")
    [ CS.Web; CS.Group ]

(* --- validate --family strategy: ported heuristics vs the legacy route ---- *)

(* The heuristics now reach the runner only through the Strategy
   interface. This gate re-implements the pre-redesign deployment
   sequence verbatim (direct Permission.compute + place + evaluate, and
   direct Event_cache searches) and insists the strategy route produces
   byte-identical results — parameter, cost, QoS, placement and full
   outcome — on the seed case-study figures. *)

let digest_of v = Digest.to_hex (Digest.string (Marshal.to_string v [ Marshal.No_sharing ]))

let validate_strategy ~seed ~scale () =
  let module EC = Heuristics.Event_cache in
  let worst arr = Array.fold_left Float.min 1. arr in
  let check name legacy ported =
    let dl = digest_of legacy and dp = digest_of ported in
    if dl = dp then Printf.printf "  %-30s ok       %s\n" name (String.sub dl 0 12)
    else begin
      incr violations;
      Printf.printf "  %-30s MISMATCH legacy=%s ported=%s\n" name
        (String.sub dl 0 12) (String.sub dp 0 12)
    end
  in
  (* Pre-redesign cache deployment: linear object-count ceiling, direct
     Event_cache search. *)
  let legacy_cache ?policy ~name ~mode ~prefetch ~spec ~trace () =
    let tlat_ms = Mcperf.Spec.latency_threshold spec in
    let outcome_at c =
      EC.simulate ~system:spec.Mcperf.Spec.system ~trace
        ~intervals:(Mcperf.Spec.interval_count spec)
        ~costs:spec.Mcperf.Spec.costs ~tlat_ms ~capacity:c ~mode ~prefetch
        ?policy ()
    in
    let meets (o : EC.outcome) =
      match spec.Mcperf.Spec.goal with
      | Mcperf.Spec.Qos { fraction; _ } -> EC.meets_qos o ~fraction
      | Mcperf.Spec.Avg_latency { tavg_ms } ->
        Array.for_all (fun l -> l <= tavg_ms +. 1e-9) o.EC.avg_latency
    in
    let objects = Workload.Trace.object_count trace in
    match
      Sim.Search.min_feasible_int ~lo:0 ~hi:objects (fun c ->
          meets (outcome_at c))
    with
    | None -> None
    | Some capacity ->
      let o = outcome_at capacity in
      Some
        {
          Sim.Runner.name;
          parameter = capacity;
          cost = o.EC.provisioned_cost;
          worst_qos = worst o.EC.qos;
          detail = Sim.Runner.Cache o;
          placement = o.EC.placement;
        }
  in
  (* Pre-redesign placement deployment: Permission.compute under the
     heuristic's class, then place, then Costing.evaluate, searched
     directly over the parameter. *)
  let legacy_greedy_global ~spec () =
    let perm =
      Mcperf.Permission.compute spec Mcperf.Classes.storage_constrained
    in
    let total_weight =
      Util.Vecops.sum spec.Mcperf.Spec.demand.Workload.Demand.weight
    in
    let hi = int_of_float (Float.ceil total_weight) in
    let place c =
      Heuristics.Greedy_global.place ~perm ~capacity:(float_of_int c) ()
    in
    let eval_at c = Mcperf.Costing.evaluate perm (place c) in
    match
      Sim.Search.min_feasible_int ~lo:0 ~hi (fun c ->
          (eval_at c).Mcperf.Costing.meets_goal)
    with
    | None -> None
    | Some capacity ->
      let p = place capacity in
      let e = Mcperf.Costing.evaluate perm p in
      Some
        {
          Sim.Runner.name = "greedy-global";
          parameter = capacity;
          cost = e.Mcperf.Costing.total;
          worst_qos = worst e.Mcperf.Costing.qos;
          detail = Sim.Runner.Placement e;
          placement = Some p;
        }
  in
  let legacy_greedy_replica ~spec () =
    let perm =
      Mcperf.Permission.compute spec Mcperf.Classes.replica_constrained_uniform
    in
    let hi = Mcperf.Spec.node_count spec - 1 in
    let place r = Heuristics.Greedy_replica.place ~perm ~replicas:r () in
    let eval_at r = Mcperf.Costing.evaluate perm (place r) in
    match
      Sim.Search.min_feasible_int ~lo:0 ~hi (fun r ->
          (eval_at r).Mcperf.Costing.meets_goal)
    with
    | None -> None
    | Some replicas ->
      let p = place replicas in
      let e = Mcperf.Costing.evaluate perm p in
      Some
        {
          Sim.Runner.name = "greedy-replica";
          parameter = replicas;
          cost = e.Mcperf.Costing.total;
          worst_qos = worst e.Mcperf.Costing.qos;
          detail = Sim.Runner.Placement e;
          placement = Some p;
        }
  in
  (* Pre-redesign proportional search: scan budgets upward from zero (the
     empty placement wins when the origin already covers everything) and
     stop at the first that meets the goal. *)
  let legacy_proportional ~spec () =
    let perm = Mcperf.Permission.compute spec Mcperf.Classes.general in
    let max_total = Heuristics.Proportional.budget_ceiling perm in
    let rec scan total =
      if total > max_total then None
      else
        let placement =
          Heuristics.Proportional.place ~perm ~total_replicas:total ()
        in
        let ev = Mcperf.Costing.evaluate perm placement in
        if ev.Mcperf.Costing.meets_goal then Some (total, ev)
        else scan (total + 1)
    in
    scan 0
  in
  let strip (d : Sim.Runner.deployed option) =
    (* Compare everything except the display name (factories own their
       names now). *)
    Option.map
      (fun (d : Sim.Runner.deployed) ->
        (d.Sim.Runner.parameter, d.Sim.Runner.cost, d.Sim.Runner.worst_qos,
         d.Sim.Runner.detail, d.Sim.Runner.placement))
      d
  in
  List.iter
    (fun w ->
      let cs = CS.make ~seed ~scale w in
      Printf.printf "strategy port equivalence (%s, scale %.2f):\n"
        (CS.workload_name w) scale;
      List.iter
        (fun fraction ->
          Printf.printf " fraction %.5f\n" fraction;
          let spec = CS.qos_spec cs ~fraction ~for_bounds:false () in
          let trace = cs.CS.trace in
          check "greedy-global"
            (strip (legacy_greedy_global ~spec ()))
            (strip (Sim.Runner.greedy_global ~spec ()));
          check "greedy-replica"
            (strip (legacy_greedy_replica ~spec ()))
            (strip (Sim.Runner.greedy_replica ~spec ()));
          check "proportional"
            (legacy_proportional ~spec ())
            (match
               Sim.Runner.deploy_offline
                 ~factory:Heuristics.Proportional.strategy ~spec ()
             with
            | Some
                {
                  Sim.Runner.parameter;
                  detail = Sim.Runner.Placement e;
                  _;
                } ->
              Some (parameter, e)
            | _ -> None);
          check "lru-caching"
            (strip
               (legacy_cache ~name:"lru-caching" ~mode:EC.Local
                  ~prefetch:false ~spec ~trace ()))
            (strip (Sim.Runner.lru_caching ~spec ~trace ()));
          check "fifo-caching"
            (strip
               (legacy_cache ~policy:Heuristics.Policy_cache.Fifo
                  ~name:"fifo-caching" ~mode:EC.Local ~prefetch:false ~spec
                  ~trace ()))
            (strip
               (Sim.Runner.policy_caching ~policy:Heuristics.Policy_cache.Fifo
                  ~spec ~trace ())))
        [ 0.95; 0.999 ])
    [ CS.Web; CS.Group ];
  if !violations = 0 then Printf.printf "all strategy-port checks passed\n%!"

(* --- serve: the epoch-driven online placement service --------------------- *)

let serve ~source ~intervals ~epoch_intervals ~fraction ~tlat_ms ~jobs
    ~strategies () =
  let system, trace, label =
    match source with
    | `Synthetic (w, scale, seed) ->
      let cs = CS.make ~seed ~scale w in
      (cs.CS.system, cs.CS.trace, CS.workload_name w)
    | `Replay (trace_file, topo_file) ->
      let system =
        match Topology.Topo_io.load_system_result ~path:topo_file with
        | Ok s -> s
        | Error e -> failwith (Util.Parse_error.to_string e)
      in
      let trace =
        match Workload.Trace_io.load_result ~path:trace_file with
        | Ok t -> t
        | Error e -> failwith (Util.Parse_error.to_string e)
      in
      (system, trace, Filename.basename trace_file)
  in
  if Workload.Trace.node_count trace <> Topology.System.node_count system then
    failwith "serve: trace and topology disagree on node count";
  let interval_s = Workload.Trace.duration_s trace /. float_of_int intervals in
  let factories =
    match strategies with
    | [] -> Online.Engine.default_strategies
    | names ->
      List.map
        (fun n ->
          match Heuristics.Registry.find n with
          | Some f -> (n, f)
          | None ->
            failwith
              (Printf.sprintf "serve: unknown strategy %S (known: %s)" n
                 (String.concat ", " (Heuristics.Registry.names ()))))
        names
  in
  let config =
    {
      Online.Engine.system;
      interval_s;
      epoch_intervals;
      costs = Mcperf.Spec.default_costs;
      goal = Mcperf.Spec.Qos { tlat_ms; fraction };
      placeable = None;
      strategies = factories;
      solver = Bounds.Pipeline.Auto;
      jobs;
    }
  in
  Printf.printf
    "online service: %s nodes=%d intervals=%d epoch=%d fraction=%.5f \
     tlat=%.0fms strategies=%s\n"
    label
    (Topology.System.node_count system)
    intervals epoch_intervals fraction tlat_ms
    (String.concat "," (List.map fst factories));
  let engine = Online.Engine.create config in
  let chunks =
    Online.Engine.chunks ~interval_s ~epoch_intervals trace
  in
  List.iter
    (fun chunk ->
      let e = Online.Engine.feed engine chunk in
      Printf.printf
        "epoch %d: intervals=%d events=%d (+%d) working_set=%d\n"
        e.Online.Engine.index e.Online.Engine.intervals
        e.Online.Engine.total_events e.Online.Engine.chunk_events
        e.Online.Engine.working_set;
      if e.Online.Engine.decisions = [] then
        Printf.printf "  (warm-up: no reads yet)\n"
      else begin
        List.iter
          (fun (cls, (r : Bounds.Pipeline.t)) ->
            if r.Bounds.Pipeline.feasible then
              Printf.printf "  bound %-28s %14.6f\n" cls
                r.Bounds.Pipeline.lower_bound
            else Printf.printf "  bound %-28s     infeasible\n" cls)
          e.Online.Engine.bounds;
        List.iter
          (fun (d : Online.Engine.decision) ->
            match d.Online.Engine.parameter with
            | None ->
              Printf.printf "  %-28s infeasible at every parameter\n"
                d.Online.Engine.strategy
            | Some p ->
              Printf.printf "  %-28s param=%-5d cost=%14.6f qos=%.5f%s\n"
                d.Online.Engine.strategy p
                (Option.get d.Online.Engine.cost)
                (Option.get d.Online.Engine.worst_qos)
                (match d.Online.Engine.regret with
                | Some r -> Printf.sprintf " regret=%14.6f" r
                | None -> ""))
          e.Online.Engine.decisions
      end;
      (* Wall-clock lives on stderr so service output stays byte-stable
         across hosts and --jobs. *)
      Printf.eprintf "epoch %d timing: search %.3fs solve %.3fs\n%!"
        e.Online.Engine.index e.Online.Engine.search_s
        e.Online.Engine.solve_s)
    chunks;
  let epochs = Online.Engine.epochs engine in
  let decided =
    List.fold_left
      (fun acc (e : Online.Engine.epoch) ->
        acc
        + List.length
            (List.filter
               (fun (d : Online.Engine.decision) ->
                 d.Online.Engine.parameter <> None)
               e.Online.Engine.decisions))
      0 epochs
  in
  let negative_regret =
    List.exists
      (fun (e : Online.Engine.epoch) ->
        List.exists
          (fun (d : Online.Engine.decision) ->
            match d.Online.Engine.regret with
            | Some r -> r < -1e-9
            | None -> false)
          e.Online.Engine.decisions)
      epochs
  in
  if negative_regret then begin
    incr violations;
    Printf.printf "NEGATIVE REGRET: a deployed cost undercut its class bound\n"
  end;
  Printf.printf "served %d epochs: %d deployments, %d bound solves\n%!"
    (List.length epochs) decided
    (Online.Engine.bound_solves engine)

(* --- command line ---------------------------------------------------------- *)

open Cmdliner

let setup_logs verbose =
  Fmt_tty.setup_std_outputs ();
  Logs.set_reporter (Logs_fmt.reporter ());
  Logs.set_level (Some (if verbose then Logs.Info else Logs.App))

let verbose_t =
  Arg.(value & flag & info [ "verbose"; "v" ] ~doc:"Chatty solver logging.")

let quick_t =
  Arg.(
    value & flag
    & info [ "quick" ] ~doc:"Use 3 QoS points instead of 5 (faster).")

let scale_t =
  Arg.(
    value & opt float 0.1
    & info [ "scale" ] ~docv:"FACTOR"
        ~doc:"Workload scale; 1.0 is the paper's full size.")

let seed_t =
  Arg.(value & opt int 2004 & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed.")

let zeta_t =
  Arg.(
    value & opt float 10_000.
    & info [ "zeta" ] ~docv:"COST" ~doc:"Node-opening cost for fig3 phase 1.")

let jobs_t =
  Arg.(
    value & opt int 0
    & info [ "jobs"; "j" ] ~docv:"N"
        ~doc:
          "Worker processes for the sweep layers. 0 (the default) \
           auto-detects the processor count from /proc/cpuinfo; 1 forces \
           the sequential path. Results are identical at every setting.")

let csv_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "csv" ] ~docv:"DIR" ~doc:"Also write each figure as CSV into $(docv).")

let faults_conv =
  let parse s =
    match Util.Faults.parse_result s with
    | Ok spec -> Ok spec
    | Error e -> Error (`Msg (Util.Parse_error.to_string e))
  in
  let print ppf spec = Format.pp_print_string ppf (Util.Faults.to_string spec) in
  Arg.conv (parse, print)

let inject_t =
  Arg.(
    value
    & opt (some faults_conv) None
    & info [ "inject" ] ~docv:"SPEC"
        ~doc:
          "Deterministic fault injection, e.g. \
           'seed=42,crash=0.2,diverge=0.1' or 'crash_every=3,stall=0.05'. \
           Injected faults exercise worker supervision and the solver \
           fallback chain without changing any reported number. Defaults \
           to the $(b,REPLICA_FAULTS) environment variable.")

let journal_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "journal" ] ~docv:"DIR"
        ~doc:
          "Checkpoint each bound sweep into $(docv): an interrupted run \
           re-executed with the same arguments resumes from the journal \
           and produces identical output.")

let deadline_t =
  Arg.(
    value
    & opt (some float) None
    & info [ "deadline" ] ~docv:"SECONDS"
        ~doc:
          "Wall-clock budget per bound sweep. A governor apportions the \
           remaining budget across outstanding cells; cells that run out \
           of time stop at a solver checkpoint and keep their best \
           certified bound (the timing table's quality column records \
           which cells degraded). Unset: no clock is read and output is \
           byte-identical to an unbudgeted run.")

let cell_budget_t =
  Arg.(
    value
    & opt (some float) None
    & info [ "cell-budget" ] ~docv:"SECONDS"
        ~doc:
          "Cap any single sweep cell's solver time, independently of \
           $(b,--deadline). Also bounds each deployed-heuristic search \
           point (its bisection returns the best feasible parameter found \
           so far).")

let certify_t =
  Arg.(
    value & flag
    & info [ "certify" ]
        ~doc:
          "After each bound sweep, recheck every cell's certificate from \
           scratch: feasible cells must reproduce their lower bound from \
           the attached dual vector, infeasible cells must carry a \
           verified Farkas ray. Any failure makes the command exit \
           nonzero.")

let trace_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE.jsonl"
        ~doc:
          "Record a structured trace (solver spans, sweep cells, worker \
           tasks) and write it to $(docv) as JSON lines. Worker spans \
           from every job merge into one trace, ordered by logical \
           counters, so the file is byte-identical at every $(b,--jobs) \
           setting (unless $(b,--profile) adds wall-clock attributes).")

let metrics_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics" ] ~docv:"FILE.json"
        ~doc:
          "Collect solver / pipeline / pool counters and write the final \
           registry snapshot to $(docv) as JSON. Also prints a per-sweep \
           summary of the counters that moved.")

let profile_t =
  Arg.(
    value & flag
    & info [ "profile" ]
        ~doc:
          "Enable tracing and metrics with wall-clock attributes and \
           timing histograms (per-task wall clock, span durations). \
           Implies the per-sweep metrics summary; combine with \
           $(b,--trace) to keep the timed trace.")

let workers_conv =
  let parse s =
    match Dist.Client.parse_workers s with
    | Ok ws -> Ok ws
    | Error msg -> Error (`Msg msg)
  in
  let print ppf ws =
    Format.pp_print_string ppf
      (String.concat ","
         (List.map (fun (h, p) -> Printf.sprintf "%s:%d" h p) ws))
  in
  Arg.conv (parse, print)

let workers_t =
  Arg.(
    value & opt workers_conv []
    & info [ "workers" ] ~docv:"HOST:PORT,..."
        ~doc:
          "Remote sweep workers (each started with $(b,experiments worker \
           --listen PORT)). Every address becomes one extra pool slot \
           alongside the $(b,--jobs) local workers; $(b,--jobs 1) with a \
           worker list means no local workers at all. Dead workers are \
           reconnected with exponential backoff and blacklisted after \
           repeated failures; the sweep degrades to the survivors and \
           its output stays byte-identical to a local run. Pair with \
           $(b,--task-timeout).")

let task_timeout_t =
  Arg.(
    value
    & opt (some float) None
    & info [ "task-timeout" ] ~docv:"SECONDS"
        ~doc:
          "Per-task supervision deadline for the sweep pool: a cell that \
           produces no response within $(docv) has its worker killed (or \
           its connection torn down) and is retried. Required in practice \
           with $(b,--workers): a dropped dispatch frame is only ever \
           reclaimed by this timeout.")

let setup_dist workers task_timeout =
  dist_workers := workers;
  (dist_task_timeout_s :=
     match task_timeout with Some s when s > 0. -> Some s | _ -> None);
  if workers <> [] then
    Logs.app (fun f ->
        f "distributed sweep: %d remote worker%s (%s)%s" (List.length workers)
          (if List.length workers = 1 then "" else "s")
          (String.concat ", "
             (List.map (fun (h, p) -> Printf.sprintf "%s:%d" h p) workers))
          (match !dist_task_timeout_s with
          | Some s -> Printf.sprintf ", task timeout %gs" s
          | None -> ", no task timeout (drop faults would hang!)"))

let setup_faults inject =
  let spec =
    match inject with
    | Some spec -> spec
    | None -> (
      match Util.Faults.of_env_result () with
      | Ok spec -> spec
      | Error e ->
        Logs.warn (fun f ->
            f "ignoring malformed fault spec %s" (Util.Parse_error.to_string e));
        Util.Faults.none)
  in
  Util.Faults.install spec;
  if Util.Faults.active () then
    Logs.app (fun f ->
        f "fault injection active: %s" (Util.Faults.to_string spec))

let workload_t =
  let wconv =
    Arg.enum [ ("web", [ CS.Web ]); ("group", [ CS.Group ]);
               ("both", [ CS.Web; CS.Group ]) ]
  in
  Arg.(
    value & opt wconv [ CS.Web; CS.Group ]
    & info [ "workload"; "w" ] ~docv:"WORKLOAD" ~doc:"web, group or both.")

let resolve_jobs jobs = if jobs <= 0 then Util.Parallel.default_jobs () else jobs

let run_figure f =
  let run verbose quick scale seed zeta csv_dir jobs inject journal_dir
      deadline cell_budget certify trace metrics profile workers task_timeout
      workloads =
    setup_logs verbose;
    setup_faults inject;
    setup_obs ~trace ~metrics ~profile;
    setup_dist workers task_timeout;
    let jobs = resolve_jobs jobs in
    (* Non-positive budgets mean "no budget", matching sweep_classes —
       the overrun check must not treat them as already blown. *)
    let budget = function Some s when s > 0. -> s | _ -> infinity in
    let deadline_s = budget deadline in
    let cell_budget_s = budget cell_budget in
    List.iter
      (fun w ->
        ignore
          (f ?csv_dir ?journal_dir ~quick ~scale ~seed ~zeta ~jobs ~deadline_s
             ~cell_budget_s ~certify w))
      workloads;
    (* Write the merged trace / metrics snapshot (no-op when neither
       --trace, --metrics nor --profile was given). *)
    Obs.Sink.flush ();
    (match trace with
    | Some file -> Printf.printf "wrote trace %s\n%!" file
    | None -> ());
    (match metrics with
    | Some file -> Printf.printf "wrote metrics %s\n%!" file
    | None -> ());
    if !violations > 0 then exit 1
  in
  Term.(
    const run $ verbose_t $ quick_t $ scale_t $ seed_t $ zeta_t $ csv_t
    $ jobs_t $ inject_t $ journal_t $ deadline_t $ cell_budget_t $ certify_t
    $ trace_t $ metrics_t $ profile_t $ workers_t $ task_timeout_t
    $ workload_t)

let fig1_cmd =
  Cmd.v (Cmd.info "fig1" ~doc:"Lower bounds per class vs QoS (Figure 1).")
    (run_figure
       (fun ?csv_dir ?journal_dir ~quick ~scale ~seed ~zeta:_ ~jobs ~deadline_s
            ~cell_budget_s ~certify w ->
         fig1 ?csv_dir ?journal_dir ~quick ~scale ~seed ~jobs ~deadline_s
           ~cell_budget_s ~certify w))

let fig2_cmd =
  Cmd.v
    (Cmd.info "fig2" ~doc:"Deployed heuristics vs class bounds (Figure 2).")
    (run_figure
       (fun ?csv_dir ?journal_dir ~quick ~scale ~seed ~zeta:_ ~jobs ~deadline_s
            ~cell_budget_s ~certify w ->
         fig2 ?csv_dir ?journal_dir ~quick ~scale ~seed ~jobs ~deadline_s
           ~cell_budget_s ~certify w))

let fig3_cmd =
  Cmd.v (Cmd.info "fig3" ~doc:"Deployment scenario bounds (Figure 3).")
    (run_figure
       (fun ?csv_dir ?journal_dir ~quick ~scale ~seed ~zeta ~jobs ~deadline_s
            ~cell_budget_s ~certify w ->
         fig3 ?csv_dir ?journal_dir ~quick ~scale ~seed ~zeta ~jobs ~deadline_s
           ~cell_budget_s ~certify w))

let select_cmd =
  Cmd.v
    (Cmd.info "select"
       ~doc:"Run the Section 6.1 selection methodology and print the ranking.")
    (run_figure
       (fun ?csv_dir:_ ?journal_dir:_ ~quick:_ ~scale ~seed ~zeta:_ ~jobs:_
            ~deadline_s:_ ~cell_budget_s:_ ~certify:_ w ->
         selection ~scale ~seed w;
         []))

let baselines_cmd =
  let run verbose scale seed =
    setup_logs verbose;
    baselines ~scale ~seed ()
  in
  Cmd.v
    (Cmd.info "baselines"
       ~doc:"Replay Qiu et al.'s placement-strategy comparison (random vs \
             hotspot vs greedy) inside the MC-PERF cost model.")
    Term.(const run $ verbose_t $ scale_t $ seed_t)

let workload_cmd =
  let run verbose scale seed =
    setup_logs verbose;
    workload_profiles ~scale ~seed ()
  in
  Cmd.v
    (Cmd.info "workload"
       ~doc:"Profile the synthetic WEB/GROUP traces (popularity, site \
             shares, working sets, cold-miss floors).")
    Term.(const run $ verbose_t $ scale_t $ seed_t)

let ablation_cmd =
  let run verbose seed =
    setup_logs verbose;
    ablation ~seed ()
  in
  Cmd.v
    (Cmd.info "ablation"
       ~doc:"Quantify the repo's own design choices (aggregation, restarts, \
             policies, the Theorem-3 refinement).")
    Term.(const run $ verbose_t $ seed_t)

let validate_cmd =
  let family_t =
    Arg.(
      value
      & opt
          (enum
             [
               ("default", `Default); ("tree", `Tree); ("avail", `Avail);
               ("strategy", `Strategy);
             ])
          `Default
      & info [ "family" ] ~docv:"FAMILY"
          ~doc:
            "Instance family to validate: $(b,default) cross-checks the \
             case-study instance; $(b,tree) runs the tree scenario family, \
             where the closest-allocation DP is the exact optimum and \
             every other producer must sandwich it; $(b,avail) checks the \
             correlated-failure sampler, the survivability evaluator and \
             the expected-cost scenario LP against goal-meeting \
             placements; $(b,strategy) replays the pre-redesign heuristic \
             deployment sequence and insists the Strategy-interface route \
             reproduces it byte-for-byte on the seed figures. Tree, avail \
             and strategy output carries no wall clocks, so runs at \
             different $(b,--jobs) compare byte-for-byte.")
  in
  let count_t =
    Arg.(
      value & opt int 10
      & info [ "count" ] ~docv:"N"
          ~doc:
            "Tree-family instances, or avail-family sampled scenarios, to \
             validate.")
  in
  let run verbose seed scale family count jobs =
    setup_logs verbose;
    (match family with
    | `Default -> validate ~seed ()
    | `Tree -> validate_tree ~seed ~count ~jobs:(resolve_jobs jobs) ()
    | `Avail -> validate_avail ~seed ~count ~jobs:(resolve_jobs jobs) ()
    | `Strategy -> validate_strategy ~seed ~scale ());
    if !violations > 0 then exit 1
  in
  Cmd.v
    (Cmd.info "validate"
       ~doc:
         "Cross-check all bound producers (simplex, PDHG, Lagrangian, exact \
          IP, tree DP, rounding) on small instances; exits nonzero on any \
          violated bound ordering.")
    Term.(const run $ verbose_t $ seed_t $ scale_t $ family_t $ count_t $ jobs_t)

let serve_cmd =
  let trace_file_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-file" ] ~docv:"FILE"
          ~doc:
            "Replay a trace file (requires $(b,--topo)). Without it the \
             synthetic case-study workload of $(b,-w) is streamed.")
  in
  let topo_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "topo" ] ~docv:"FILE" ~doc:"Topology file for $(b,--trace-file).")
  in
  let one_workload_t =
    Arg.(
      value
      & opt (enum [ ("web", CS.Web); ("group", CS.Group) ]) CS.Web
      & info [ "workload"; "w" ] ~docv:"WORKLOAD"
          ~doc:"Synthetic workload to stream: web or group.")
  in
  let intervals_t =
    Arg.(
      value & opt int 24
      & info [ "intervals" ] ~docv:"N"
          ~doc:"Evaluation intervals covering the whole trace horizon.")
  in
  let epoch_t =
    Arg.(
      value & opt int 6
      & info [ "epoch-intervals" ] ~docv:"K"
          ~doc:"Intervals ingested per re-placement epoch.")
  in
  let fraction_t =
    Arg.(
      value & opt float 0.95
      & info [ "fraction" ] ~docv:"Q" ~doc:"QoS fraction of the goal.")
  in
  let tlat_t =
    Arg.(
      value & opt float 150.
      & info [ "tlat" ] ~docv:"MS" ~doc:"QoS latency threshold, ms.")
  in
  let strategies_t =
    Arg.(
      value
      & opt (list string) []
      & info [ "strategies" ] ~docv:"NAMES"
          ~doc:
            "Comma-separated strategy names from the registry (default: one \
             representative per major class).")
  in
  let run verbose trace_file topo w scale seed intervals epoch_intervals
      fraction tlat jobs strategies trace metrics profile =
    setup_logs verbose;
    setup_obs ~trace ~metrics ~profile;
    let source =
      match (trace_file, topo) with
      | Some tf, Some topo -> `Replay (tf, topo)
      | Some _, None | None, Some _ ->
        failwith "serve: --trace-file and --topo go together"
      | None, None -> `Synthetic (w, scale, seed)
    in
    serve ~source ~intervals ~epoch_intervals ~fraction ~tlat_ms:tlat
      ~jobs:(resolve_jobs jobs) ~strategies ();
    Obs.Sink.flush ();
    if !violations > 0 then exit 1
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the epoch-driven online placement service: stream a trace in \
          epoch-sized chunks, re-deploy every registered strategy per \
          epoch, bound each heuristic class on everything observed so far, \
          and report per-epoch regret (deployed cost minus class bound).")
    Term.(
      const run $ verbose_t $ trace_file_t $ topo_t $ one_workload_t $ scale_t
      $ seed_t $ intervals_t $ epoch_t $ fraction_t $ tlat_t $ jobs_t
      $ strategies_t $ trace_t $ metrics_t $ profile_t)

let figtree_cmd =
  let run verbose seed csv_dir jobs =
    setup_logs verbose;
    figtree ?csv_dir ~seed ~jobs:(resolve_jobs jobs) ();
    if !violations > 0 then exit 1
  in
  Cmd.v
    (Cmd.info "figtree"
       ~doc:
         "Tree-network figure: the exact DP optimum (general class) vs the \
          caching-class bound vs the proportional heuristic's deployed \
          cost, across QoS goals on a random tree.")
    Term.(const run $ verbose_t $ seed_t $ csv_t $ jobs_t)

let figavail_cmd =
  let scenarios_t =
    Arg.(
      value & opt int 32
      & info [ "scenarios" ] ~docv:"N"
          ~doc:"Sampled correlated-failure scenarios (default 32).")
  in
  let run verbose seed scale scenarios jobs workloads =
    setup_logs verbose;
    List.iter
      (fun w -> figavail ~seed ~scale ~scenarios ~jobs:(resolve_jobs jobs) w)
      workloads;
    if !violations > 0 then exit 1
  in
  Cmd.v
    (Cmd.info "figavail"
       ~doc:
         "Availability figure: every deployed heuristic re-priced under \
          sampled correlated-failure scenarios, ranked by fragility \
          (expected degraded-cost blow-up), with worst-case k-failure \
          survival per failure group and a degradation replay over a \
          failure timeline — against the class-level expected-cost \
          scenario LP bound. Deterministic stdout (timings on stderr).")
    Term.(
      const run $ verbose_t $ seed_t $ scale_t $ scenarios_t $ jobs_t
      $ workload_t)

let scale_cmd =
  let run verbose seed =
    setup_logs verbose;
    scale_experiment ~seed ()
  in
  Cmd.v
    (Cmd.info "scale" ~doc:"Solver wall-clock vs instance size (Section 5).")
    Term.(const run $ verbose_t $ seed_t)

let figscale_cmd =
  let objects_t =
    Arg.(
      value & opt int 10_000
      & info [ "objects" ] ~docv:"N"
          ~doc:"Objects in the CDN scale scenario (default 10000).")
  in
  let check_t =
    Arg.(
      value & flag
      & info [ "check" ]
          ~doc:
            "Also cross-check the decomposition on a small instance: \
             Lagrangian dual below the exact LP optimum, and the bundled \
             bound bit-identical to the forced-unbundled one. Exits \
             nonzero on any violation.")
  in
  let run verbose seed objects jobs check =
    setup_logs verbose;
    figscale ~seed ~objects ~jobs:(resolve_jobs jobs) ~check ();
    if !violations > 0 then exit 1
  in
  Cmd.v
    (Cmd.info "figscale"
       ~doc:
         "Fig2-style QoS sweep on the 200+-node / 10k-object CDN scale \
          family via the bundled, sharded Lagrangian decomposition. \
          Deterministic stdout (timings on stderr), so output can be \
          compared byte-for-byte across $(b,--jobs).")
    Term.(const run $ verbose_t $ seed_t $ objects_t $ jobs_t $ check_t)

let worker_cmd =
  let port_t =
    Arg.(
      required
      & opt (some int) None
      & info [ "listen" ] ~docv:"PORT"
          ~doc:
            "TCP port to listen on (0 binds an ephemeral port; the \
             stderr banner reports the bound one).")
  in
  let host_t =
    Arg.(
      value & opt string "127.0.0.1"
      & info [ "host" ] ~docv:"HOST"
          ~doc:"Address to bind (default loopback only).")
  in
  let run verbose port host =
    setup_logs verbose;
    (* No --inject here on purpose: each coordinator session ships its
       own fault spec (and obs config, and pool phase) in its handshake,
       so a chaos run controls every process from one flag. *)
    Dist.Server.serve ~host ~port ()
  in
  Cmd.v
    (Cmd.info "worker"
       ~doc:
         "Run as a distributed sweep worker: accept coordinator sessions \
          on $(b,--listen) and solve the cells they dispatch. One session \
          child is forked per connection, so injected crashes kill a \
          session, never the listener. Point a coordinator at it with \
          $(b,--workers HOST:PORT).")
    Term.(const run $ verbose_t $ port_t $ host_t)

let all_cmd =
  Cmd.v
    (Cmd.info "all" ~doc:"Run every experiment (fig1, fig2, fig3, scale).")
    (run_figure
       (fun ?csv_dir ?journal_dir ~quick ~scale ~seed ~zeta ~jobs ~deadline_s
            ~cell_budget_s ~certify w ->
         ignore
           (fig1 ?csv_dir ?journal_dir ~quick ~scale ~seed ~jobs ~deadline_s
              ~cell_budget_s ~certify w);
         ignore
           (fig2 ?csv_dir ?journal_dir ~quick ~scale ~seed ~jobs ~deadline_s
              ~cell_budget_s ~certify w);
         ignore
           (fig3 ?csv_dir ?journal_dir ~quick ~scale ~seed ~zeta ~jobs
              ~deadline_s ~cell_budget_s ~certify w);
         selection ~scale ~seed w;
         if w = CS.Web then scale_experiment ~seed ();
         []))

let main =
  Cmd.group
    (Cmd.info "experiments" ~version:"1.0"
       ~doc:
         "Regenerate the evaluation of 'Choosing Replica Placement \
          Heuristics for Wide-Area Systems' (ICDCS 2004).")
    [
      fig1_cmd; fig2_cmd; fig3_cmd; figtree_cmd; figscale_cmd; figavail_cmd;
      select_cmd; scale_cmd;
      validate_cmd; serve_cmd; ablation_cmd; workload_cmd; baselines_cmd;
      worker_cmd;
      all_cmd;
    ]

let () = exit (Cmd.eval main)
