type solver =
  | Auto
  | Exact_simplex
  | First_order of Lp.Pdhg.options

type solve_path =
  | Path_presolve
  | Path_tree_dp
  | Path_simplex
  | Path_pdhg
  | Path_pdhg_retry
  | Path_simplex_fallback
  | Path_infeasible

let all_paths =
  [
    Path_presolve;
    Path_tree_dp;
    Path_simplex;
    Path_pdhg;
    Path_pdhg_retry;
    Path_simplex_fallback;
    Path_infeasible;
  ]

let path_label = function
  | Path_presolve -> "presolve"
  | Path_tree_dp -> "tree-dp"
  | Path_simplex -> "simplex"
  | Path_pdhg -> "pdhg"
  | Path_pdhg_retry -> "pdhg-retry"
  | Path_simplex_fallback -> "simplex-fallback"
  | Path_infeasible -> "infeasible"

type quality = Exact | Converged | Iter_budget | Time_budget

let all_qualities = [ Exact; Converged; Iter_budget; Time_budget ]

let quality_label = function
  | Exact -> "exact"
  | Converged -> "converged"
  | Iter_budget -> "iter-budget"
  | Time_budget -> "time-budget"

type certificate =
  | Dual of float array
  | Farkas of float array

type t = {
  class_name : string;
  feasible : bool;
  lower_bound : float;
  rounded : Rounding.Round.result option;
  gap : float option;
  exact : bool;
  lp_iterations : int;
  vars : int;
  rows : int;
  max_feasible_qos : float;
  solve_path : solve_path;
  quality : quality;
  rel_gap : float;
  certificate : certificate option;
}

let src = Logs.Src.create "bounds" ~doc:"lower-bound pipeline"

module Log = (val Logs.src_log src : Logs.LOG)

(* Observability instruments: one counter per fallback-chain leg, so the
   metrics snapshot shows at a glance how cells were obtained. *)
let m_paths =
  lazy
    (List.map
       (fun p -> (p, Obs.Metrics.counter ("pipeline.path." ^ path_label p)))
       all_paths)

let count_path p = Obs.Metrics.incr (List.assoc p (Lazy.force m_paths))
let m_cells = lazy (Obs.Metrics.counter "pipeline.cells")
let m_fallbacks = lazy (Obs.Metrics.counter "pipeline.fallback_hops")

let default_pdhg_options =
  { Lp.Pdhg.default_options with max_iters = 40_000; rel_tol = 1e-4 }

let simplex_size_limit = 260

let infeasible_result ?ray cls worst_qos =
  {
    class_name = cls.Mcperf.Classes.name;
    feasible = false;
    lower_bound = infinity;
    rounded = None;
    gap = None;
    exact = true;
    lp_iterations = 0;
    vars = 0;
    rows = 0;
    max_feasible_qos = worst_qos;
    solve_path = Path_infeasible;
    quality = Exact;
    rel_gap = 0.;
    certificate = Option.map (fun r -> Farkas r) ray;
  }

(* A verified Farkas ray for an infeasible model, expressed on the
   Ge-normalized *full* model problem (so verification needs no presolve
   replay). The single-row scan covers the MC-PERF pattern — a QoS row
   demanding more coverage than its variables' box allows — without
   running a solver; the phase-1 simplex ray is the completeness fallback
   at exact-solver scale. Only rays accepted by [check_farkas] are
   attached. *)
let farkas_of problem =
  let norm = Lp.Problem.normalize_ge problem in
  let verified ray =
    if Lp.Certificate.check_farkas norm ~ray then Some ray else None
  in
  match Lp.Certificate.row_farkas norm with
  | Some ray -> verified ray
  | None ->
    if
      Lp.Problem.nvars norm <= simplex_size_limit
      && Lp.Problem.nrows norm <= simplex_size_limit
    then
      match Lp.Simplex.solve_certified norm with
      | Lp.Simplex.Cert_infeasible { ray } -> verified ray
      | Lp.Simplex.Cert_optimal _ | Lp.Simplex.Cert_unbounded -> None
    else None

(* --- shared LP-relaxation solve ----------------------------------------- *)

(* One solve of a model's LP relaxation, used by [compute] and both sweep
   drivers: presolve, pick the solver on the *original* dimensions (so the
   choice is stable across reductions), solve the reduced problem, and map
   the point and the certified bound back through [restore]/[offset].
   [reuse] threads a prepared PDHG image across structurally identical
   sweep models.

   The PDHG leg is a supervised fallback chain. A solve is *healthy* when
   every reported quantity is finite and an independent re-evaluation of
   [Certificate.dual_bound] at the best dual iterate reproduces the bound
   the solver claims — anything else (NaN-poisoned inputs, a diverged
   iterate, a cap-hit that produced no usable certificate) triggers a
   clean cold re-solve of the unpoisoned problem, and if that is unhealthy
   too, an exact simplex rescue. The first attempt and the clean retry run
   from the same prepared structure and the same cold start, so whenever
   the input itself was sound the retry reproduces the primary attempt's
   iterates exactly and recovery is invisible in the results. *)
(* A feasible solve's payload: the original-space point, the certified
   bound (presolve offset folded in), how it was obtained and its
   witness. [dual] is the certificate on the Ge-normalized presolve-
   reduced problem — the space the bound was computed in; [certify]
   replays the deterministic presolve to verify it. *)
type solution = {
  point : float array;
  bound : float;
  exact_sol : bool;
  iterations : int;
  sol_quality : quality;
  sol_rel_gap : float;
  dual : float array option;
}

type relaxation = {
  outcome : solution option;  (* [None] when the LP is infeasible *)
  prep : Lp.Pdhg.prepared option;  (* for the next cell's [reuse] *)
  path : solve_path;
  infeasible_ray : float array option;
      (* verified Farkas ray on the normalized full problem when the LP
         (as opposed to the oracle) declared the cell infeasible *)
}

let no_solution ?ray () =
  {
    outcome = None;
    prep = None;
    path = Path_infeasible;
    infeasible_ray = ray;
  }

(* Independent health check of a PDHG outcome: all reported scalars and
   the primal point finite, and the certified bound reproducible from the
   dual iterate alone. [Certificate.dual_bound] is valid for *any* y, so
   a finite, matching re-evaluation means the bound stands regardless of
   what happened to the iterates. *)
let pdhg_healthy prep (out : Lp.Pdhg.outcome) =
  Float.is_finite out.Lp.Pdhg.best_bound
  && Float.is_finite out.Lp.Pdhg.primal_objective
  && Float.is_finite out.Lp.Pdhg.primal_infeasibility
  && Array.for_all Float.is_finite out.Lp.Pdhg.x
  &&
  let recheck =
    Lp.Certificate.dual_bound
      (Lp.Pdhg.prepared_problem prep)
      ~y:out.Lp.Pdhg.best_y
  in
  Float.is_finite recheck
  && Float.abs (recheck -. out.Lp.Pdhg.best_bound)
     <= 1e-9 *. (1. +. Float.abs out.Lp.Pdhg.best_bound)

let solve_relaxation_raw ?(solver = Auto) ?reuse ?(inject_nan = false)
    ?deadline_s problem =
  let vars = Lp.Problem.nvars problem and rows = Lp.Problem.nrows problem in
  let pre = Lp.Presolve.run problem in
  match pre.Lp.Presolve.status with
  | `Infeasible -> no_solution ?ray:(farkas_of problem) ()
  | `Unchanged | `Reduced ->
    let red = pre.Lp.Presolve.reduced in
    if Lp.Problem.nvars red = 0 then
      (* Presolve solved the whole LP: the fixed assignment is the unique
         feasible point, hence optimal. The all-zero dual vector is its
         certificate — the reduced problem has no variables left, so the
         dual bound is 0 and the recorded bound is pure offset. *)
      {
        outcome =
          Some
            {
              point = pre.Lp.Presolve.restore [||];
              bound = pre.Lp.Presolve.offset;
              exact_sol = true;
              iterations = 0;
              sol_quality = Exact;
              sol_rel_gap = 0.;
              dual = Some (Array.make (Lp.Problem.nrows red) 0.);
            };
        prep = None;
        path = Path_presolve;
        infeasible_ray = None;
      }
    else begin
      let use_simplex =
        match solver with
        | Exact_simplex -> true
        | First_order _ -> false
        | Auto -> vars <= simplex_size_limit && rows <= simplex_size_limit
      in
      let simplex_solution x objective dual =
        {
          point = pre.Lp.Presolve.restore x;
          bound = objective +. pre.Lp.Presolve.offset;
          exact_sol = true;
          iterations = 0;
          sol_quality = Exact;
          sol_rel_gap = 0.;
          dual = Some dual;
        }
      in
      if use_simplex then
        match Lp.Simplex.solve_certified red with
        | Lp.Simplex.Cert_optimal { x; objective; dual } ->
          {
            outcome = Some (simplex_solution x objective dual);
            prep = None;
            path = Path_simplex;
            infeasible_ray = None;
          }
        | Lp.Simplex.Cert_infeasible _ ->
          (* The simplex ray lives in reduced-row space; re-derive one on
             the full problem so the certificate verifies without a
             presolve replay. *)
          no_solution ?ray:(farkas_of problem) ()
        | Lp.Simplex.Cert_unbounded ->
          invalid_arg "Bounds.Pipeline: unbounded MC-PERF relaxation"
      else begin
        let options =
          match solver with
          | First_order o -> o
          | Auto | Exact_simplex -> default_pdhg_options
        in
        (* The sweep governor's per-cell budget caps the solver deadline;
           an already-exhausted budget still runs the checkpointed first
           block, so every cell returns some valid bound. *)
        let options =
          match deadline_s with
          | Some d when Float.is_finite d ->
            {
              options with
              Lp.Pdhg.deadline_s =
                Float.min options.Lp.Pdhg.deadline_s (Float.max 0. d);
            }
          | Some _ | None -> options
        in
        let attempt ~poisoned =
          let target =
            if poisoned && Lp.Problem.nrows red > 0 then
              Lp.Problem.with_rhs red [ (0, Float.nan) ]
            else red
          in
          let prep = Lp.Pdhg.prepare ?reuse target in
          (prep, Lp.Pdhg.solve_prepared ~options prep)
        in
        let accept path prep (out : Lp.Pdhg.outcome) =
          {
            outcome =
              Some
                {
                  point = pre.Lp.Presolve.restore out.Lp.Pdhg.x;
                  bound = out.Lp.Pdhg.best_bound +. pre.Lp.Presolve.offset;
                  exact_sol = false;
                  iterations = out.Lp.Pdhg.iterations;
                  sol_quality =
                    (match out.Lp.Pdhg.stop with
                    | Lp.Pdhg.Converged -> Converged
                    | Lp.Pdhg.Deadline -> Time_budget
                    | Lp.Pdhg.Budget -> Iter_budget);
                  sol_rel_gap = out.Lp.Pdhg.rel_gap;
                  dual = Some out.Lp.Pdhg.best_y;
                };
            prep = Some prep;
            path;
            infeasible_ray = None;
          }
        in
        let prep1, out1 = attempt ~poisoned:inject_nan in
        if pdhg_healthy prep1 out1 then accept Path_pdhg prep1 out1
        else begin
          Log.warn (fun f ->
              f
                "pdhg solve unhealthy (bound %g, infeas %g, %d iters): \
                 retrying cold on a clean rebuild"
                out1.Lp.Pdhg.best_bound out1.Lp.Pdhg.primal_infeasibility
                out1.Lp.Pdhg.iterations);
          Obs.Metrics.incr (Lazy.force m_fallbacks);
          if Obs.Config.tracing () then
            Obs.Trace.event "pipeline.pdhg_unhealthy"
              ~attrs:
                [
                  ("cause", Obs.Trace.Str "primary");
                  ("bound", Obs.Trace.Float out1.Lp.Pdhg.best_bound);
                  ("pinf", Obs.Trace.Float out1.Lp.Pdhg.primal_infeasibility);
                  ("iters", Obs.Trace.Int out1.Lp.Pdhg.iterations);
                ];
          let prep2, out2 = attempt ~poisoned:false in
          if pdhg_healthy prep2 out2 then accept Path_pdhg_retry prep2 out2
          else begin
            Log.warn (fun f ->
                f "pdhg retry unhealthy: rescuing with exact simplex");
            Obs.Metrics.incr (Lazy.force m_fallbacks);
            if Obs.Config.tracing () then
              Obs.Trace.event "pipeline.pdhg_unhealthy"
                ~attrs:
                  [
                    ("cause", Obs.Trace.Str "retry");
                    ("bound", Obs.Trace.Float out2.Lp.Pdhg.best_bound);
                    ("pinf", Obs.Trace.Float out2.Lp.Pdhg.primal_infeasibility);
                    ("iters", Obs.Trace.Int out2.Lp.Pdhg.iterations);
                  ];
            match Lp.Simplex.solve_certified red with
            | Lp.Simplex.Cert_optimal { x; objective; dual } ->
              {
                outcome = Some (simplex_solution x objective dual);
                prep = Some prep2;
                path = Path_simplex_fallback;
                infeasible_ray = None;
              }
            | Lp.Simplex.Cert_infeasible _ ->
              no_solution ?ray:(farkas_of problem) ()
            | Lp.Simplex.Cert_unbounded ->
              invalid_arg "Bounds.Pipeline: unbounded MC-PERF relaxation"
          end
        end
      end
    end

(* Instrumented entry point: a span around the whole fallback chain,
   tagged with the leg that finally produced the bound. The span and
   path counters never touch the numbers — the raw chain above is the
   entire computation. *)
let solve_relaxation ?solver ?reuse ?inject_nan ?deadline_s problem =
  let sp =
    Obs.Trace.span_begin "pipeline.solve_relaxation"
      ~attrs:
        [
          ("vars", Obs.Trace.Int (Lp.Problem.nvars problem));
          ("rows", Obs.Trace.Int (Lp.Problem.nrows problem));
        ]
  in
  match
    solve_relaxation_raw ?solver ?reuse ?inject_nan ?deadline_s problem
  with
  | r ->
    count_path r.path;
    Obs.Trace.span_end sp
      ~attrs:[ ("path", Obs.Trace.Str (path_label r.path)) ];
    r
  | exception e ->
    Obs.Trace.span_end sp ~attrs:[ ("path", Obs.Trace.Str "exception") ];
    raise e

(* Turn a feasible relaxation outcome into a pipeline result: round the
   fractional point, evaluate the integral placement, report the gap. *)
let finish ~round ~path model cls worst_qos sol =
  let problem = model.Mcperf.Model.problem in
  let lower_bound = sol.bound +. model.Mcperf.Model.objective_offset in
  let rounded =
    (* Rounding a heavily truncated fractional point is the slowest stage
       of a degraded cell (the greedy repair has far more violations to
       fix), and unlike the solver it has no checkpoints. When the cell's
       budget is already spent, skip it: the certified bound is this
       cell's deliverable; the rounded column degrades to "-".
       [task_expired] never reads the clock on unbudgeted runs. *)
    if Util.Parallel.task_expired () then begin
      Log.info (fun f ->
          f "budget spent for class %s: skipping rounding"
            cls.Mcperf.Classes.name);
      None
    end
    else
      match round model ~x:sol.point with
      | Ok r -> Some r
      | Error msg ->
        Log.warn (fun f ->
            f "rounding failed for class %s: %s" cls.Mcperf.Classes.name msg);
        None
  in
  let gap =
    match rounded with
    | Some r when r.Rounding.Round.evaluation.Mcperf.Costing.total > 0. ->
      Some
        ((r.Rounding.Round.evaluation.Mcperf.Costing.total -. lower_bound)
        /. r.Rounding.Round.evaluation.Mcperf.Costing.total)
    | Some _ | None -> None
  in
  {
    class_name = cls.Mcperf.Classes.name;
    feasible = true;
    lower_bound;
    rounded;
    gap;
    exact = sol.exact_sol;
    lp_iterations = sol.iterations;
    vars = Lp.Problem.nvars problem;
    rows = Lp.Problem.nrows problem;
    max_feasible_qos = worst_qos;
    solve_path = path;
    quality = sol.sol_quality;
    rel_gap = sol.sol_rel_gap;
    certificate = Option.map (fun d -> Dual d) sol.dual;
  }

(* --- exact tree producer ------------------------------------------------- *)

(* Third bound producer: on tree instances where {!Tree_dp.of_spec}
   proves the closest-allocation DP exact, the cell's lower bound and its
   rounded solution are the same integer optimum and the gap is zero by
   construction — no LP is built at all. Belt and braces before claiming
   exactness: the DP placement is re-evaluated through [Costing] (the
   same arithmetic that judges heuristics and rounded LP points) and must
   meet the goal, respect permissions, and reproduce the DP's own cost;
   any disagreement — e.g. a demand sitting exactly on the QoS threshold
   where accumulated path sums and the Dijkstra latency matrix could
   round differently — silently falls back to the LP chain. Eligibility
   is a pure function of (spec, class, fraction, placeable), so sweeps
   stay byte-identical at every [--jobs]. *)
let tree_cell ?placeable spec cls perm worst_qos =
  match Tree_dp.of_spec ?placeable spec cls with
  | Error reason ->
    Log.debug (fun f ->
        f "class %s: tree-dp ineligible (%s)" cls.Mcperf.Classes.name reason);
    None
  | Ok inst -> (
    match Tree_dp.solve inst with
    | Tree_dp.Unsatisfiable _ ->
      (* Let the LP chain certify infeasibility with a Farkas ray. *)
      None
    | Tree_dp.Optimal { cost; placement } ->
      let pl = Tree_dp.placement_of inst placement in
      let ev = Mcperf.Costing.evaluate perm pl in
      if
        ev.Mcperf.Costing.meets_goal
        && Mcperf.Costing.respects_permissions perm pl
        && Float.abs (ev.Mcperf.Costing.total -. cost)
           <= 1e-6 *. (1. +. Float.abs cost)
      then begin
        count_path Path_tree_dp;
        let lower_bound = ev.Mcperf.Costing.total in
        Some
          {
            class_name = cls.Mcperf.Classes.name;
            feasible = true;
            lower_bound;
            rounded =
              Some
                {
                  Rounding.Round.placement = pl;
                  evaluation = ev;
                  rounded_up = 0;
                  rounded_down = 0;
                  repaired = 0;
                };
            gap = (if lower_bound > 0. then Some 0. else None);
            exact = true;
            lp_iterations = 0;
            vars = 0;
            rows = 0;
            max_feasible_qos = worst_qos;
            solve_path = Path_tree_dp;
            quality = Exact;
            rel_gap = 0.;
            certificate = None;
          }
      end
      else begin
        Log.warn (fun f ->
            f
              "class %s: tree-dp solution failed Costing verification \
               (dp %g, evaluated %g, meets_goal %b): falling back to LP"
              cls.Mcperf.Classes.name cost ev.Mcperf.Costing.total
              ev.Mcperf.Costing.meets_goal);
        None
      end)

let compute ?(solver = Auto) ?placeable spec cls =
  let perm = Mcperf.Permission.compute ?placeable spec cls in
  let worst_qos =
    match spec.Mcperf.Spec.goal with
    | Mcperf.Spec.Qos _ ->
      Array.fold_left Float.min 1. (Mcperf.Permission.max_feasible_qos perm)
    | Mcperf.Spec.Avg_latency _ -> 1.
  in
  if not (Mcperf.Permission.feasible perm) then begin
    (* Even oracle-detected infeasibility gets a checkable witness: the
       model builder emits the unsatisfiable QoS rows verbatim, so a
       single-row Farkas scan certifies the ceiling independently. *)
    let model = Mcperf.Model.build perm in
    infeasible_result ?ray:(farkas_of model.Mcperf.Model.problem) cls worst_qos
  end
  else begin
    let dp =
      match solver with
      | Auto -> tree_cell ?placeable spec cls perm worst_qos
      | Exact_simplex | First_order _ -> None
    in
    match dp with
    | Some cell -> cell
    | None -> (
      let model = Mcperf.Model.build perm in
      Log.info (fun f ->
          f "class %s: %a" cls.Mcperf.Classes.name Mcperf.Model.pp_stats model);
      let round =
        match spec.Mcperf.Spec.goal with
        | Mcperf.Spec.Qos _ -> Rounding.Round.round
        | Mcperf.Spec.Avg_latency _ -> Rounding.Round_avg.round
      in
      let r = solve_relaxation ~solver model.Mcperf.Model.problem in
      match r.outcome with
      | None ->
        (* The LP disagreed with the coverage oracle: conservative report. *)
        infeasible_result ?ray:r.infeasible_ray cls worst_qos
      | Some sol -> finish ~round ~path:r.path model cls worst_qos sol)
  end

let compare_classes ?solver ?placeable spec classes =
  List.map (fun cls -> compute ?solver ?placeable spec cls) classes

let best_class results =
  List.fold_left
    (fun acc r ->
      if not r.feasible then acc
      else
        match acc with
        | Some best when best.lower_bound <= r.lower_bound -> acc
        | Some _ | None -> Some r)
    None results

let pp ppf t =
  if not t.feasible then
    Format.fprintf ppf "%-32s infeasible (max QoS %.5f)" t.class_name
      t.max_feasible_qos
  else
    Format.fprintf ppf "%-32s bound %10.1f%s%s" t.class_name t.lower_bound
      (match t.rounded with
      | Some r ->
        Printf.sprintf "  rounded %10.1f"
          r.Rounding.Round.evaluation.Mcperf.Costing.total
      | None -> "")
      (match t.gap with
      | Some g -> Printf.sprintf "  gap %5.1f%%" (100. *. g)
      | None -> "")

(* --- certificate recheck ------------------------------------------------- *)

(* Independent verification of a cell's certificate from nothing but the
   spec and the recorded result: rebuild the model the cell was solved
   from, replay the (deterministic) presolve, and re-evaluate the
   certificate arithmetic. A [Dual] witness must reproduce the recorded
   lower bound; a [Farkas] witness must pass [check_farkas] on the
   Ge-normalized full model problem. No solver runs — only the linear
   algebra of the certificate itself. *)
let certify ?placeable spec cls cell =
  let fail fmt = Printf.ksprintf (fun m -> Error m) fmt in
  match cell.certificate with
  | None when cell.solve_path = Path_tree_dp ->
    (* Tree-DP cells carry no LP certificate; their witness is the DP
       itself. Replay it from scratch — eligibility, solve, and the
       Costing evaluation of the optimal placement must all reproduce the
       recorded bound. The DP is deterministic, so this is as strong as
       re-running the cell. *)
    if not cell.feasible then
      fail "%s: tree-dp path on an infeasible cell" cell.class_name
    else (
      match Tree_dp.of_spec ?placeable spec cls with
      | Error reason ->
        fail "%s: tree-dp replay ineligible: %s" cell.class_name reason
      | Ok inst -> (
        match Tree_dp.solve inst with
        | Tree_dp.Unsatisfiable { object_id } ->
          fail "%s: tree-dp replay unsatisfiable for object %d"
            cell.class_name object_id
        | Tree_dp.Optimal { cost = _; placement } ->
          let perm = Mcperf.Permission.compute ?placeable spec cls in
          let ev =
            Mcperf.Costing.evaluate perm (Tree_dp.placement_of inst placement)
          in
          if not ev.Mcperf.Costing.meets_goal then
            fail "%s: replayed tree-dp placement misses the goal"
              cell.class_name
          else if
            Float.abs (ev.Mcperf.Costing.total -. cell.lower_bound)
            <= 1e-6 *. (1. +. Float.abs cell.lower_bound)
          then Ok ()
          else
            fail
              "%s: replayed tree-dp optimum %.12g does not match recorded \
               %.12g"
              cell.class_name ev.Mcperf.Costing.total cell.lower_bound))
  | None -> fail "%s: no certificate attached" cell.class_name
  | Some (Farkas ray) ->
    if cell.feasible then
      fail "%s: Farkas certificate on a feasible cell" cell.class_name
    else begin
      let perm = Mcperf.Permission.compute ?placeable spec cls in
      let model = Mcperf.Model.build perm in
      let norm = Lp.Problem.normalize_ge model.Mcperf.Model.problem in
      if Array.length ray <> Lp.Problem.nrows norm then
        fail "%s: Farkas ray has %d entries, model has %d rows"
          cell.class_name (Array.length ray) (Lp.Problem.nrows norm)
      else if Lp.Certificate.check_farkas norm ~ray then Ok ()
      else fail "%s: Farkas ray rejected by check_farkas" cell.class_name
    end
  | Some (Dual y) ->
    if not cell.feasible then
      fail "%s: dual certificate on an infeasible cell" cell.class_name
    else begin
      let perm = Mcperf.Permission.compute ?placeable spec cls in
      if not (Mcperf.Permission.feasible perm) then
        fail "%s: rebuilt model is infeasible" cell.class_name
      else begin
        let model = Mcperf.Model.build perm in
        let pre = Lp.Presolve.run model.Mcperf.Model.problem in
        match pre.Lp.Presolve.status with
        | `Infeasible ->
          fail "%s: presolve replay reports infeasible" cell.class_name
        | `Unchanged | `Reduced ->
          let red = pre.Lp.Presolve.reduced in
          if Array.length y <> Lp.Problem.nrows red then
            fail "%s: dual has %d entries, reduced problem has %d rows"
              cell.class_name (Array.length y) (Lp.Problem.nrows red)
          else begin
            let bound =
              Lp.Certificate.dual_bound (Lp.Problem.normalize_ge red) ~y
              +. pre.Lp.Presolve.offset
              +. model.Mcperf.Model.objective_offset
            in
            if not (Float.is_finite bound) then
              fail "%s: replayed dual bound is not finite" cell.class_name
            else if
              Float.abs (bound -. cell.lower_bound)
              <= 1e-6 *. (1. +. Float.abs cell.lower_bound)
            then Ok ()
            else
              fail "%s: replayed dual bound %.12g does not match recorded \
                    %.12g"
                cell.class_name bound cell.lower_bound
          end
      end
    end

type task_stat = {
  label : string;
  x : float;
  wall_s : float;
  iterations : int;
  solved_exactly : bool;
  cell_path : solve_path;
  cell_quality : quality;
  cell_rel_gap : float;
}

type sweep = {
  per_class : (string * (float * t) list) list;
  stats : task_stat list;
  jobs : int;
  elapsed_s : float;
  pool : Util.Parallel.pool_stats;
  resumed : int;
}

let path_counts sweep =
  List.map
    (fun path ->
      let n =
        List.fold_left
          (fun acc (_, series) ->
            List.fold_left
              (fun acc (_, r) -> if r.solve_path = path then acc + 1 else acc)
              acc series)
          0 sweep.per_class
      in
      (path, n))
    all_paths

let quality_counts sweep =
  List.map
    (fun q ->
      let n =
        List.fold_left
          (fun acc (_, series) ->
            List.fold_left
              (fun acc (_, r) -> if r.quality = q then acc + 1 else acc)
              acc series)
          0 sweep.per_class
      in
      (q, n))
    all_qualities

(* --- checkpoint journal -------------------------------------------------- *)

(* A sweep journal is a plain text file: a header line carrying a
   fingerprint of the sweep's identity (labels, class names, fractions,
   latency threshold), then one line per completed cell. Each record is
   the MD5 digest of its payload followed by the hex-encoded marshaled
   [(key, (result, wall_s))] triple, so a torn tail from a crash is
   detected and dropped rather than crashing the loader. The whole file
   is rewritten to a temp path and [rename]d on every completion — the
   journal on disk is always a complete, self-consistent prefix of the
   sweep. It is deleted when the sweep finishes. *)

let cell_key label fraction = Printf.sprintf "%s|%.17g" label fraction

(* v2: cell payloads gained quality/certificate fields and the
   fingerprint covers the time-budget configuration, so a journal written
   under one budget is never replayed into a sweep running under another
   (degraded bounds must not masquerade as unconstrained ones).
   v3: [solve_path] gained the [Path_tree_dp] constructor, which shifts
   the Marshal tags of every later constructor — a v2 payload would
   deserialize into the wrong path, so v2 journals are discarded. *)
let journal_magic = "# replica-select sweep journal v3"

let sweep_fingerprint ?(deadline_s = infinity) ?(cell_budget_s = infinity)
    ~tlat_ms ~fractions classes =
  let b = Buffer.create 256 in
  Buffer.add_string b (Printf.sprintf "tlat=%.17g" tlat_ms);
  Buffer.add_string b
    (Printf.sprintf ";deadline=%.17g;cell-budget=%.17g" deadline_s
       cell_budget_s);
  List.iter (fun x -> Buffer.add_string b (Printf.sprintf ";%.17g" x)) fractions;
  List.iter
    (fun (label, cls) ->
      Buffer.add_string b
        (Printf.sprintf ";%s=%s" label cls.Mcperf.Classes.name))
    classes;
  Digest.to_hex (Digest.string (Buffer.contents b))

let hex_of_string s =
  let b = Buffer.create (2 * String.length s) in
  String.iter (fun c -> Buffer.add_string b (Printf.sprintf "%02x" (Char.code c))) s;
  Buffer.contents b

let string_of_hex h =
  let n = String.length h in
  if n mod 2 <> 0 then None
  else
    try
      Some
        (String.init (n / 2) (fun i ->
             Char.chr (int_of_string ("0x" ^ String.sub h (2 * i) 2))))
    with Failure _ | Invalid_argument _ -> None

let journal_header fingerprint =
  Printf.sprintf "%s fingerprint=%s" journal_magic fingerprint

(* Why a journal scan stopped. One scanner backs both loader APIs: the
   strict result-first [load_journal_result] maps every non-complete
   stop onto a structured [Util.Parse_error.t], while the tolerant
   [load_journal] keeps the historical never-fails contract (fewer
   cached cells, a warning, never an error). *)
type journal_scan_stop =
  | Scan_complete
  | Scan_missing  (** no file at the path *)
  | Scan_no_header  (** empty file: not even a header line *)
  | Scan_header_mismatch  (** wrong magic or fingerprint on line 1 *)
  | Scan_bad_record of int * string  (** 1-based line number, defect *)

let scan_journal ~fingerprint path =
  if not (Sys.file_exists path) then ([], Scan_missing)
  else begin
    let ic = open_in_bin path in
    let lines = ref [] in
    (try
       while true do
         lines := input_line ic :: !lines
       done
     with End_of_file -> ());
    close_in ic;
    match List.rev !lines with
    | [] -> ([], Scan_no_header)
    | header :: records ->
      if not (String.equal header (journal_header fingerprint)) then
        ([], Scan_header_mismatch)
      else begin
        let entries = ref [] in
        let stop = ref Scan_complete in
        (try
           List.iteri
             (fun i line ->
               let bad msg =
                 stop := Scan_bad_record (i + 2, msg);
                 raise Exit
               in
               if String.trim line = "" then bad "empty record line";
               match String.index_opt line ' ' with
               | None -> bad "missing digest separator"
               | Some j -> (
                 let digest = String.sub line 0 j in
                 let payload_hex =
                   String.sub line (j + 1) (String.length line - j - 1)
                 in
                 match string_of_hex payload_hex with
                 | None -> bad "payload is not hex"
                 | Some payload ->
                   if
                     not
                       (String.equal
                          (Digest.to_hex (Digest.string payload))
                          digest)
                   then bad "record digest mismatch"
                   else
                     let key, (cell, wall_s) =
                       (Marshal.from_string payload 0
                         : string * (t * float))
                     in
                     entries := (key, (cell, wall_s)) :: !entries))
             records
         with Exit -> ());
        (List.rev !entries, !stop)
      end
  end

(* Strict loader: every way the journal can be unusable is a structured
   error ([line] pins the first bad line; 0 means the whole file). A
   bad-record error still names the defect, but returns no prefix —
   callers that want salvage semantics use [load_journal]. *)
let load_journal_result ~fingerprint path :
    ((string * (t * float)) list, Util.Parse_error.t) result =
  let entries, stop = scan_journal ~fingerprint path in
  match stop with
  | Scan_complete -> Ok entries
  | Scan_missing ->
    Error { Util.Parse_error.file = path; line = 0; msg = "no such journal" }
  | Scan_no_header ->
    Error
      { Util.Parse_error.file = path; line = 1; msg = "missing journal header" }
  | Scan_header_mismatch ->
    Error
      {
        Util.Parse_error.file = path;
        line = 1;
        msg =
          "journal header does not match this sweep's fingerprint \
           (different classes, fractions, threshold or journal version)";
      }
  | Scan_bad_record (line, msg) ->
    Error
      {
        Util.Parse_error.file = path;
        line;
        msg = Printf.sprintf "corrupt journal record: %s" msg;
      }

(* Load the completed-cell table from a journal. Tolerant by design: a
   missing file, a stale fingerprint, or a corrupt/truncated tail just
   mean fewer cached cells — the sweep recomputes whatever is absent. *)
let load_journal ~fingerprint path : (string, t * float) Hashtbl.t =
  let tbl = Hashtbl.create 32 in
  let entries, stop = scan_journal ~fingerprint path in
  (match stop with
  | Scan_complete | Scan_missing | Scan_no_header -> ()
  | Scan_header_mismatch ->
    Log.warn (fun f ->
        f
          "journal %s does not match this sweep (different classes, \
           fractions or threshold): ignoring it"
          path)
  | Scan_bad_record _ ->
    Log.warn (fun f ->
        f "journal %s has a corrupt tail: dropping it (%d cells kept)" path
          (List.length entries)));
  (match stop with
  | Scan_header_mismatch -> ()
  | _ -> List.iter (fun (k, v) -> Hashtbl.replace tbl k v) entries);
  tbl

let write_journal ~fingerprint path entries =
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  output_string oc (journal_header fingerprint);
  output_char oc '\n';
  List.iter
    (fun (key, cell, wall_s) ->
      let payload = Marshal.to_string ((key, (cell, wall_s)) : string * (t * float)) [] in
      output_string oc (Digest.to_hex (Digest.string payload));
      output_char oc ' ';
      output_string oc (hex_of_string payload);
      output_char oc '\n')
    entries;
  flush oc;
  (try Unix.fsync (Unix.descr_of_out_channel oc) with Unix.Unix_error _ -> ());
  close_out oc;
  Sys.rename tmp path

(* --- cell solver ---------------------------------------------------------- *)

(* The per-cell solve of [sweep_classes], factored to toplevel so the
   same code runs behind every transport: the sequential path, local
   fork workers, and remote TCP worker sessions (the [Dist.Registry]
   entry below). Each call builds fresh per-process incremental state:
   the first cell of a class builds the model; subsequent cells of the
   same class (in the same process) patch only the QoS rhs and reuse the
   prepared constraint matrix. Because a patched model is
   value-identical to a fresh build at its fraction, and every cell
   starts the solver cold, the results do not depend on which cell
   seeded which cache — the sweep stays byte-identical however the
   cells are distributed. *)
let make_cell_solver ~solver ?placeable ~tlat_ms spec =
  let model_cache : (string, Mcperf.Model.t * float) Hashtbl.t =
    Hashtbl.create 8
  in
  let prep_cache : (string, Lp.Pdhg.prepared) Hashtbl.t = Hashtbl.create 8 in
  let solve_cell (key, label, cls, fraction) =
    (* Deterministic fault-injection points: both fire only inside a pool
       worker on a task's first attempt, so the supervisor's retry always
       completes the cell. *)
    Util.Faults.crash_point ~key;
    Util.Faults.stall_point ~key;
    let spec =
      { spec with Mcperf.Spec.goal = Mcperf.Spec.Qos { tlat_ms; fraction } }
    in
    let cached = Hashtbl.find_opt model_cache label in
    let perm, worst_qos =
      match cached with
      | Some (base, worst_qos) ->
        ( Mcperf.Permission.with_fraction base.Mcperf.Model.permission
            fraction,
          worst_qos )
      | None ->
        let perm = Mcperf.Permission.compute ?placeable spec cls in
        let worst_qos =
          Array.fold_left Float.min 1.
            (Mcperf.Permission.max_feasible_qos perm)
        in
        (perm, worst_qos)
    in
    if not (Mcperf.Permission.feasible perm) then begin
      (* Attach a verified Farkas ray so the feasibility ceiling is
         certified, not just asserted. [with_fraction] is value-identical
         to a fresh build, so the witness is cache-independent. *)
      let model =
        match cached with
        | Some (base, _) -> Mcperf.Model.with_fraction base fraction
        | None -> Mcperf.Model.build perm
      in
      infeasible_result
        ?ray:(farkas_of model.Mcperf.Model.problem)
        cls worst_qos
    end
    else begin
      (* Exact tree cells bypass the model/prep caches entirely; LP cells
         behave exactly as before, so mixed tree/LP series (atomicity can
         hold at one fraction and fail at another) stay deterministic. *)
      let dp =
        match solver with
        | Auto -> tree_cell ?placeable spec cls perm worst_qos
        | Exact_simplex | First_order _ -> None
      in
      match dp with
      | Some cell -> cell
      | None ->
      let model =
        match cached with
        | Some (base, _) -> Mcperf.Model.with_fraction base fraction
        | None ->
          let m = Mcperf.Model.build perm in
          Hashtbl.replace model_cache label (m, worst_qos);
          m
      in
      let reuse = Hashtbl.find_opt prep_cache label in
      let inject_nan = Util.Faults.diverge_requested ~key in
      (* Remaining share of the cell's budget, installed by the pool from
         [budget_of] at dispatch. Unbudgeted sweeps never read the clock
         here, preserving byte-identical output at every [--jobs]. *)
      let deadline_s =
        let d = Util.Parallel.task_deadline () in
        if Float.is_finite d then Some (d -. Unix.gettimeofday ()) else None
      in
      let r =
        solve_relaxation ~solver ?reuse ~inject_nan ?deadline_s
          model.Mcperf.Model.problem
      in
      (match r.prep with
      | Some p -> Hashtbl.replace prep_cache label p
      | None -> ());
      match r.outcome with
      | None -> infeasible_result ?ray:r.infeasible_ray cls worst_qos
      | Some sol ->
        finish ~round:Rounding.Round.round ~path:r.path model cls worst_qos sol
    end
  in
  (* Each cell gets a span in its task scope, tagged with the class and
     fraction it computed and how the solve went. *)
  fun ((_, label, _, fraction) as cell) ->
    Obs.Metrics.incr (Lazy.force m_cells);
    let sp =
      Obs.Trace.span_begin "pipeline.cell"
        ~attrs:
          [
            ("class", Obs.Trace.Str label);
            ("fraction", Obs.Trace.Float fraction);
          ]
    in
    match solve_cell cell with
    | r ->
      Obs.Trace.span_end sp
        ~attrs:
          [
            ("path", Obs.Trace.Str (path_label r.solve_path));
            ("quality", Obs.Trace.Str (quality_label r.quality));
          ];
      r
    | exception e ->
      Obs.Trace.span_end sp;
      raise e

(* --- distributed dispatch ------------------------------------------------- *)

(* Everything a remote worker session needs to solve any pending cell of
   one sweep: plain data only (specs, class tables, the pending cell
   array), marshaled once into the session handshake. The task protocol
   then ships bare indices into [dc_cells]. *)
type dist_cell_ctx = {
  dc_spec : Mcperf.Spec.t;
  dc_tlat_ms : float;
  dc_placeable : bool array option;
  dc_solver : solver;
  dc_cells : (string * string * Mcperf.Classes.t * float) array;
}

let dist_fn = "pipeline.sweep-cell"

let () =
  Dist.Registry.register dist_fn (fun blob ->
      let ctx = (Marshal.from_string blob 0 : dist_cell_ctx) in
      let solve =
        make_cell_solver ~solver:ctx.dc_solver ?placeable:ctx.dc_placeable
          ~tlat_ms:ctx.dc_tlat_ms ctx.dc_spec
      in
      fun index -> Marshal.to_string (solve ctx.dc_cells.(index) : t) [])

(* Sweep knobs as one record with [with_*] builders: call sites stay
   readable and new knobs ride along without touching every caller. *)
module Sweep_config = struct
  type t = {
    jobs : int;
    solver : solver;
    placeable : bool array option;
    timeout_s : float option;
    deadline_s : float;
    cell_budget_s : float;
    journal : string option;
    progress : (completed:int -> total:int -> unit) option;
    obs : Obs.Config.t option;
    workers : (string * int) list;
        (* remote TCP workers ([host, port]); [] = local-only sweep *)
  }

  let default =
    {
      jobs = 1;
      solver = Auto;
      placeable = None;
      timeout_s = None;
      deadline_s = infinity;
      cell_budget_s = infinity;
      journal = None;
      progress = None;
      obs = None;
      workers = [];
    }

  let with_jobs jobs t = { t with jobs }
  let with_solver solver t = { t with solver }
  let with_placeable placeable t = { t with placeable = Some placeable }
  let with_timeout timeout_s t = { t with timeout_s = Some timeout_s }
  let with_deadline deadline_s t = { t with deadline_s }
  let with_cell_budget cell_budget_s t = { t with cell_budget_s }
  let with_journal journal t = { t with journal = Some journal }
  let with_progress progress t = { t with progress = Some progress }
  let with_obs obs t = { t with obs = Some obs }
  let with_workers workers t = { t with workers }
end

let sweep_classes (cfg : Sweep_config.t) spec ~fractions classes =
  let {
    Sweep_config.jobs;
    solver;
    placeable;
    timeout_s;
    deadline_s;
    cell_budget_s;
    journal;
    progress;
    obs;
    workers;
  } =
    cfg
  in
  (* Install the sweep's observability view before any instrumentation
     fires (and before workers fork, so they inherit it). [None] keeps
     whatever the caller installed ambiently. *)
  (match obs with Some o -> Obs.Config.install o | None -> ());
  let tlat_ms =
    match spec.Mcperf.Spec.goal with
    | Mcperf.Spec.Qos { tlat_ms; _ } -> tlat_ms
    | Mcperf.Spec.Avg_latency _ ->
      invalid_arg "Pipeline.sweep_classes: requires a QoS goal"
  in
  let deadline_s = if deadline_s > 0. then deadline_s else infinity in
  let cell_budget_s = if cell_budget_s > 0. then cell_budget_s else infinity in
  let budgeted =
    Float.is_finite deadline_s || Float.is_finite cell_budget_s
  in
  let keyed_cells =
    List.concat_map
      (fun (label, cls) ->
        List.map
          (fun fraction -> (cell_key label fraction, label, cls, fraction))
          fractions)
      classes
  in
  let fingerprint =
    sweep_fingerprint ~deadline_s ~cell_budget_s ~tlat_ms ~fractions classes
  in
  let done_tbl =
    match journal with
    | None -> Hashtbl.create 0
    | Some path -> load_journal ~fingerprint path
  in
  let pending =
    List.filter (fun (k, _, _, _) -> not (Hashtbl.mem done_tbl k)) keyed_cells
  in
  let resumed = List.length keyed_cells - List.length pending in
  if resumed > 0 then
    Log.info (fun f ->
        f "resuming sweep: %d/%d cells restored from journal" resumed
          (List.length keyed_cells));
  let solve = make_cell_solver ~solver ?placeable ~tlat_ms spec in
  let total = List.length keyed_cells in
  let completed_count = ref resumed in
  let journal_entries =
    ref (Hashtbl.fold (fun k (c, w) acc -> (k, c, w) :: acc) done_tbl [])
  in
  let pending_arr = Array.of_list pending in
  let on_result i (res : t Util.Parallel.result) =
    let k, _, _, _ = pending_arr.(i) in
    incr completed_count;
    (match journal with
    | Some path ->
      journal_entries :=
        (k, res.Util.Parallel.value, res.Util.Parallel.wall_s)
        :: !journal_entries;
      write_journal ~fingerprint path !journal_entries;
      (* Injected coordinator death, placed *after* the checkpoint hits
         disk: the journal is a complete prefix when we die, so a re-run
         resumes exactly the remaining cells. [nth] counts checkpoints
         written by this run (resumed cells never re-checkpoint). *)
      Util.Faults.coordinator_kill_point ~nth:(!completed_count - resumed)
    | None -> ());
    match progress with
    | Some f -> f ~completed:!completed_count ~total
    | None -> ()
  in
  (* Remote endpoint factories: each worker address becomes one pool
     slot feeding the same pending-cell array by index. The context blob
     is marshaled once per sweep and shipped in each session handshake;
     reconnect/backoff/blacklist policy lives in [Dist.Client]. *)
  let remote =
    match workers with
    | [] -> []
    | ws ->
      let ctx =
        Marshal.to_string
          {
            dc_spec = spec;
            dc_tlat_ms = tlat_ms;
            dc_placeable = placeable;
            dc_solver = solver;
            dc_cells = pending_arr;
          }
          []
      in
      List.map
        (fun (host, port) -> Dist.Client.factory ~host ~port ~fn:dist_fn ~ctx)
        ws
  in
  let sweep_sp =
    Obs.Trace.span_begin "pipeline.sweep"
      ~attrs:
        [
          ("classes", Obs.Trace.Int (List.length classes));
          ("fractions", Obs.Trace.Int (List.length fractions));
          ("cells", Obs.Trace.Int total);
          ("resumed", Obs.Trace.Int resumed);
        ]
  in
  let t0 = Unix.gettimeofday () in
  (* Time governor: apportion what is left of the global deadline across
     the cells still outstanding. A cell's share is
       min(cell cap, remaining, remaining * eff_jobs / cells_left)
     — with [eff_jobs] concurrent workers, [cells_left] cells share
     [remaining] wall-clock at [eff_jobs] cells a time. Re-evaluated at
     every dispatch (so cells that finish early donate their slack to the
     rest) and clamped at 0 so late cells still run their first
     checkpointed block and return a valid, if loose, bound. Unbudgeted
     sweeps pass no [budget_of] at all: no clocks, no behavior change. *)
  let budget_of =
    if not budgeted then None
    else begin
      let width =
        (if jobs <= 1 then 1 else jobs) + List.length workers
      in
      let eff_jobs = max 1 (min width (List.length pending)) in
      Some
        (fun _index ->
          let remaining = deadline_s -. (Unix.gettimeofday () -. t0) in
          let cells_left =
            max 1 (List.length pending - (!completed_count - resumed))
          in
          let share =
            remaining *. float_of_int eff_jobs /. float_of_int cells_left
          in
          Float.max 0. (Float.min cell_budget_s (Float.min remaining share)))
    end
  in
  let outcomes =
    Util.Parallel.map ~jobs ?timeout_s ?budget_of ~remote ~on_result ~f:solve
      pending
  in
  let elapsed_s = Unix.gettimeofday () -. t0 in
  Obs.Trace.span_end sweep_sp
    ~attrs:[ ("wall_elapsed_s", Obs.Trace.Float elapsed_s) ];
  (match journal with
  | Some path ->
    if Sys.file_exists path then Sys.remove path;
    let tmp = path ^ ".tmp" in
    if Sys.file_exists tmp then Sys.remove tmp
  | None -> ());
  let result_tbl : (string, t * float) Hashtbl.t = Hashtbl.create total in
  Hashtbl.iter (fun k v -> Hashtbl.replace result_tbl k v) done_tbl;
  List.iter2
    (fun (k, _, _, _) (o : t Util.Parallel.result) ->
      Hashtbl.replace result_tbl k
        (o.Util.Parallel.value, o.Util.Parallel.wall_s))
    pending outcomes;
  let lookup k = Hashtbl.find result_tbl k in
  let stats =
    List.map
      (fun (k, label, _, fraction) ->
        let cell, wall_s = lookup k in
        {
          label;
          x = fraction;
          wall_s;
          iterations = cell.lp_iterations;
          solved_exactly = cell.exact;
          cell_path = cell.solve_path;
          cell_quality = cell.quality;
          cell_rel_gap = cell.rel_gap;
        })
      keyed_cells
  in
  let per_class =
    List.map
      (fun (label, _) ->
        ( label,
          List.filter_map
            (fun (k, l, _, fraction) ->
              if String.equal l label then Some (fraction, fst (lookup k))
              else None)
            keyed_cells ))
      classes
  in
  {
    per_class;
    stats;
    jobs = (if jobs <= 1 then 1 else jobs);
    elapsed_s;
    pool = Util.Parallel.last_pool_stats ();
    resumed;
  }
