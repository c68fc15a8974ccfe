(* sweep-web: the paper's Figure 1/2 grid. Four heuristic classes at five
   QoS points, solved as independent cold cells through the worker pool,
   plus the deployed greedy-global heuristic at each point. PDHG
   iterations dominate. *)

module CS = Replica_select.Case_study
module P = Bounds.Pipeline

let name = "sweep-web"

let fixture ~seed ~cores =
  {
    Fixture.workload = name;
    params =
      [
        ("nodes", Fixture.Int 10);
        ("scale", Fixture.Float 0.02);
        ("intervals", Fixture.Int 12);
        ( "classes",
          Fixture.Names
            (List.map
               (fun c -> c.Mcperf.Classes.name)
               Mcperf.Classes.
                 [
                   general;
                   storage_constrained;
                   replica_constrained_uniform;
                   decentralized_local_routing;
                 ]) );
        ("fractions", Fixture.Floats CS.qos_points);
      ];
    jobs = 2;
    cores;
    seed;
  }

let class_of name =
  match Mcperf.Classes.find name with
  | Some c -> c
  | None -> invalid_arg ("unknown heuristic class " ^ name)

type fx = {
  cs : CS.t;
  classes : (string * Mcperf.Classes.t) list;
  fractions : float list;
}

let setup cfg () =
  let cs =
    CS.make ~nodes:(Fixture.int cfg "nodes") ~scale:(Fixture.float cfg "scale")
      ~intervals:(Fixture.int cfg "intervals") CS.Web
  in
  (* Only the bound models' demand is relabelled: greedy-global breaks
     ties by object id, so relabelling its demand would move its cost by
     about 2% and the regret by about 17% from seed to seed. *)
  let d = cs.bound_demand in
  {
    cs = { cs with bound_demand = Relabel.demand (Relabel.permutation ~seed:cfg.Fixture.seed d.objects) d };
    classes = List.map (fun n -> (n, class_of n)) (Fixture.names cfg "classes");
    fractions = Fixture.floats cfg "fractions";
  }

let bound_spec fx q = CS.qos_spec fx.cs ~fraction:q ~for_bounds:true ()
let sim_spec fx q = CS.qos_spec fx.cs ~fraction:q ~for_bounds:false ()

type out = { sweep : P.sweep; deployed : Sim.Runner.deployed option list }

let run ~jobs fx =
  let sweep =
    P.sweep_classes
      P.Sweep_config.(default |> with_jobs jobs)
      (bound_spec fx (List.hd fx.fractions))
      ~fractions:fx.fractions fx.classes
  in
  let deployed =
    Util.Parallel.map_values ~jobs
      ~f:(fun q -> Sim.Runner.greedy_global ~spec:(sim_spec fx q) ())
      fx.fractions
  in
  { sweep; deployed }

let cell_line label q feasible lower_bound iterations =
  Printf.sprintf "%s|%h|%b|%h|%d" label q feasible lower_bound iterations

let deployed_line = function
  | None -> "none"
  | Some (d : Sim.Runner.deployed) ->
    Printf.sprintf "%d|%h|%h" d.parameter d.cost d.worst_qos

let digest_of cells deployed =
  Digest.to_hex (Digest.string (String.concat "\n" (cells @ deployed)))

let digest out =
  digest_of
    (List.concat_map
       (fun (label, cells) ->
         List.map
           (fun (q, (r : P.t)) ->
             cell_line label q r.feasible r.lower_bound r.lp_iterations)
           cells)
       out.sweep.per_class)
    (List.map deployed_line out.deployed)

let check tally fx out =
  List.iter
    (fun (label, cells) ->
      let cls = List.assoc label fx.classes in
      List.iter
        (fun (q, (r : P.t)) ->
          if r.feasible then
            Tally.guard tally "certify" (fun () ->
                match P.certify (bound_spec fx q) cls r with
                | Ok () -> Tally.check tally true "certified"
                | Error msg ->
                  Tally.check tally false "%s at %g: certificate rejected: %s"
                    label q msg))
        cells)
    out.sweep.per_class;
  let storage =
    List.assoc Mcperf.Classes.storage_constrained.name out.sweep.per_class
  in
  let regrets =
    List.concat
      (List.map2
         (fun (q, (r : P.t)) d ->
           match d with
           | None ->
             Tally.check tally false "greedy-global found no deployment at %g" q;
             []
           | Some (d : Sim.Runner.deployed) ->
             Tally.check tally
               (r.lower_bound <= d.cost +. (1e-6 *. (1. +. Float.abs d.cost)))
               "storage-constrained bound %g above greedy-global cost %g at %g"
               r.lower_bound d.cost q;
             if r.feasible then [ d.cost -. r.lower_bound ] else [])
         storage out.deployed)
  in
  let cells = List.concat_map snd out.sweep.per_class in
  {
    Harness.bound_mean =
      Stats.mean
        (List.filter_map
           (fun (_, (r : P.t)) -> if r.feasible then Some r.lower_bound else None)
           cells);
    bound_gap_mean = Stats.mean (List.filter_map (fun (_, (r : P.t)) -> r.gap) cells);
    regret_mean = Stats.mean regrets;
    deploy_cost_sum =
      List.fold_left
        (fun acc d ->
          match d with Some (d : Sim.Runner.deployed) -> acc +. d.cost | None -> acc)
        0. out.deployed;
  }

(* --- traced leg: each cell re-run at jobs 1 as its public steps ------------ *)

(* [Bounds.Pipeline]'s [Auto] rule: the dense simplex solves models with
   at most this many variables and rows (counted before presolve). *)
let simplex_size_limit = 260

(* [Bounds.Pipeline]'s health test of a PDHG outcome: finite results and a
   bound that re-evaluating the certificate at the best dual reproduces. *)
let pdhg_healthy prep (out : Lp.Pdhg.outcome) =
  Float.is_finite out.best_bound
  && Float.is_finite out.primal_objective
  && Float.is_finite out.primal_infeasibility
  && Array.for_all Float.is_finite out.x
  &&
  let recheck =
    Lp.Certificate.dual_bound (Lp.Pdhg.prepared_problem prep) ~y:out.best_y
  in
  Float.is_finite recheck
  && Float.abs (recheck -. out.best_bound) <= 1e-9 *. (1. +. Float.abs out.best_bound)

(* One cell as [Pipeline.sweep_classes] computes it in a worker: the
   class's first model is built once and re-targeted per fraction, and
   the PDHG image is reused across the class's cells. Returns
   [(feasible, lower_bound, lp_iterations)]. *)
let decompose lay ~base ~prep spec cls q =
  let span name f = Layers.span lay name f in
  let perm =
    span "mcperf.permission_s" (fun () ->
        match !base with
        | Some (m : Mcperf.Model.t) -> Mcperf.Permission.with_fraction m.permission q
        | None -> Mcperf.Permission.compute spec cls)
  in
  let model ~keep =
    span "mcperf.model_build_s" (fun () ->
        match !base with
        | Some m -> Mcperf.Model.with_fraction m q
        | None ->
          let m = Mcperf.Model.build perm in
          if keep then base := Some m;
          m)
  in
  let infeasible = (false, infinity, 0) in
  let public () =
    let r = P.compute spec cls in
    (r.feasible, r.lower_bound, r.lp_iterations)
  in
  if not (Mcperf.Permission.feasible perm) then begin
    let m = model ~keep:false in
    span "lp.certificate_s" (fun () ->
        ignore (Lp.Certificate.row_farkas (Lp.Problem.normalize_ge m.problem)));
    infeasible
  end
  else
    match Bounds.Tree_dp.of_spec spec cls with
    | Ok _ -> public ()
    | Error _ -> (
      let m = model ~keep:true in
      let problem = m.problem in
      let vars = Lp.Problem.nvars problem and rows = Lp.Problem.nrows problem in
      Layers.count lay "mcperf.model_vars" (float_of_int vars);
      Layers.count lay "mcperf.model_nnz" (float_of_int (Lp.Problem.nnz problem));
      let pre = span "lp.presolve_s" (fun () -> Lp.Presolve.run problem) in
      Layers.count lay "lp.presolve_fixed" (float_of_int pre.fixed_vars);
      let red = pre.reduced in
      let solved =
        match pre.status with
        | `Infeasible -> `Infeasible
        | `Unchanged | `Reduced ->
          if Lp.Problem.nvars red = 0 then `Solved (pre.restore [||], pre.offset, 0)
          else if vars <= simplex_size_limit && rows <= simplex_size_limit then
            match span "lp.simplex_s" (fun () -> Lp.Simplex.solve_certified red) with
            | Lp.Simplex.Cert_optimal { x; objective; _ } ->
              `Solved (pre.restore x, objective +. pre.offset, 0)
            | Lp.Simplex.Cert_infeasible _ | Lp.Simplex.Cert_unbounded -> `Infeasible
          else begin
            let p = span "lp.pdhg_prepare_s" (fun () -> Lp.Pdhg.prepare ?reuse:!prep red) in
            let out =
              span "lp.pdhg_iterate_s" (fun () ->
                  Lp.Pdhg.solve_prepared ~options:P.default_pdhg_options p)
            in
            if span "lp.certificate_s" (fun () -> pdhg_healthy p out) then begin
              prep := Some p;
              `Solved (pre.restore out.x, out.best_bound +. pre.offset, out.iterations)
            end
            else `Fallback
          end
      in
      match solved with
      | `Infeasible -> infeasible
      | `Fallback -> public ()
      | `Solved (point, bound, iterations) ->
        (match span "rounding.round_s" (fun () -> Rounding.Round.round m ~x:point) with
        | Ok r -> Layers.count lay "rounding.repaired" (float_of_int r.repaired)
        | Error _ -> ());
        (true, bound +. m.objective_offset, iterations))

let traced tally lay fx ~untraced =
  let public_cells = List.concat_map snd untraced.sweep.per_class in
  let cells =
    List.concat_map
      (fun (label, cls) ->
        let base = ref None and prep = ref None in
        List.map
          (fun q ->
            let feasible, lb, iterations =
              decompose lay ~base ~prep (bound_spec fx q) cls q
            in
            (label, q, feasible, lb, iterations))
          fx.fractions)
      fx.classes
  in
  List.iter2
    (fun (label, q, feasible, lb, iterations) (_, (r : P.t)) ->
      Tally.check tally
        (feasible = r.feasible && Int64.bits_of_float lb = Int64.bits_of_float r.lower_bound
        && iterations = r.lp_iterations)
        "%s at %g: decomposed cell (%h, %d iterations) differs from the sweep (%h, %d)"
        label q lb iterations r.lower_bound r.lp_iterations)
    cells public_cells;
  let vars = Layers.counted lay "mcperf.model_vars" in
  if vars > 0. then
    Layers.count lay "lp.presolve_fixed_frac" (Layers.counted lay "lp.presolve_fixed" /. vars);
  let deployed =
    List.map
      (fun q ->
        Layers.span lay "sim.search_s" (fun () ->
            Sim.Runner.greedy_global ~spec:(sim_spec fx q) ()))
      fx.fractions
  in
  digest_of
    (List.map (fun (label, q, f, lb, it) -> cell_line label q f lb it) cells)
    (List.map deployed_line deployed)

let derive out =
  let stats = out.sweep.stats in
  let walls = List.map (fun (s : P.task_stat) -> s.wall_s) stats in
  let busy = List.fold_left ( +. ) 0. walls in
  let hops =
    List.fold_left
      (fun acc (s : P.task_stat) ->
        acc
        + (match s.cell_path with
          | P.Path_pdhg_retry -> 1
          | P.Path_simplex_fallback -> 2
          | _ -> 0))
      0 stats
  in
  [
    ("bounds.cell_s_p50", Stats.median walls);
    ("bounds.cell_s_max", Stats.maximum walls);
    ("bounds.fallback_hops", float_of_int hops);
    ("util.parallel.tasks", float_of_int (List.length stats));
    ("util.parallel.busy_s", busy);
    ( "util.parallel.utilisation",
      busy /. (float_of_int out.sweep.jobs *. out.sweep.elapsed_s) );
    ("util.parallel.retries", float_of_int out.sweep.pool.task_retries);
  ]

let bench ~seed ~cores =
  let cfg = fixture ~seed ~cores in
  Harness.pack
    {
      Harness.fixture = cfg;
      setup = setup cfg;
      setup_reps = 25;
      events = (fun fx -> Workload.Trace.length fx.cs.trace);
      run = (fun ~jobs ~tick:_ fx -> run ~jobs fx);
      (* Single cells are as short as 0.2 s and share the pool with the
         memory-heavy storage cells, so their times vary by about 20% from
         run to run; the step is the whole grid. *)
      steps = (fun _ -> []);
      digest;
      check;
      traced_jobs = 1;
      traced;
      probes = [];
      derive;
    }
