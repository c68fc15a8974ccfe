type config = {
  system : Topology.System.t;
  interval_s : float;
  epoch_intervals : int;
  costs : Mcperf.Spec.costs;
  goal : Mcperf.Spec.goal;
  placeable : bool array option;
  strategies : (string * Heuristics.Strategy.factory) list;
  solver : Bounds.Pipeline.solver;
  jobs : int;
}

let default_strategies =
  [
    ("greedy-global", Heuristics.Greedy_global.strategy);
    ("greedy-replica", Heuristics.Greedy_replica.strategy);
    ("proportional", Heuristics.Proportional.strategy);
    ("lru-caching", Heuristics.Cache_strategy.lru);
    ("cooperative-caching", Heuristics.Cache_strategy.cooperative);
  ]

let default ?placeable ?(costs = Mcperf.Spec.default_costs) ~system ~interval_s
    ~epoch_intervals ~goal () =
  if epoch_intervals <= 0 then
    invalid_arg "Engine.default: epoch_intervals must be positive";
  if not (Float.is_finite interval_s && interval_s > 0.) then
    invalid_arg "Engine.default: interval_s must be positive";
  {
    system;
    interval_s;
    epoch_intervals;
    costs;
    goal;
    placeable;
    strategies = default_strategies;
    solver = Bounds.Pipeline.Auto;
    jobs = 1;
  }

type decision = {
  strategy : string;
  class_name : string;
  parameter : int option;  (** [None]: no parameter meets the goal *)
  cost : float option;
  worst_qos : float option;
  bound : float option;
  regret : float option;
}

type epoch = {
  index : int;
  intervals : int;
  chunk_events : int;
  total_events : int;
  working_set : int;
  bounds : (string * Bounds.Pipeline.t) list;
  decisions : decision list;
  search_s : float;
  solve_s : float;
}

type t = {
  config : config;
  mutable incr : Workload.Incremental.t;
  mutable trace : Workload.Trace.t option;
  mutable deltas : Heuristics.Strategy.delta list;  (** newest first *)
  mutable epochs : epoch list;  (** newest first *)
}

let create config =
  if config.epoch_intervals <= 0 then
    invalid_arg "Engine.create: epoch_intervals must be positive";
  if not (Float.is_finite config.interval_s && config.interval_s > 0.) then
    invalid_arg "Engine.create: interval_s must be positive";
  if config.jobs < 1 then invalid_arg "Engine.create: jobs must be >= 1";
  if config.strategies = [] then
    invalid_arg "Engine.create: need at least one strategy";
  {
    config;
    incr =
      Workload.Incremental.create
        ~nodes:(Topology.System.node_count config.system)
        ~interval_s:config.interval_s;
    trace = None;
    deltas = [];
    epochs = [];
  }

let epochs t = List.rev t.epochs
let warm_lifts _ = 0

let bound_solves t =
  List.fold_left (fun n e -> n + List.length e.bounds) 0 t.epochs

let m_epochs = lazy (Obs.Metrics.counter "online.epochs")
let m_decisions = lazy (Obs.Metrics.counter "online.decisions")
let m_solves = lazy (Obs.Metrics.counter "online.bound_solves")
let m_regret = lazy (Obs.Metrics.histogram "online.regret")

(* One strategy's minimal-feasible deployment on everything observed so
   far. Pure function of (factory, deltas, ctx): safe to fan out across
   a worker pool, and order-preserving collection keeps the epoch report
   byte-identical at every [jobs]. *)
let search_one (cfg : config) deltas (label, factory) =
  let module S = Heuristics.Strategy in
  let ctx =
    S.Context.make ~system:cfg.system ?placeable:cfg.placeable
      ~costs:cfg.costs ~goal:cfg.goal ()
  in
  let at p =
    List.fold_left S.observe
      (factory (S.Context.with_parameter ctx p))
      (List.rev deltas)
  in
  let class_name =
    (S.heuristic_class (factory ctx)).Mcperf.Classes.name
  in
  let hi = S.parameter_ceiling (at 0) in
  let feasible p = (S.assess (at p)).S.meets_goal in
  match Sim.Search.min_feasible_int ~lo:0 ~hi feasible with
  | None ->
    {
      strategy = label;
      class_name;
      parameter = None;
      cost = None;
      worst_qos = None;
      bound = None;
      regret = None;
    }
  | Some p ->
    let v = S.assess (at p) in
    {
      strategy = label;
      class_name;
      parameter = Some p;
      cost = Some v.S.cost;
      worst_qos = Some v.S.worst_qos;
      bound = None;
      regret = None;
    }

(* The distinct heuristic classes among the strategies, in first-seen
   order: one bound solve each. *)
let classes (cfg : config) =
  let ctx =
    Heuristics.Strategy.Context.make ~system:cfg.system
      ?placeable:cfg.placeable ~costs:cfg.costs ~goal:cfg.goal ()
  in
  List.fold_left
    (fun acc (_, factory) ->
      let cls = Heuristics.Strategy.heuristic_class (factory ctx) in
      if
        List.exists
          (fun c -> c.Mcperf.Classes.name = cls.Mcperf.Classes.name)
          acc
      then acc
      else acc @ [ cls ])
    [] cfg.strategies

(* Ingest [chunk], then search and bound on everything observed so far.
   Both phases go through the order-preserving pool at every [jobs] —
   its sequential path opens the same per-task trace scopes — so the
   epoch report and the logical trace are byte-identical at any
   [jobs]. *)
let run_epoch t ~index chunk =
  let cfg = t.config in
  let start_interval = Workload.Incremental.intervals t.incr in
  let incr = Workload.Incremental.extend t.incr chunk in
  let trace =
    match t.trace with
    | None -> chunk
    | Some prev -> Workload.Trace.extend prev chunk
  in
  t.incr <- incr;
  t.trace <- Some trace;
  let intervals = Workload.Incremental.intervals incr in
  let demand = Workload.Incremental.demand incr in
  t.deltas <-
    {
      Heuristics.Strategy.epoch = index;
      start_interval;
      intervals;
      demand;
      chunk = Some chunk;
      trace = Some trace;
    }
    :: t.deltas;
  let report ~bounds ~decisions ~search_s ~solve_s =
    {
      index;
      intervals;
      chunk_events = Workload.Trace.length chunk;
      total_events = Workload.Incremental.events incr;
      working_set =
        Workload.Incremental.working_set incr ~window:cfg.epoch_intervals;
      bounds;
      decisions;
      search_s;
      solve_s;
    }
  in
  if Workload.Demand.total_reads demand <= 0. then
    (* Nothing to place or bound yet: a warm-up epoch. *)
    report ~bounds:[] ~decisions:[] ~search_s:0. ~solve_s:0.
  else begin
    let spec =
      Mcperf.Spec.make ~system:cfg.system ~demand ~costs:cfg.costs
        ~goal:cfg.goal ()
    in
    let t0 = Unix.gettimeofday () in
    let searches =
      Util.Parallel.map_values ~jobs:cfg.jobs
        ~f:(search_one cfg t.deltas)
        cfg.strategies
    in
    let t1 = Unix.gettimeofday () in
    (* One class bound per distinct class on the cumulative demand,
       solved in the pool: a pure function of (class, goal, workload),
       so it does not depend on how the trace was cut into epochs. *)
    let classes = classes cfg in
    let bounds =
      List.combine
        (List.map (fun c -> c.Mcperf.Classes.name) classes)
        (Util.Parallel.map_values ~jobs:cfg.jobs
           ~f:
             (Bounds.Pipeline.compute ~solver:cfg.solver
                ?placeable:cfg.placeable spec)
           classes)
    in
    Obs.Metrics.incr ~by:(List.length bounds) (Lazy.force m_solves);
    let t2 = Unix.gettimeofday () in
    let decisions =
      List.map
        (fun d ->
          let bound =
            match List.assoc_opt d.class_name bounds with
            | Some (r : Bounds.Pipeline.t) when r.Bounds.Pipeline.feasible ->
              Some r.Bounds.Pipeline.lower_bound
            | Some _ | None -> None
          in
          let regret =
            match (d.cost, bound) with
            | Some c, Some b ->
              let r = c -. b in
              Obs.Metrics.observe (Lazy.force m_regret) r;
              Some r
            | _ -> None
          in
          { d with bound; regret })
        searches
    in
    report ~bounds ~decisions ~search_s:(t1 -. t0) ~solve_s:(t2 -. t1)
  end

(* The epoch span closes on every exit: an ingest, search or solve that
   raises must not leave it open for later spans to nest under. *)
let feed t chunk =
  let index = List.length t.epochs in
  let sp =
    Obs.Trace.span_begin "online.epoch"
      ~attrs:
        [
          ("epoch", Obs.Trace.Int index);
          ("events", Obs.Trace.Int (Workload.Trace.length chunk));
        ]
  in
  match run_epoch t ~index chunk with
  | exception e ->
    Obs.Trace.span_end sp ~attrs:[ ("error", Obs.Trace.Bool true) ];
    raise e
  | epoch ->
    Obs.Metrics.incr (Lazy.force m_epochs);
    Obs.Metrics.incr ~by:(List.length epoch.decisions)
      (Lazy.force m_decisions);
    t.epochs <- epoch :: t.epochs;
    Obs.Trace.span_end sp
      ~attrs:
        [
          ("intervals", Obs.Trace.Int epoch.intervals);
          ("decisions", Obs.Trace.Int (List.length epoch.decisions));
        ];
    epoch

(* Slice a replay trace into per-epoch continuation chunks: every event
   is bucketed once with the whole-trace arithmetic, so any epoch size
   yields the same cumulative demand — chunking changes when decisions
   happen, never what the workload is. *)
let chunks ~interval_s ~epoch_intervals trace =
  if epoch_intervals <= 0 then
    invalid_arg "Engine.chunks: epoch_intervals must be positive";
  let dur = Workload.Trace.duration_s trace in
  let total = int_of_float (Float.round (dur /. interval_s)) in
  if total <= 0 then invalid_arg "Engine.chunks: trace shorter than interval";
  let n = Workload.Trace.length trace in
  let bucket i =
    min (total - 1)
      (int_of_float (Workload.Trace.time trace i /. interval_s))
  in
  let epoch_count = (total + epoch_intervals - 1) / epoch_intervals in
  let out = ref [] in
  let lo = ref 0 in
  for e = 0 to epoch_count - 1 do
    let last_interval = min total ((e + 1) * epoch_intervals) in
    let hi = ref !lo in
    while !hi < n && bucket !hi < last_interval do
      incr hi
    done;
    let duration_s =
      if e = epoch_count - 1 then dur
      else
        let b = float_of_int last_interval *. interval_s in
        (* Guard against the boundary product rounding below an event
           kept in this chunk (times are strict-below-horizon). *)
        if !hi > !lo then
          Float.max b
            (Float.succ (Workload.Trace.time trace (!hi - 1)))
        else b
    in
    out := Workload.Trace.sub trace ~lo:!lo ~hi:!hi ~duration_s :: !out;
    lo := !hi
  done;
  List.rev !out

let run config ~trace =
  let t = create config in
  let cs =
    chunks ~interval_s:config.interval_s
      ~epoch_intervals:config.epoch_intervals trace
  in
  List.iter (fun c -> ignore (feed t c)) cs;
  (t, epochs t)
