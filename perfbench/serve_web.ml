(* serve-web: the online service. The WEB day is streamed one interval
   per epoch through [Online.Engine]; every epoch re-solves each class
   bound warm-started from the previous epoch, sequentially in the
   parent, on a model that grows with the history. *)

module CS = Replica_select.Case_study
module E = Online.Engine

let name = "serve-web"

let fixture ~seed ~cores =
  {
    Fixture.workload = name;
    params =
      [
        ("nodes", Fixture.Int 12);
        ("scale", Fixture.Float 0.01);
        ("intervals", Fixture.Int 12);
        ("epoch_intervals", Fixture.Int 1);
        ("fraction", Fixture.Float 0.95);
        ("tlat_ms", Fixture.Float 150.);
        ("strategies", Fixture.Names (List.map fst E.default_strategies));
      ];
    jobs = 2;
    cores;
    seed;
  }

let strategy name =
  match List.assoc_opt name E.default_strategies with
  | Some f -> f
  | None -> (
    match Heuristics.Registry.find name with
    | Some f -> f
    | None -> invalid_arg ("unknown strategy " ^ name))

type fx = { cfg : Fixture.t; trace : Workload.Trace.t; system : Topology.System.t }

let setup cfg () =
  let cs =
    CS.make ~nodes:(Fixture.int cfg "nodes") ~scale:(Fixture.float cfg "scale")
      ~intervals:(Fixture.int cfg "intervals") CS.Web
  in
  let perm =
    Relabel.permutation ~seed:cfg.Fixture.seed (Workload.Trace.object_count cs.trace)
  in
  { cfg; trace = Relabel.trace perm cs.trace; system = cs.system }

let interval_s fx =
  Workload.Trace.duration_s fx.trace /. float_of_int (Fixture.int fx.cfg "intervals")

let config ~jobs fx =
  {
    (E.default ~system:fx.system ~interval_s:(interval_s fx)
       ~epoch_intervals:(Fixture.int fx.cfg "epoch_intervals")
       ~goal:
         (Mcperf.Spec.Qos
            {
              tlat_ms = Fixture.float fx.cfg "tlat_ms";
              fraction = Fixture.float fx.cfg "fraction";
            })
       ())
    with
    E.strategies =
      List.map (fun n -> (n, strategy n)) (Fixture.names fx.cfg "strategies");
    jobs;
  }

type out = {
  epochs : E.epoch list;
  feeds : float list;  (** wall time of each [Engine.feed] *)
  warm_lifts : int;
  bound_solves : int;
}

(* [feed] wraps each [Engine.feed] call; the traced leg puts a span there.
   [tick] runs before each call, outside its timing. *)
let stream ?(feed = fun f -> f ()) ?(tick = ignore) ~jobs fx =
  let engine = E.create (config ~jobs fx) in
  let chunks =
    E.chunks ~interval_s:(interval_s fx)
      ~epoch_intervals:(Fixture.int fx.cfg "epoch_intervals")
      fx.trace
  in
  let timed =
    List.map
      (fun chunk ->
        tick ();
        let t0 = Unix.gettimeofday () in
        let e = feed (fun () -> E.feed engine chunk) in
        (e, Unix.gettimeofday () -. t0))
      chunks
  in
  {
    epochs = List.map fst timed;
    feeds = List.map snd timed;
    warm_lifts = E.warm_lifts engine;
    bound_solves = E.bound_solves engine;
  }

let run ?tick ~jobs fx = stream ?tick ~jobs fx

let opt_line = function None -> "-" | Some f -> Printf.sprintf "%h" f

let digest out =
  let epoch_lines (e : E.epoch) =
    Printf.sprintf "epoch %d|%d|%d|%d" e.index e.intervals e.total_events e.working_set
    :: List.map
         (fun (cls, (r : Bounds.Pipeline.t)) ->
           Printf.sprintf "%s|%b|%h|%d" cls r.feasible r.lower_bound r.lp_iterations)
         e.bounds
    @ List.map
        (fun (d : E.decision) ->
          Printf.sprintf "%s|%s|%s|%s|%s|%s" d.strategy d.class_name
            (match d.parameter with None -> "-" | Some p -> string_of_int p)
            (opt_line d.cost) (opt_line d.bound) (opt_line d.regret))
        e.decisions
  in
  Digest.to_hex
    (Digest.string (String.concat "\n" (List.concat_map epoch_lines out.epochs)))

let decisions out = List.concat_map (fun (e : E.epoch) -> e.decisions) out.epochs

let check tally fx out =
  let intervals = Fixture.int fx.cfg "intervals"
  and per_epoch = Fixture.int fx.cfg "epoch_intervals" in
  let expected = (intervals + per_epoch - 1) / per_epoch in
  Tally.check tally
    (List.length out.epochs = expected)
    "%d epochs streamed, %d expected" (List.length out.epochs) expected;
  let ds = decisions out in
  List.iter
    (fun (d : E.decision) ->
      match d.regret with
      | Some r -> Tally.check tally (r >= 0.) "%s: negative regret %g" d.strategy r
      | None -> ())
    ds;
  {
    Harness.bound_mean = Stats.mean (List.filter_map (fun (d : E.decision) -> d.bound) ds);
    bound_gap_mean =
      Stats.mean
        (List.concat_map
           (fun (e : E.epoch) ->
             List.filter_map (fun (_, (r : Bounds.Pipeline.t)) -> r.gap) e.bounds)
           out.epochs);
    regret_mean = Stats.mean (List.filter_map (fun (d : E.decision) -> d.regret) ds);
    deploy_cost_sum =
      List.fold_left
        (fun acc (d : E.decision) -> acc +. Option.value ~default:0. d.cost)
        0. ds;
  }

(* Each feed is one span; the engine's own search and solve timings are
   charged to their layers, so ingest is the feed's remaining self time. *)
let traced _tally lay fx ~untraced:_ =
  let out =
    stream ~jobs:fx.cfg.Fixture.jobs fx ~feed:(fun f ->
        Layers.span lay "online.ingest_s" (fun () ->
            let e = f () in
            Layers.charge lay "online.search_s" e.E.search_s;
            Layers.charge lay "online.solve_s" e.E.solve_s;
            e))
  in
  Layers.count lay "online.warm_lift_ratio"
    (float_of_int out.warm_lifts /. float_of_int (max 1 out.bound_solves));
  digest out

let bench ~seed ~cores =
  let cfg = fixture ~seed ~cores in
  Harness.pack
    {
      Harness.fixture = cfg;
      setup = setup cfg;
      setup_reps = 25;
      events = (fun fx -> Workload.Trace.length fx.trace);
      run = (fun ~jobs ~tick fx -> run ~tick ~jobs fx);
      steps = (fun out -> out.feeds);
      digest;
      check;
      traced_jobs = cfg.jobs;
      traced;
      probes = [];
      derive = (fun _ -> []);
    }
