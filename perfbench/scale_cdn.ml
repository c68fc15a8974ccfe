(* scale-cdn: the 229-node CDN family through the bundled Lagrangian,
   which dispatches its subproblems through the worker pool on every
   subgradient iteration. No PDHG runs here. *)

module SS = Replica_select.Scale_scenario
module L = Bounds.Lagrangian

let name = "scale-cdn"

let fixture ~seed ~cores =
  {
    Fixture.workload = name;
    params =
      [
        ("objects", Fixture.Int 10_000);
        ("iterations", Fixture.Int 40);
        ("fractions", Fixture.Floats [ 0.9; 0.95; 0.99 ]);
        ("class", Fixture.Names [ Mcperf.Classes.general.name ]);
        (* figscale --check's down-shifted instance, small enough for the
           exact simplex *)
        ("check_fanouts", Fixture.Ints [ 2; 3 ]);
        ("check_objects", Fixture.Int 60);
      ];
    (* Every Lagrangian iteration forks a fresh pool, and on a 2-vCPU VM
       the jobs-2 wall of that path moved by 2x between runs minutes
       apart. The measured run is sequential; the traced run keeps the
       jobs-2 leg, whose speedup records the slowdown. *)
    jobs = 1;
    cores;
    seed;
  }

type fx = {
  cfg : Fixture.t;
  spec : Mcperf.Spec.t;
  small : SS.t;  (** the check instance *)
  cls : Mcperf.Classes.t;
  cells : int;  (** demand cells of the large instance *)
}

let relabelled seed (s : SS.t) =
  { s with demand = Relabel.demand (Relabel.permutation ~seed s.demand.objects) s.demand }

let setup cfg () =
  let seed = cfg.Fixture.seed and fractions = Fixture.floats cfg "fractions" in
  let large = relabelled seed (SS.make ~objects:(Fixture.int cfg "objects") ()) in
  let small =
    relabelled seed
      (SS.make ~fanouts:(Fixture.ints cfg "check_fanouts")
         ~objects:(Fixture.int cfg "check_objects") ())
  in
  let cls =
    match Mcperf.Classes.find (List.hd (Fixture.names cfg "class")) with
    | Some c -> c
    | None -> invalid_arg "unknown heuristic class"
  in
  {
    cfg;
    spec = SS.qos_spec large ~fraction:(List.hd fractions);
    small;
    cls;
    cells = Array.fold_left (fun acc r -> acc + Array.length r) 0 large.demand.reads;
  }

type out = (float * L.outcome) list

let sweep ~jobs fx =
  L.sweep ~iterations:(Fixture.int fx.cfg "iterations") ~jobs fx.spec fx.cls
    ~fractions:(Fixture.floats fx.cfg "fractions")

let digest (out : out) =
  Digest.to_hex
    (Digest.string
       (String.concat "\n"
          (List.map
             (fun (q, (o : L.outcome)) ->
               Printf.sprintf "%h|%h|%d|%d|%d|%d|%d|%d" q o.bound o.iterations
                 o.subproblems_exact o.subproblems_bounded o.objects o.bundles
                 o.rescaled_members)
             out)))

let check tally fx (out : out) =
  let other = Harness.other_jobs fx.cfg.Fixture.jobs in
  Tally.check tally
    (digest (sweep ~jobs:other fx) = digest out)
    "jobs-%d bounds differ from jobs-%d bounds" other fx.cfg.Fixture.jobs;
  (* On the down-shifted instance: Lagrangian <= exact LP optimum, and
     <= the cost of a deployed greedy-global placement. *)
  let small =
    List.filter_map
      (fun q ->
        let spec = SS.qos_spec fx.small ~fraction:q in
        let l =
          (L.bound ~iterations:(Fixture.int fx.cfg "iterations") ~jobs:1 spec fx.cls).bound
        in
        let model = Mcperf.Model.build (Mcperf.Permission.compute spec fx.cls) in
        match
          ( Lp.Simplex.solve model.problem,
            Sim.Runner.greedy_global ~spec () )
        with
        | Lp.Simplex.Optimal { objective = lp; _ }, Some d ->
          let lp = lp +. model.objective_offset in
          Tally.check tally (l <= lp +. 1e-6) "Lagrangian %g above the LP optimum %g at %g" l lp q;
          Tally.check tally (l <= d.cost) "Lagrangian %g above greedy-global %g at %g" l d.cost q;
          Some ((lp -. l) /. lp, d.cost -. l, d.cost)
        | _ ->
          Tally.check tally false "check instance did not solve at %g" q;
          None)
      (Fixture.floats fx.cfg "fractions")
  in
  {
    Harness.bound_mean = Stats.mean (List.map (fun (_, (o : L.outcome)) -> o.bound) out);
    bound_gap_mean = Stats.mean (List.map (fun (g, _, _) -> g) small);
    regret_mean = Stats.mean (List.map (fun (_, r, _) -> r) small);
    deploy_cost_sum = List.fold_left (fun acc (_, _, c) -> acc +. c) 0. small;
  }

(* Permission and bundling run inside the sweep; the probes time them
   once more on their own. *)
let traced _tally lay fx ~untraced:_ =
  let perm =
    Layers.span lay "mcperf.permission_s" (fun () -> Mcperf.Permission.compute fx.spec fx.cls)
  in
  ignore (Layers.span lay "mcperf.bundle_s" (fun () -> Mcperf.Bundle.compute perm));
  let out = Layers.span lay "bounds.lagrangian_s" (fun () -> sweep ~jobs:2 fx) in
  let sum f = float_of_int (List.fold_left (fun acc (_, o) -> acc + f o) 0 out) in
  Layers.count lay "bounds.lagrangian_iters" (sum (fun (o : L.outcome) -> o.iterations));
  Layers.count lay "bounds.lagrangian_subproblems"
    (sum (fun (o : L.outcome) -> o.subproblems_exact + o.subproblems_bounded));
  (match out with
  | (_, o) :: _ ->
    Layers.count lay "mcperf.bundle_ratio"
      (float_of_int o.objects /. float_of_int (max 1 o.bundles))
  | [] -> ());
  digest out

let bench ~seed ~cores =
  let cfg = fixture ~seed ~cores in
  Harness.pack
    {
      Harness.fixture = cfg;
      setup = setup cfg;
      setup_reps = 25;
      events = (fun fx -> fx.cells);
      run = (fun ~jobs ~tick:_ fx -> sweep ~jobs fx);
      steps = (fun _ -> []);
      digest;
      check;
      traced_jobs = 2;
      traced;
      probes = [ "mcperf.permission_s"; "mcperf.bundle_s" ];
      derive = (fun _ -> []);
    }
