(* The measurement loop shared by every workload: set-up, the measured
   window, output checks, and the traced run with its baseline leg. *)

let now = Unix.gettimeofday

(* Metric names and units, in print order. The end-to-end set is measured
   with tracing and metering off; the per-layer set comes from the traced
   run. *)
let end_to_end_metrics =
  [
    ("setup_s", "s");
    ("wall_s", "s");
    ("epoch_s_p50", "s");
    ("epoch_s_max", "s");
    ("bound_mean", "cost");
    ("bound_gap_mean", "ratio");
    ("regret_mean", "cost");
    ("deploy_cost_sum", "cost");
    ("peak_rss_mb", "MB");
  ]

let per_layer_metrics =
  [
    ("workload.synthesize_s", "s");
    ("workload.events", "count");
    ("online.ingest_s", "s");
    ("online.search_s", "s");
    ("online.solve_s", "s");
    ("online.warm_lift_ratio", "ratio");
    ("mcperf.permission_s", "s");
    ("mcperf.model_build_s", "s");
    ("mcperf.model_vars", "count");
    ("mcperf.model_nnz", "count");
    ("lp.presolve_s", "s");
    ("lp.presolve_fixed_frac", "ratio");
    ("lp.pdhg_prepare_s", "s");
    ("lp.pdhg_iterate_s", "s");
    ("lp.pdhg_iters", "count");
    ("lp.pdhg_iters_per_s", "1/s");
    ("lp.pdhg_restarts", "count");
    ("lp.pdhg_converged_ratio", "ratio");
    ("lp.simplex_s", "s");
    ("lp.simplex_pivots", "count");
    ("lp.certificate_s", "s");
    ("rounding.round_s", "s");
    ("rounding.repaired", "count");
    ("bounds.cell_s_p50", "s");
    ("bounds.cell_s_max", "s");
    ("bounds.fallback_hops", "count");
    ("bounds.lagrangian_s", "s");
    ("bounds.lagrangian_iters", "count");
    ("bounds.lagrangian_subproblems", "count");
    ("mcperf.bundle_s", "s");
    ("mcperf.bundle_ratio", "ratio");
    ("heuristics.event_cache_s", "s");
    ("heuristics.events_per_s", "1/s");
    ("sim.search_s", "s");
    ("sim.heuristic_runs", "count");
    ("sim.probe_yield", "ratio");
    ("util.parallel.tasks", "count");
    ("util.parallel.busy_s", "s");
    ("util.parallel.utilisation", "ratio");
    ("util.parallel.retries", "count");
    ("util.parallel.speedup", "ratio");
    ("trace_overhead_ratio", "ratio");
    ("unattributed_s", "s");
  ]

(* The quality of a run's outputs, read from the public records it
   returned. Each workload documents what it averages. *)
type quality = {
  bound_mean : float;
  bound_gap_mean : float;
  regret_mean : float;
  deploy_cost_sum : float;
}

type ('fx, 'out) t = {
  fixture : Fixture.t;
  setup : unit -> 'fx;  (** fixture construction from [fixture] and its seed *)
  setup_reps : int;
      (** fixture builds per run. A fixed count: the heap keeps what the
          builds fragment, so a time-based count would move the peak RSS *)
  events : 'fx -> int;  (** trace events (or demand cells) in the fixture *)
  run : jobs:int -> tick:(unit -> unit) -> 'fx -> 'out;
      (** the measured public calls. A run with steps calls [tick] before
          each step, outside the step's own timing *)
  steps : 'out -> float list;
      (** per-step wall times for [epoch_s_*], one per [tick]; [[]] makes
          the whole run the step *)
  digest : 'out -> string;  (** everything the run computed, no timings *)
  check : Tally.t -> 'fx -> 'out -> quality;
  traced_jobs : int;  (** worker count of the traced leg *)
  traced : Tally.t -> Layers.t -> 'fx -> untraced:'out -> string;
      (** the traced leg: spans around the public steps; returns the
          digest of its outputs. [untraced] is the untraced run's output
          at the fixture's jobs, for finer comparisons than the digest. *)
  probes : string list;
      (** layers the traced leg sizes by re-running a step that is
          otherwise hidden inside a public call; excluded from the
          traced wall that [trace_overhead_ratio] compares *)
  derive : 'out -> (string * float) list;
      (** per-layer metrics read from the untraced run's public records;
          they override the generic counter readings *)
}

type result = {
  metrics : (string * (float * string)) list;
  notes : string list;  (** human-readable lines for stderr *)
}

let peak_rss_mb () =
  try
    let ic = open_in "/proc/self/status" in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let rec scan () =
          match input_line ic with
          | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
            Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
              (fun kb -> float_of_int kb /. 1024.)
          | _ -> scan ()
          | exception End_of_file -> nan
        in
        scan ())
  with Sys_error _ -> nan

let with_units defs values =
  List.map
    (fun (name, unit) ->
      (name, (Option.value ~default:0. (List.assoc_opt name values), unit)))
    defs

(* Build the fixture [setup_reps] times and keep the last. A full major
   collection before each build keeps the previous copy out of the peak
   RSS. The kernel is sampled before the first build and after each. *)
let timed_setup w =
  let rec go n setups kernel =
    Gc.full_major ();
    let t0 = now () in
    let fx = w.setup () in
    let setups = (now () -. t0) :: setups and kernel = Calib.sample () :: kernel in
    if n <= 1 then (fx, setups, kernel) else go (n - 1) setups kernel
  in
  go w.setup_reps [] [ Calib.sample () ]

(* One repetition from a compacted heap, as a fresh process would start;
   forking the pool's workers costs more from a larger heap. The kernel
   is sampled three times before and after the run and once at every
   [tick], so its samples spread over the window; the wall excludes the
   samples taken inside the run. *)
type rep = { wall : float; steps : float list; kernel : float list; elapsed : float }

let repetition w ~jobs fx =
  Gc.compact ();
  let burst () = List.init 3 (fun _ -> Calib.sample ()) in
  let first = burst () in
  let ticks = ref [] in
  let tick () = ticks := Calib.sample () :: !ticks in
  let ts = now () in
  let out = w.run ~jobs ~tick fx in
  let elapsed = now () -. ts in
  let last = burst () in
  let sum = List.fold_left ( +. ) 0. in
  let wall = elapsed -. sum !ticks in
  let steps = match w.steps out with [] -> [ wall ] | s -> s in
  ( out,
    { wall; steps; kernel = first @ !ticks @ last; elapsed = elapsed +. sum first +. sum last } )

let end_to_end w ~seconds tally =
  let fx, setups, setup_kernel = timed_setup w in
  let jobs = w.fixture.Fixture.jobs in
  let t0 = now () in
  (* Repeat while another repetition is predicted to fit the window. *)
  let rec loop reps digests =
    let out, rep = repetition w ~jobs fx in
    let reps = rep :: reps and digests = w.digest out :: digests in
    if now () -. t0 +. Stats.median (List.map (fun r -> r.elapsed) reps) > seconds then
      (List.rev reps, digests, out)
    else loop reps digests
  in
  let reps, digests, out = loop [] [] in
  (* Read before the checks, which build models in this process. *)
  let peak_rss_mb = peak_rss_mb () in
  Tally.check tally
    (List.for_all (String.equal (List.hd digests)) digests)
    "repeated runs computed different outputs";
  (* One correction for the set-up and one for the window: one kernel
     sample is too noisy to correct one step, and samples from the
     set-up, taken within the run's first seconds, track the window's
     drift worse than the window's own. *)
  let kernel = List.concat_map (fun r -> r.kernel) reps in
  let setup_host = Calib.reference_s /. Stats.median setup_kernel
  and host = Calib.reference_s /. Stats.median kernel in
  let corrected = List.map (fun t -> t *. host) in
  let walls = List.map (fun r -> r.wall) reps in
  (* Every repetition does the same work, so step i is the same call in
     each; its time is the median over repetitions. *)
  let per_step = Stats.per_index_medians (List.map (fun r -> r.steps) reps) in
  let q = w.check tally fx out in
  let values =
    [
      ("setup_s", setup_host *. Stats.median setups);
      ("wall_s", host *. Stats.median walls);
      ("epoch_s_p50", host *. Stats.median per_step);
      ("epoch_s_max", host *. Stats.maximum per_step);
      ("bound_mean", q.bound_mean);
      ("bound_gap_mean", q.bound_gap_mean);
      ("regret_mean", q.regret_mean);
      ("deploy_cost_sum", q.deploy_cost_sum);
      ("peak_rss_mb", peak_rss_mb);
    ]
  in
  List.iter
    (fun (name, v) ->
      Tally.check tally (Float.is_finite v && v > 0.) "%s = %g is not a positive number" name v)
    values;
  let summary xs = Stats.summary_to_string ~unit:"s" (Stats.summarize xs) in
  {
    metrics = with_units end_to_end_metrics values;
    notes =
      [
        Printf.sprintf "kernel: %s; timings x %.4f, to a host where it takes %g s"
          (summary kernel) host Calib.reference_s;
        Printf.sprintf "set-up: corrected %s, raw %s; kernel %s"
          (summary (List.map (fun t -> t *. setup_host) setups))
          (summary setups) (summary setup_kernel);
        Printf.sprintf "runs:   corrected %s, raw %s [%s]" (summary (corrected walls))
          (summary walls)
          (String.concat " " (List.map (Printf.sprintf "%.3f") walls));
        Printf.sprintf "steps:  corrected per-step medians %s" (summary (corrected per_step));
        "peak_rss_mb is the benchmark process's VmHWM after the window; forked workers \
         are not included";
      ];
  }

(* Counters and histograms the library already keeps; read with metering
   on during the traced leg only. *)
let metering = { Obs.Config.disabled with metrics = true; wall_clock = true }
let counter name = float_of_int (Obs.Metrics.counter_value (Obs.Metrics.counter name))

let ratio a b = if b > 0. then a /. b else 0.

(* The same-run baseline leg: jobs 1 beside a parallel fixture, jobs 2
   beside a sequential one. *)
let other_jobs jobs = if jobs = 1 then 2 else 1

let traced w tally =
  let t0 = now () in
  let fx = w.setup () in
  let synthesize_s = now () -. t0 in
  let leg jobs =
    let ts = now () in
    let out = w.run ~jobs ~tick:ignore fx in
    (out, now () -. ts)
  in
  let jobs = w.fixture.Fixture.jobs and other = other_jobs w.fixture.Fixture.jobs in
  let out_n, wall_n = leg jobs in
  let digest_n = w.digest out_n and derived = w.derive out_n in
  let digest_o, wall_o =
    let out, wall = leg other in
    (w.digest out, wall)
  in
  Tally.check tally (digest_o = digest_n)
    "jobs-%d outputs differ from jobs-%d outputs" other jobs;
  let wall_at j = if j = jobs then wall_n else wall_o in
  Obs.Config.install metering;
  let lay = Layers.create () in
  let ts = now () in
  (* The root span's self time is the traced time no layer accounts for. *)
  let digest_t =
    Layers.span lay "unattributed_s" (fun () -> w.traced tally lay fx ~untraced:out_n)
  in
  let wall_t = now () -. ts in
  let pdhg_solves = counter "pdhg.solves" in
  let counters =
    [
      ("lp.pdhg_iters", counter "pdhg.iterations");
      ("lp.pdhg_restarts", counter "pdhg.restarts");
      ("lp.pdhg_converged_ratio", ratio (counter "pdhg.converged") pdhg_solves);
      ("lp.simplex_pivots", counter "simplex.pivots");
      ("sim.heuristic_runs", counter "sim.heuristic_runs");
      ("util.parallel.tasks", counter "pool.tasks_dispatched");
      ("util.parallel.retries", counter "pool.task_retries");
    ]
  in
  let _, busy_s, _, _ =
    Obs.Metrics.histogram_stats (Obs.Metrics.histogram "pool.task_wall_s")
  in
  Obs.Config.install Obs.Config.disabled;
  Tally.check tally (digest_t = digest_n) "traced outputs differ from untraced outputs";
  let probe_s = List.fold_left (fun acc p -> acc +. Layers.self_s lay p) 0. w.probes in
  let traced_wall = wall_t -. probe_s in
  let untraced_wall = wall_at w.traced_jobs in
  let self =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) lay.Layers.self []
  in
  let layer_counts = Hashtbl.fold (fun k v acc -> (k, v) :: acc) lay.Layers.counts [] in
  let generic =
    [
      ("workload.synthesize_s", synthesize_s);
      ("workload.events", float_of_int (w.events fx));
      ("util.parallel.busy_s", busy_s);
      ("util.parallel.utilisation",
        ratio busy_s (float_of_int w.traced_jobs *. traced_wall));
      ("util.parallel.speedup", ratio (wall_at 1) (wall_at (max jobs other)));
      ("trace_overhead_ratio", ratio traced_wall untraced_wall);
    ]
  in
  let values = derived @ layer_counts @ self @ counters @ generic in
  let values =
    ("lp.pdhg_iters_per_s",
      ratio
        (Option.value ~default:0. (List.assoc_opt "lp.pdhg_iters" values))
        (Option.value ~default:0. (List.assoc_opt "lp.pdhg_iterate_s" values)))
    :: values
  in
  {
    metrics = with_units per_layer_metrics values;
    notes =
      [
        Printf.sprintf "untraced jobs-%d leg %.3f s, jobs-%d leg %.3f s, traced jobs-%d leg %.3f s"
          jobs wall_n other wall_o w.traced_jobs wall_t;
      ];
  }

type packed = {
  fixture : Fixture.t;
  measure : seconds:float -> Tally.t -> result;  (** tracing off *)
  trace : Tally.t -> result;
}

let pack (w : (_, _) t) : packed =
  {
    fixture = w.fixture;
    measure = (fun ~seconds tally -> end_to_end w ~seconds tally);
    trace = (fun tally -> traced w tally);
  }
