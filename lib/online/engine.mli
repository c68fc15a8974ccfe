(** Epoch-driven online placement service.

    The engine consumes a workload as a stream of continuation chunks
    ({!Workload.Trace.sub} slices with absolute times, one per epoch),
    folds each chunk into an incremental cumulative state
    ({!Workload.Incremental} + {!Workload.Trace.extend}), and per epoch:

    + asks every registered {!Heuristics.Strategy.factory} for its
      minimal goal-meeting deployment over everything observed so far
      (the same minimal-parameter search {!Sim.Runner.deploy} runs
      offline);
    + solves one class lower bound per distinct heuristic class with
      {!Bounds.Pipeline.compute} on the cumulative demand — the same
      bound the offline methodology reports for (class, goal, workload),
      whatever epochs the trace arrived in;
    + reports decisions with per-epoch regret — deployed cost minus the
      class bound. The bound is certified (weak duality), so regret is
      nonnegative for every feasible decision.

    Determinism: the strategy searches and then the class bound solves
    each fan out over an order-preserving worker pool
    ({!Util.Parallel.map_values}, also at [jobs = 1], whose sequential
    path opens the same per-task trace scopes), and every task is a pure
    function of its inputs. So the epoch reports and the logical trace
    are byte-identical at every [jobs]. *)

type config = {
  system : Topology.System.t;
  interval_s : float;  (** evaluation-interval (bucket) width, seconds *)
  epoch_intervals : int;  (** intervals ingested per epoch *)
  costs : Mcperf.Spec.costs;
  goal : Mcperf.Spec.goal;
  placeable : bool array option;  (** deployment restriction, or all nodes *)
  strategies : (string * Heuristics.Strategy.factory) list;
  solver : Bounds.Pipeline.solver;
  jobs : int;
      (** worker processes for the per-epoch strategy searches and class
          bound solves *)
}

val default_strategies : (string * Heuristics.Strategy.factory) list
(** One representative per major class: greedy-global, greedy-replica,
    proportional, lru-caching, cooperative-caching. *)

val default :
  ?placeable:bool array ->
  ?costs:Mcperf.Spec.costs ->
  system:Topology.System.t ->
  interval_s:float ->
  epoch_intervals:int ->
  goal:Mcperf.Spec.goal ->
  unit ->
  config
(** Config with {!default_strategies}, [Auto] solver, [jobs = 1]. Raises
    [Invalid_argument] unless [epoch_intervals > 0] and [interval_s] is
    finite and positive. *)

type decision = {
  strategy : string;
  class_name : string;
  parameter : int option;  (** [None]: no parameter meets the goal *)
  cost : float option;  (** deployed (provisioned) cost at [parameter] *)
  worst_qos : float option;
  bound : float option;  (** class lower bound, when the class is feasible *)
  regret : float option;  (** [cost - bound]; [>= 0] whenever present *)
}

type epoch = {
  index : int;
  intervals : int;  (** cumulative intervals after this epoch's chunk *)
  chunk_events : int;
  total_events : int;
  working_set : int;  (** objects read within the last epoch's intervals *)
  bounds : (string * Bounds.Pipeline.t) list;  (** keyed by class name *)
  decisions : decision list;  (** one per configured strategy, in order *)
  search_s : float;  (** wall time of the strategy searches *)
  solve_s : float;  (** wall time of the bound re-solves *)
}

type t
(** A running engine: cumulative workload state and the epochs so far. *)

val create : config -> t
(** Raises [Invalid_argument] on the same [epoch_intervals] and
    [interval_s] values {!default} rejects, on [jobs < 1] and on an empty
    strategy list. *)

val feed : t -> Workload.Trace.t -> epoch
(** Ingest one continuation chunk and run the epoch. Epochs whose
    cumulative demand still has zero reads are warm-up epochs: reported
    with no bounds and no decisions. A strategy search or class solve
    that raises surfaces as {!Util.Parallel.Task_failed}; the epoch's
    trace span is closed either way. Raises on misaligned chunks (see
    {!Workload.Demand.extend}) and once the cumulative horizon exceeds
    the model's interval limit ({!Mcperf.Spec.make}). *)

val epochs : t -> epoch list
(** All epochs so far, oldest first. *)

val warm_lifts : t -> int
(** Always 0: every epoch solves its class bounds from scratch. Kept only
    because the benchmark's [serve-web] workload still reads it; delete
    it with the next benchmark change (ROADMAP item 7). *)

val bound_solves : t -> int
(** Class bounds solved so far, summed over {!epochs}. *)

val chunks :
  interval_s:float ->
  epoch_intervals:int ->
  Workload.Trace.t ->
  Workload.Trace.t list
(** Slice a replay trace into per-epoch continuation chunks by bucket
    index, using the same arithmetic as {!Workload.Demand.of_trace} on
    the whole trace — so feeding the chunks reproduces the offline
    demand exactly, for any epoch size. The last chunk may cover fewer
    than [epoch_intervals] intervals. *)

val run : config -> trace:Workload.Trace.t -> t * epoch list
(** [create] + [chunks] + [feed] over the whole stream. *)
