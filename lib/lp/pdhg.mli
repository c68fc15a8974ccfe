(** First-order LP solver: preconditioned primal–dual hybrid gradient
    (Chambolle–Pock, with the diagonal preconditioning of Pock–Chambolle
    2011).

    This is the scalable replacement for CPLEX. It needs only sparse
    matrix–vector products per iteration, so MC-PERF instances with 10^5+
    variables are tractable. Because the {!Certificate} bound is valid at
    every iterate, the solver can stop on an iteration budget and still
    return a usable (merely looser) lower bound; the [best_bound] field is
    the maximum certified bound seen at any checkpoint. *)

type options = {
  max_iters : int;  (** hard iteration cap (default 20_000) *)
  check_every : int;  (** convergence/bound checkpoint period (default 50) *)
  rel_tol : float;  (** relative gap + infeasibility target (default 1e-6) *)
  restart_every : int;
      (** restart from the ergodic average every this many iterations
          (default 1_000; 0 disables). Restarting upgrades PDHG's
          sublinear tail to fast linear convergence on most LPs — the
          core trick of Google's PDLP. *)
  verbose : bool;  (** log checkpoint progress via [logs] *)
  deadline_s : float;
      (** wall-clock budget for one solve (default [infinity] = none).
          Checked at checkpoints only, so the precision is one
          [check_every] block; when it fires, the solve returns the best
          certified bound seen so far — still valid by weak duality, just
          looser. With the default the clock is never read and iterates
          are bit-identical to a build without this feature. *)
}

val default_options : options

(** Why a solve returned. Every reason yields a valid [best_bound];
    [Deadline] and [Budget] simply mean the bound may be loose. *)
type stop_reason =
  | Converged  (** met [rel_tol] *)
  | Deadline  (** [deadline_s] expired at a checkpoint *)
  | Budget  (** ran all [max_iters] iterations *)

val stop_label : stop_reason -> string

type outcome = {
  x : float array;  (** final primal iterate (approximately feasible) *)
  y : float array;  (** final dual iterate *)
  best_bound : float;  (** best certified lower bound over all checkpoints *)
  best_y : float array;  (** dual iterate achieving [best_bound] *)
  primal_objective : float;  (** c . x at the final iterate *)
  primal_infeasibility : float;  (** max constraint/bound violation of x *)
  iterations : int;
  converged : bool;  (** met [rel_tol] before the iteration cap *)
  stop : stop_reason;  (** why the solve returned ([converged] iff [Converged]) *)
  rel_gap : float;
      (** relative primal-dual gap estimate at exit:
          [|c.x - best_bound| / (1 + |c.x| + |best_bound|)]; [infinity]
          when no finite bound was certified *)
}

type prepared
(** A problem together with its solver-ready image: the Ge-normalized
    rows, the CSR/CSC constraint matrix, the rhs vector and the diagonal
    preconditioners. Building this is O(nnz); reusing it across solves of
    structurally identical problems (same coefficient arrays, possibly
    different rhs or objective) skips the rebuild entirely. *)

val prepare : ?reuse:prepared -> Problem.t -> prepared
(** [prepare ?reuse p] builds the solver image of [p]. When [reuse] is a
    prepared image of a structurally identical problem — same dimensions,
    same row kinds, the rows carry the {e physically} same coefficient
    arrays and the same bound arrays — the sparse matrix and the
    preconditioners are shared and only the rhs is re-read. This is the
    fast path for rhs-patched QoS-sweep models ({!Mcperf.Model}-style
    incremental updates) and for Lagrangian subproblems whose objective is
    rewritten in place between solves. Falls back to a full build when the
    structures do not match. Raises [Invalid_argument] unless every
    variable has finite lower and upper bounds. *)

val prepared_problem : prepared -> Problem.t
(** The Ge-normalized problem underlying the prepared image (the form on
    which {!Certificate.dual_bound} certificates are valid). *)

val solve_prepared : ?options:options -> prepared -> outcome
(** Run the solver on a prepared image. The per-iteration work is fused
    into four streams (primal step + extrapolation + averaging; A·x_bar;
    dual step + averaging; Aᵀ·y) instead of one pass per conceptual
    operation. *)

val solve : ?options:options -> Problem.t -> outcome
(** [solve p] normalizes [p] with {!Problem.normalize_ge} and runs PDHG
    from the lower-bound corner with a zero dual. Every variable must have finite
    lower and upper bounds (the MC-PERF builder guarantees this);
    otherwise [Invalid_argument] is raised. Equivalent to
    [solve_prepared (prepare p)]. *)

val solve_reference : ?options:options -> Problem.t -> outcome
(** The pre-fusion iteration — one pass per conceptual step — kept as the
    oracle for the differential tests. Produces the same iterates as
    {!solve} (bit-identical on finite data); it is only slower. *)
