(** Worker side of the distributed sweep backend.

    A worker process binds a TCP listener and forks one {e session}
    child per coordinator connection. The session performs the
    {!Wire.hello} handshake — adopting the coordinator's observability
    config, pool phase, and fault spec, in that order — resolves the
    task function through {!Registry}, and then answers [Task] frames
    with [Result] frames by running each body under
    {!Util.Parallel.run_task}, so a task behaves identically whichever
    transport delivered it (injected crash faults included: the session
    child dies, the listener survives, the coordinator reconnects).

    Failure model: a corrupt frame, EOF, protocol violation, or
    [Shutdown] ends the session child; the listener itself only dies
    with the host. SIGCHLD is ignored (kernel reaps sessions) and
    SIGPIPE is ignored (a dead coordinator surfaces as a socket error,
    tearing down just that session). *)

val serve : ?host:string -> port:int -> unit -> 'a
(** [serve ~port ()] binds [host:port] (default host [127.0.0.1]),
    prints a banner to stderr, and accepts coordinators forever; it
    never returns. [port = 0] binds an ephemeral port (the banner shows
    the actual one). *)

val bind_listener : ?host:string -> port:int -> unit -> Unix.file_descr
(** Bound, listening socket without the accept loop. Tests bind in the
    parent (learning the ephemeral port via {!bound_port}), then fork a
    child that runs {!accept_loop} on the inherited descriptor. *)

val bound_port : Unix.file_descr -> int
(** Actual port of a bound listener ([port = 0] resolves here). *)

val accept_loop : Unix.file_descr -> 'a
(** Accept coordinators on an already-bound listener forever; installs
    the SIGCHLD/SIGPIPE dispositions described above. Never returns. *)

val session : Unix.file_descr -> unit
(** One coordinator session on an accepted connection (exposed for
    tests; {!accept_loop} runs it in a forked child). Returns when the
    session ends; never raises. *)
