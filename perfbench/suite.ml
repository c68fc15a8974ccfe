(* The benchmark's workloads, by name. *)

let all =
  [
    (Sweep_web.name, Sweep_web.bench);
    (Serve_web.name, Serve_web.bench);
    (Scale_cdn.name, Scale_cdn.bench);
    (Deploy_group.name, Deploy_group.bench);
  ]
