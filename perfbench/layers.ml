(* The traced run's spans, recorded only from the benchmark's own code
   around calls into the library. Spans nest; a layer's self time is its
   spans' durations minus the time covered by their child spans. Counts
   are recorded at the same boundaries. *)

type frame = { mutable children_s : float }

type t = {
  mutable stack : frame list;
  self : (string, float) Hashtbl.t;
  counts : (string, float) Hashtbl.t;
}

let create () = { stack = []; self = Hashtbl.create 32; counts = Hashtbl.create 32 }

let bump tbl key v =
  Hashtbl.replace tbl key (v +. Option.value ~default:0. (Hashtbl.find_opt tbl key))

let span t name f =
  let frame = { children_s = 0. } in
  t.stack <- frame :: t.stack;
  let t0 = Unix.gettimeofday () in
  Fun.protect
    ~finally:(fun () ->
      let d = Unix.gettimeofday () -. t0 in
      t.stack <- List.tl t.stack;
      (match t.stack with p :: _ -> p.children_s <- p.children_s +. d | [] -> ());
      bump t.self name (d -. frame.children_s))
    f

(* Attribute [seconds] that the library measured inside the innermost
   open span to layer [name], as if it were a child span. *)
let charge t name seconds =
  (match t.stack with p :: _ -> p.children_s <- p.children_s +. seconds | [] -> ());
  bump t.self name seconds

let count t name v = bump t.counts name v
let self_s t name = Option.value ~default:0. (Hashtbl.find_opt t.self name)
let counted t name = Option.value ~default:0. (Hashtbl.find_opt t.counts name)
