(* Seed-driven inputs. Each workload's fixture is a fixed library
   instance; the benchmark seed draws a permutation of its object ids and
   the library receives the relabelled trace and demand. Every bound,
   cost and solver trajectory is invariant under renaming objects (up to
   floating-point summation order), so runs with different seeds measure
   the same work on different inputs. Seed 0 is the identity. *)

let permutation ~seed n =
  let p = Array.init n Fun.id in
  if seed <> 0 then begin
    let st = Random.State.make [| seed; n |] in
    for i = n - 1 downto 1 do
      let j = Random.State.int st (i + 1) in
      let x = p.(i) in
      p.(i) <- p.(j);
      p.(j) <- x
    done
  end;
  p

let inverse p =
  let inv = Array.make (Array.length p) 0 in
  Array.iteri (fun o o' -> inv.(o') <- o) p;
  inv

(* [p.(o)] is the new id of object [o]. *)
let trace p t =
  let n = Workload.Trace.length t in
  Workload.Trace.create_unsafe
    ~nodes:(Workload.Trace.node_count t)
    ~objects:(Workload.Trace.object_count t)
    ~duration_s:(Workload.Trace.duration_s t)
    ~times:(Array.init n (Workload.Trace.time t))
    ~event_nodes:(Array.init n (Workload.Trace.node t))
    ~event_objects:(Array.init n (fun i -> p.(Workload.Trace.object_id t i)))
    ~kinds:(Array.init n (Workload.Trace.kind t))

let demand p (d : Workload.Demand.t) =
  let inv = inverse p in
  let moved a = Array.init d.objects (fun o' -> a.(inv.(o'))) in
  Workload.Demand.create ~nodes:d.nodes ~intervals:d.intervals
    ~interval_s:d.interval_s ~weight:(moved d.weight) ~writes:(moved d.writes)
    ~reads:(moved d.reads) ()
