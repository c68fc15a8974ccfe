(* Host-speed correction for the end-to-end timings.

   The benchmark runs on a few cores of a shared host, whose speed moves
   by up to 1.7x over tens of seconds as other tenants come and go. A
   fixed reference kernel, this file's own code and no library code, is
   timed between the measured calls, and every time a run measures is
   scaled by [reference_s] over the kernel's median time in that run. The
   result is the time the call would take on a host where the kernel
   takes [reference_s]: the host's drift cancels, and a change to the
   library moves the corrected time by the same factor as the raw one. *)

(* About the kernel's median time on the 2-vCPU VM the benchmark was
   tuned on (0.035-0.040 s there). *)
let reference_s = 0.04

(* Sorting, hashing, short-lived allocation and a streaming float sum:
   the kinds of work the library does. Its arrays live outside the OCaml
   heap, and what it allocates dies young, so it leaves the measured
   program's heap and its collector's pacing as it found them: kept on
   the heap, the same arrays moved serve-web's peak RSS from 55 MB to
   346 MB. *)
open Bigarray

type ints = (int, int_elt, c_layout) Array1.t

let ints n init : ints =
  let a = Array1.create int c_layout n in
  for i = 0 to n - 1 do
    a.{i} <- init i
  done;
  a

let source =
  lazy
    (let st = Random.State.make [| 42 |] in
     ints 100_000 (fun _ -> Random.State.bits st))

let scratch = lazy (ints 100_000 (fun _ -> 0))
let table = lazy (ints 32_768 (fun _ -> 0))

let floats =
  lazy
    (let a = Array1.create float64 c_layout 1_000_000 in
     for i = 0 to Array1.dim a - 1 do
       a.{i} <- float_of_int i
     done;
     a)

(* In-place heap sort, ascending. *)
let heap_sort (a : ints) =
  let swap i j =
    let x = a.{i} in
    a.{i} <- a.{j};
    a.{j} <- x
  in
  let rec sift i n =
    let l = (2 * i) + 1 in
    if l < n then begin
      let c = if l + 1 < n && a.{l + 1} > a.{l} then l + 1 else l in
      if a.{c} > a.{i} then begin
        swap i c;
        sift c n
      end
    end
  in
  let n = Array1.dim a in
  for i = (n / 2) - 1 downto 0 do
    sift i n
  done;
  for last = n - 1 downto 1 do
    swap 0 last;
    sift 0 last
  done

let kernel () =
  let src = Lazy.force source and a = Lazy.force scratch and h = Lazy.force table in
  Array1.blit src a;
  heap_sort a;
  Array1.fill h 0;
  let live = ref 0 in
  for i = 0 to Array1.dim src - 1 do
    let k = Hashtbl.hash src.{i} land 32_767 in
    h.{k} <- h.{k} + 1;
    live := !live + List.length (Sys.opaque_identity [ i; k; h.{k} ])
  done;
  let f = Lazy.force floats in
  let s = ref 0. in
  for _ = 1 to 5 do
    for i = 0 to Array1.dim f - 1 do
      s := !s +. f.{i}
    done
  done;
  a.{0} + !live + int_of_float !s

(* One timed run of the kernel, in seconds. *)
let sample () =
  let t0 = Unix.gettimeofday () in
  ignore (Sys.opaque_identity (kernel ()));
  Unix.gettimeofday () -. t0
