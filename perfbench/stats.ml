(* Order statistics for the benchmark's timing samples. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median xs =
  match sorted xs with
  | [||] -> nan
  | a ->
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* [per_index_medians rows]: the median of each column, over rows cut to
   the shortest row's length. *)
let per_index_medians rows =
  match rows with
  | [] -> []
  | _ ->
    let n = List.fold_left (fun acc r -> min acc (List.length r)) max_int rows in
    List.init n (fun i -> median (List.map (fun r -> List.nth r i) rows))

let maximum xs = List.fold_left Float.max neg_infinity xs

let mean = function
  | [] -> nan
  | xs -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

(* Candidate tail percentiles, highest first. *)
let ladder = [ 99.9; 99.; 95.; 90.; 75. ]

(* Samples strictly beyond the nearest-rank [p]-th percentile of [n]. *)
let beyond ~n p =
  n - int_of_float (Float.ceil (p /. 100. *. float_of_int n))

type summary = {
  count : int;
  p50 : float;
  tail : (float * float) option;
      (** [(p, value)]: the highest percentile of {!ladder} with at least
          ten samples beyond it; [None] when the sample is too small *)
}

let summarize xs =
  let a = sorted xs in
  let n = Array.length a in
  let tail =
    List.find_opt (fun p -> beyond ~n p >= 10) ladder
    |> Option.map (fun p ->
           let rank = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
           (p, a.(rank - 1)))
  in
  { count = n; p50 = median xs; tail }

let summary_to_string ~unit s =
  match s.tail with
  | None -> Printf.sprintf "p50 %.4g %s (n=%d)" s.p50 unit s.count
  | Some (p, v) ->
    Printf.sprintf "p50 %.4g %s, p%g %.4g %s (n=%d)" s.p50 unit p v unit
      s.count
