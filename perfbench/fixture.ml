(* A workload's configuration as one value. The runners read every
   library argument from here, and the fixture string printed with the
   results is rendered from the same value, so the two cannot drift. *)

type param =
  | Int of int
  | Ints of int list
  | Float of float
  | Floats of float list
  | Names of string list

type t = {
  workload : string;
  params : (string * param) list;  (** library arguments, in print order *)
  jobs : int;  (** worker processes handed to the library *)
  cores : int;  (** cores detected on the measuring machine *)
  seed : int;  (** the benchmark seed the inputs were made from *)
}

let get what pick t key =
  match List.assoc_opt key t.params with
  | None -> invalid_arg (Printf.sprintf "fixture %s: no %S" t.workload key)
  | Some v -> (
    match pick v with
    | Some x -> x
    | None -> invalid_arg (Printf.sprintf "fixture %s: %S is not %s" t.workload key what))

let int = get "an int" (function Int i -> Some i | _ -> None)
let ints = get "an int list" (function Ints l -> Some l | _ -> None)
let float = get "a float" (function Float f -> Some f | _ -> None)
let floats = get "a float list" (function Floats l -> Some l | _ -> None)
let names = get "a name list" (function Names l -> Some l | _ -> None)

(* Shortest decimal that reads back as the same float, with a '.' or an
   exponent so that it never reads back as an int. *)
let float_to_string f =
  let rec go p =
    let s = Printf.sprintf "%.*g" p f in
    if p >= 17 || float_of_string s = f then s else go (p + 1)
  in
  let s = go 15 in
  if String.exists (fun c -> c = '.' || c = 'e' || c = 'n' || c = 'i') s then s
  else s ^ "."

(* A list always carries its separator (a one-element list ends in one),
   so the parser can tell it from a scalar: '*' joins ints, '/' floats
   and '+' names. *)
let param_to_string = function
  | Int i -> string_of_int i
  | Ints [ i ] -> string_of_int i ^ "*"
  | Ints l -> String.concat "*" (List.map string_of_int l)
  | Float f -> float_to_string f
  | Floats [ f ] -> float_to_string f ^ "/"
  | Floats l -> String.concat "/" (List.map float_to_string l)
  | Names l -> String.concat "+" l

let to_string t =
  let fields =
    List.map (fun (k, v) -> (k, param_to_string v)) t.params
    @ [
        ("jobs", string_of_int t.jobs);
        ("cores", string_of_int t.cores);
        ("seed", string_of_int t.seed);
      ]
  in
  t.workload ^ ":"
  ^ String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ v) fields)

let split sep s = String.split_on_char sep s |> List.filter (fun x -> x <> "")

let param_of_string s =
  if String.contains s '*' then Ints (List.map int_of_string (split '*' s))
  else if String.contains s '/' then
    Floats (List.map float_of_string (split '/' s))
  else
    match int_of_string_opt s with
    | Some i -> Int i
    | None -> (
      match float_of_string_opt s with
      | Some f -> Float f
      | None -> Names (String.split_on_char '+' s))

exception Malformed of string

let of_string s =
  let fail fmt = Printf.ksprintf (fun m -> raise (Malformed m)) fmt in
  let cut s i = (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1)) in
  try
    let workload, body =
      match String.index_opt s ':' with
      | Some i -> cut s i
      | None -> fail "missing workload name"
    in
    let pairs =
      List.map
        (fun kv ->
          match String.index_opt kv '=' with
          | Some j -> cut kv j
          | None -> fail "malformed field %S" kv)
        (split ',' body)
    in
    let take k =
      match Option.bind (List.assoc_opt k pairs) int_of_string_opt with
      | Some v -> v
      | None -> fail "missing %s" k
    in
    let jobs = take "jobs" and cores = take "cores" and seed = take "seed" in
    let params =
      List.filter_map
        (fun (k, v) ->
          if List.mem k [ "jobs"; "cores"; "seed" ] then None
          else Some (k, param_of_string v))
        pairs
    in
    Ok { workload; params; jobs; cores; seed }
  with Malformed m | Failure m -> Error m
