(* Output checks. A failed check is counted, never raised, so one bad
   output shows as [failed_frac] instead of aborting the run. *)

type t = {
  mutable attempted : int;
  mutable failed : int;
  mutable failures : string list;  (** newest first *)
}

let create () = { attempted = 0; failed = 0; failures = [] }

let check t ok fmt =
  Printf.ksprintf
    (fun msg ->
      t.attempted <- t.attempted + 1;
      if not ok then begin
        t.failed <- t.failed + 1;
        t.failures <- msg :: t.failures
      end)
    fmt

(* Run a check body; an exception counts as one failed check. *)
let guard t name f =
  try f ()
  with e -> check t false "%s raised %s" name (Printexc.to_string e)

let failed_frac t =
  if t.attempted = 0 then 0. else float_of_int t.failed /. float_of_int t.attempted
