(* Content-addressed cache keys.

   A key is the MD5 of everything a verdict depends on: the digest of
   the library sources that produced it ({!Build_digest}), the netlist,
   the properties, the budget class and the escalation flag.  They are
   marshalled without sharing, so equal values give equal bytes however
   they were built.  Editing any of them, or any code under lib/,
   changes the key, so a stale verdict can never be replayed; a changed
   marshal format can only cause misses. *)

let make ~netlist ~props ~(budget : Symbad_gov.Budget.t) ~escalate =
  (* the deadline instant is wall-clock state: only its presence is
     part of the budget class *)
  let budget =
    { budget with deadline = Option.map (fun _ -> 0.) budget.deadline }
  in
  Marshal.to_string
    (Build_digest.digest, netlist, props, budget, escalate)
    [ Marshal.No_sharing ]
  |> Digest.string |> Digest.to_hex
