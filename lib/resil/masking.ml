(* The formal side of the masked operating mode.

   The TMR voter the platform relies on ([Symbad_hdl.Tmr]) is itself new
   hardening logic, and the methodology demands it be verified like any
   other block: the model checker discharges the masking contract
   (a single corrupted copy never changes the voted output; full
   agreement raises no flag; a lone dissenter raises exactly its own
   flag — the targeted-repair signal), and the lock-step invariant of a
   triplicated datapath (the three register banks never diverge, so the
   disagreement outputs are silent in the absence of faults). *)

module Tmr = Symbad_hdl.Tmr
module Prop = Symbad_mc.Prop
module Engine = Symbad_mc.Engine

let voter_properties nl =
  List.map
    (fun (name, formula) -> Prop.validate nl (Prop.make ~name formula))
    (Tmr.voter_properties ())

(* Prove the voter's masking contract on 8-bit words. *)
let check_voter () =
  let nl = Tmr.voter ~width:8 () in
  Engine.check_all nl (voter_properties nl)

(* Prove the lock-step invariant of a triplicated datapath: closed by
   1-induction (equal register banks under shared inputs step to equal
   register banks). *)
let check_triplicated nl =
  let tmr = Tmr.triplicate nl in
  let props =
    List.map
      (fun (name, formula) -> Prop.validate tmr (Prop.make ~name formula))
      (Tmr.triplication_properties nl)
  in
  Engine.check_all tmr props
