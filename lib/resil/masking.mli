(** Model-checked masking properties of the TMR voter.

    The masked operating mode stands on the majority voter
    ([Symbad_hdl.Tmr]); this module is the voter's formal certificate,
    discharged by [Symbad_mc.Engine] like every other verified block:

    - {e masking}: a single corrupted copy never changes the voted
      output;
    - {e no false alarm}: full agreement raises no disagreement flag;
    - {e exact diagnosis}: a lone dissenter raises exactly its own flag
      — the signal the targeted repair steers by;
    - {e lock-step}: a triplicated datapath's register banks never
      diverge without a fault (1-inductive). *)

val check_voter : unit -> Symbad_mc.Engine.report list
(** Prove the voter's masking contract on 8-bit words. *)

val check_triplicated : Symbad_hdl.Netlist.t -> Symbad_mc.Engine.report list
(** Triplicate the given datapath and prove its lock-step invariant. *)
