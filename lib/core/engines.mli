(** The governed engine drivers that produce a {!Verdict.t} directly.

    {[ ?gov ?pool ~seed () -> Verdict.t ]}

    [gov] is the resource governor (omitted = unlimited budget), [pool]
    reuses the caller's worker domains (omitted = sequential) and [seed]
    drives the stochastic search.  Verdicts are identical at any pool
    width.  The other engines report through their own libraries and the
    {!Verdict} adapters: {!Level4} runs lint, model checking and PCC per
    RTL module, and [Symbad_resil.Campaign.verdict] consolidates a fault
    campaign. *)

val atpg :
  ?gov:Symbad_gov.Gov.t ->
  ?pool:Symbad_par.Par.pool ->
  seed:int ->
  unit ->
  Verdict.t
(** Laerte++-style genetic test generation over the behavioural
    hot-spot models: [Coverage] over the point universe (gate 85%),
    degrading under an exhausted governor to [Inconclusive] with the
    partial coverage; granted retries re-dispatch re-seeded (the
    portfolio retry).  This is the engine the level-1 flow step runs. *)
