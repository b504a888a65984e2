(** A Domain-based work pool for the embarrassingly parallel
    verification fan-outs (PCC fault injection, ATPG population scoring,
    BMC bound portfolios, architecture sweeps).

    Design contract: {e parallelism never changes results}.  [map]
    chunks its input, fans the chunks out to the pool and reassembles
    the results in input order, so [map pool f xs] equals
    [List.map f xs] for any pure [f] at any pool width — a [jobs = 1]
    pool runs the very same queue/drain code with zero worker domains.
    Exceptions raised inside jobs are captured and re-raised on the
    calling domain (first failing chunk in input order wins).

    Telemetry: every parallel section is a dispatch span
    ["<label>.dispatch"] on the ["par"] track, with [par.jobs_dispatched]
    counting chunks and [par.queue_wait_us] a histogram of chunk
    queue-wait times.  When telemetry is on, each chunk runs under a
    fresh tracer and registry ([Obs.with_recorder]) in a job span named
    [label]; they are absorbed back in chunk-index order at the fan-in,
    parented to the dispatch span and placed on per-lane tracks
    (["lane0"] is the calling domain) — worker emissions are never lost,
    and because chunk counts and merge order are width-independent the
    merged metrics are byte-identical at any [--jobs].  See
    [docs/OBSERVABILITY.md]. *)

type pool

val create : ?jobs:int -> unit -> pool
(** A pool of [jobs] lanes: the calling domain plus [jobs - 1] worker
    domains ([jobs] defaults to [$SYMBAD_JOBS] when set to a positive
    integer, else [Domain.recommended_domain_count ()]; values below 1
    are clamped to 1). *)

val jobs : pool -> int

val shutdown : pool -> unit
(** Join the worker domains.  Idempotent; subsequent [map] calls raise
    [Invalid_argument]. *)

val with_pool : ?jobs:int -> (pool -> 'a) -> 'a
(** [create], run, [shutdown] (also on exception). *)

val get : pool option -> pool
(** [get (Some p)] is [p]; [get None] is the shared one-lane pool (the
    same code path with no worker domains, never shut down). *)

val current_lane : unit -> int
(** The pool lane the calling domain is: [0] for a dispatching domain,
    [1 .. jobs - 1] on workers.  Names the ["lane<k>"] trace tracks. *)

(** {1 Deterministic fan-out} *)

val map :
  ?label:string ->
  ?progress:(completed:int -> total:int -> unit) ->
  pool ->
  ('a -> 'b) ->
  'a list ->
  'b list
(** [map pool f xs = List.map f xs] for pure [f], computed on up to
    [jobs pool] domains.  [label] names the telemetry spans; [progress]
    is invoked on the {e calling} domain as chunks complete (counts in
    chunks), the safe place to emit progress events from. *)

(** {1 Seed splitting} *)

val split_seed : seed:int -> int -> int
(** [split_seed ~seed i] is a statistically independent, non-zero seed
    for lane [i], via a splitmix64-style hash.  Depends only on
    [(seed, i)] — never on the pool width — so seeded parallel runs
    reproduce seeded sequential runs exactly. *)
