(** The content-addressed verdict store: one JSON document per {!Key}
    under a cache directory.

    No invalidation protocol exists or is needed — an edited netlist,
    property, budget or engine version hashes to a different key and
    misses.  Corrupt, unreadable or undecodable entries read as misses;
    writes are atomic (temp file + rename).

    Every lookup bumps [cache.hits] / [cache.misses] (and each write
    [cache.stores]) on the {!Symbad_obs.Obs} facade, and the same
    tallies are kept on the handle. *)

type t

val create : ?dir:string -> unit -> t
(** A handle on [dir] (default [$SYMBAD_CACHE_DIR] if set and
    non-empty, else ["_symbad_cache"] relative to the working
    directory).  Nothing touches the filesystem until the first
    {!store}. *)

val dir : t -> string

val find : t -> string -> (Symbad_obs.Json.t -> 'a option) -> 'a option
(** Look a key up and decode its entry; [None] (a miss) on absent,
    unreadable or unparseable entries and on those [decode] rejects.
    Only a decoded entry counts as a hit. *)

val store : t -> string -> Symbad_obs.Json.t -> unit
(** Write an entry.  Filesystem errors are swallowed — a cache that
    cannot persist degrades to a miss on the next run, never to a
    failure of the verification itself. *)

val hits : t -> int
val misses : t -> int
val stores : t -> int
