(** One counter record for every cache layer.

    The OS file cache, the buffer pool, the segment-frame cache and the
    frontend's query-result cache all answer the same questions — how
    often were you asked, how often did you have the answer, what did
    you throw away, what are you holding — so they report through one
    record.  {!Lru} keeps it for every tier but the buffer pool, which
    keeps its own.  A {e reference} is one probe, a {e hit} one probe
    answered from residency, an {e eviction} a capacity-driven removal,
    an {e invalidation} a correctness-driven one (epoch turnover,
    relocation, explicit drop).  Residency is a point-in-time gauge;
    the counters are monotone until reset. *)

type t = {
  refs : int;
  hits : int;
  evictions : int;
  invalidations : int;
  resident_bytes : int;
  resident_entries : int;
}

val zero : t

val add : t -> t -> t
(** Component-wise sum. *)

val merge : t list -> t
(** Fold of {!add} over [zero] — one Table-6-style report from
    per-domain or per-layer sessions.  [merge []] is {!zero}. *)

val misses : t -> int
(** [refs - hits]. *)

val hit_rate : t -> float
(** [hits / refs]; [0.0] when never referenced. *)

val pp : Format.formatter -> t -> unit
