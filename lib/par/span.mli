(** Span sets: the compute index sets of the kernels.

    A span set is a sorted list of disjoint, non-empty half-open runs
    [\[lo, hi)] of non-negative indices, validated once when it is
    built.  The full range [\[0, n)] is the set with one span; a rank's
    owned cells, a runtime part or a fused tile are sets with a few
    hundred spans at most.  A kernel walks a set run by run with one
    straight loop per run, so an index set costs one loop header, not
    a load per element. *)

type t

(** The set with no spans. *)
val empty : t

(** [range lo hi] is [\[lo, hi)] as one span ([empty] when [lo = hi]).
    Raises [Invalid_argument] when [lo < 0] or [hi < lo]. *)
val range : int -> int -> t

(** [full n] is [range 0 n]. *)
val full : int -> t

(** [of_spans runs] validates and wraps explicit [(lo, hi)] runs.
    Raises [Invalid_argument] on a negative bound, an empty or inverted
    span ([hi <= lo]), or a span that starts before the previous one
    ends (unsorted or overlapping input).  Adjacent runs are kept as
    given. *)
val of_spans : (int * int) array -> t

(** [of_sorted idx] is the set of the strictly increasing,
    non-negative indices [idx], as maximal runs.  Raises
    [Invalid_argument] otherwise. *)
val of_sorted : int array -> t

(** [of_pred n p] is the set of [i] in [\[0, n)] with [p i], as
    maximal runs. *)
val of_pred : int -> (int -> bool) -> t

(** [filter p s] keeps the indices of [s] satisfying [p], as maximal
    runs. *)
val filter : (int -> bool) -> t -> t

(** Number of spans. *)
val spans : t -> int

(** [lo s k] and [hi s k] bound span [k], [0 <= k < spans s]. *)
val lo : t -> int -> int

val hi : t -> int -> int

(** Number of indices in the set. *)
val cardinal : t -> int

(** One past the largest index ([0] for the empty set): the set lies
    in [\[0, n)] exactly when [bound s <= n]. *)
val bound : t -> int

(** [within who s n] raises [Invalid_argument] (naming [who]) unless
    every index of [s] lies in [\[0, n)] — an O(1) check, since a span
    set is sorted and non-negative by construction. *)
val within : string -> t -> int -> unit

(** [iter f s] calls [f] on every index in increasing order. *)
val iter : (int -> unit) -> t -> unit

(** [iter_runs body s] calls [body ~lo ~hi] once per span. *)
val iter_runs : (lo:int -> hi:int -> unit) -> t -> unit

(** [runs ?chunk pool s body] hands [body] index runs covering [s]
    exactly once: span by span without a pool, in chunks of positions
    (at most [chunk] each) on one. *)
val runs :
  ?chunk:int -> Pool.t option -> t -> (lo:int -> hi:int -> unit) -> unit

val to_array : t -> int array
