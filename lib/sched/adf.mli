(** Actor Dependence Function (ref. \[8\] of the paper).

    The ADF gives, for the n-th firing of a consumer on a channel, the
    producer firing it depends on: the least m such that the initial tokens
    plus the production of the first m producer firings cover the
    consumption of the first n+1 consumer firings.  It drives both the
    canonical-period expansion (§III-D) and the suppression of unnecessary
    firings when a mode rejects an input. *)

val producer :
  Tpdf_csdf.Concrete.t -> channel:int -> consumer_index:int -> (int * int) option
(** [producer conc ~channel ~consumer_index:n] is [Some (m, d)] when, in
    every iteration, the n-th (0-based) firing of the consumer needs the
    m-th firing of the producer [d] iterations earlier: [d = 0] is the same
    iteration, and [d > 0] means the initial tokens cover this need in the
    first [d] iterations.  [None] when the producer emits nothing per
    iteration, so that only initial tokens ever feed this firing.  For a
    consumer firing of one iteration, [0 <= m < q] of the producer.
    @raise Not_found on a bad channel id. *)

val producer_firing :
  Tpdf_csdf.Concrete.t -> channel:int -> consumer_index:int -> int option
(** [producer_firing conc ~channel ~consumer_index:n] is [Some m] when the
    n-th (0-based) firing of the consumer needs the producer's m-th firing
    to have completed, [None] when initial tokens alone suffice.
    @raise Not_found on a bad channel id. *)

val consumer_deps :
  Tpdf_csdf.Concrete.t -> channel:int -> consumer_count:int -> (int * int) list
(** All dependencies [(n, m)] for consumer firings [0 … consumer_count-1],
    omitting firings satisfied by initial tokens. *)
