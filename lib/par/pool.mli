(** A fixed-size domain pool with deterministic batch semantics.

    OCaml 5 gives us one systhread-free unit of parallelism per [Domain];
    this pool owns [domains - 1] worker domains (the caller is the last
    participant) and runs batches of independent tasks on them.  It is
    built directly on [Domain]/[Mutex]/[Condition] — no external
    dependencies — and designed for deterministic callers (the image and
    DSP kernels): results always come back in task-index order, chunk
    merges happen in ascending chunk order, and the lowest-indexed
    exception wins, so a program that treats the pool as a black box
    cannot observe how work was interleaved.

    A pool is owned by one orchestrating domain: batches are issued one
    at a time ([run] is not reentrant — a task must not submit to the
    pool it runs on).  Worker domains idle on a condition variable
    between batches and are joined by {!shutdown}. *)

type t

val create : domains:int -> t
(** A pool with total parallelism [domains]: [domains - 1] worker domains
    are spawned immediately; the caller participates in every batch, so
    [create ~domains:1] spawns nothing and runs every batch inline.
    @raise Invalid_argument when [domains < 1]. *)

val domains : t -> int
(** The configured total parallelism (not the spawned worker count). *)

val recommended : unit -> int
(** [Domain.recommended_domain_count ()] — what the machine can actually
    run in parallel.  Exposed for benchmarks. *)

val run : t -> (unit -> 'a) array -> 'a array
(** Execute one batch.  Every task is attempted exactly once (tasks after
    a failing one still run); results are returned in task-index order.
    If any task raised, the exception of the {e lowest-indexed} failing
    task is re-raised once the whole batch has finished — workers never
    hold unfinished tasks and no domain is leaked, whatever the tasks do.
    Tasks run concurrently on up to [domains] domains (including the
    calling one); a single-task batch, a 1-domain pool, or a pool that
    was already {!shutdown} runs inline on the caller.
    @raise Invalid_argument when called from inside one of its own
    tasks (the pool is not reentrant). *)

val parallel_for : ?chunk:int -> t -> lo:int -> hi:int -> (int -> unit) -> unit
(** [parallel_for pool ~lo ~hi body] runs [body i] for every
    [lo <= i < hi], split into contiguous index chunks executed as one
    {!run} batch.  [chunk] is the maximum chunk length (default: enough
    chunks to give each domain about four).  Iterations must be
    independent; within a chunk they run in ascending order.
    @raise Invalid_argument when [chunk < 1]. *)

val parallel_for_reduce :
  ?chunk:int ->
  t ->
  lo:int ->
  hi:int ->
  init:'acc ->
  body:('acc -> int -> 'acc) ->
  merge:('acc -> 'acc -> 'acc) ->
  'acc
(** Chunked fold: each contiguous chunk is folded with [body] starting
    from [init], and the per-chunk partials are combined with [merge] in
    {e ascending chunk order} — deterministic for a given [(lo, hi,
    chunk)] regardless of domain count or scheduling.  Equals the
    sequential [fold_left] whenever [init] is an identity for [merge]
    and [merge] is associative (e.g. sums, maxima, list concatenation).
    @raise Invalid_argument when [chunk < 1]. *)

val shutdown : t -> unit
(** Signal the workers to exit and join them all.  Idempotent.  The pool
    remains usable afterwards, degraded to inline execution. *)
