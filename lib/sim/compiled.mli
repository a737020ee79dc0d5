(** Support for the engine's compiled static-schedule backend.

    A consistent graph × mode scenario admits a static schedule (PAPER
    §III-D).  Under the uniform firing durations the default behaviours
    use, the engine's ASAP execution proceeds in rounds, and the round
    executor in {!Engine} replays the event heap's exact (time, seq) pop
    order with two flat FIFOs — no heap, no per-event allocation.  See
    DESIGN.md §8 for when the backend engages, the runtime uniformity
    guard, and the deoptimisation path back to the interpreter. *)

val firing_counts :
  Tpdf_csdf.Concrete.t -> iterations:int -> string list -> (string * int) list
(** The static firing plan: each listed actor fires
    [iterations × q(actor)] times on a completed run — what the compiled
    backend's observed counts must equal (and the event engine's too). *)

(** Flat FIFO of pending completions in parallel arrays (unboxed
    timestamps and sequence numbers, payload slots for the delivered
    outputs and the firing record).  A push allocates nothing; the
    engine's round executor reads and drops the head through the
    exposed fields, to avoid boxing a tuple per event. *)
module Fifo : sig
  type ('u, 'v) t = {
    dummy_u : 'u;
    dummy_v : 'v;
    mutable times : float array;
    mutable seqs : int array;
    mutable ais : int array;
    mutable us : 'u array;
    mutable vs : 'v array;
    mutable head : int;  (** index of the oldest entry *)
    mutable len : int;
  }
  (** The representation is exposed so the engine's compiled hot loop can
      read and drop the head without a cross-module call per field; a
      dropped head's payload slots are reset to the dummies.  Invariant:
      the [len] live entries start at [head] and wrap around the parallel
      arrays, which always share one capacity. *)

  val create : ?capacity:int -> dummy_u:'u -> dummy_v:'v -> unit -> ('u, 'v) t
  val push : ('u, 'v) t -> time:float -> seq:int -> ai:int -> 'u -> 'v -> unit

  val entries : ('u, 'v) t -> (float * int * int * 'u * 'v) list
  (** Pending entries oldest-first: [(time, seq, actor, outputs, record)],
      for handing back to the event heap on deopt or an early stop. *)
end
