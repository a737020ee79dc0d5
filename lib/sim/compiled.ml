(* Support for the engine's compiled static-schedule backend.

   A consistent TPDF graph × mode scenario admits a static schedule
   (PAPER §III-D): per iteration every actor fires exactly its
   repetition-vector count, and with the uniform firing durations the
   default behaviours use, the ASAP execution the event engine computes
   degenerates into *rounds* — all firings started at time T complete
   together at T + d, enabling the next wave.  The engine exploits this:
   instead of a binary heap ordered by (time, seq) it keeps two flat
   FIFOs of pending completions (the current round and the next), which
   replicate the heap's pop order exactly — entries within a round share
   their timestamp and FIFO order is seq order — at O(1) per event, with
   zero allocation.  The uniformity assumption is checked at run time;
   the first non-uniform duration hands the pending entries (original
   timestamps and sequence numbers intact) back to the event heap and
   the run continues under the interpreter, byte-identically.

   This module provides the allocation-free pending-completion FIFO the
   round executor runs on, and the repetition-vector firing plan the
   backend's firing counts are checked against (test_engine_equiv's
   qcheck).  The executor itself lives in [Engine] — it is an execution
   mode of the engine's state, not a separate machine. *)

module Csdf = Tpdf_csdf

(* The static firing plan of a consistent graph: per-iteration counts are
   the repetition vector, so [iterations] iterations fire each actor
   [iterations × q] times.  This is what the compiled backend's observed
   firing counts must equal on a completed run (clock actors excepted —
   they are unbounded and force the event engine anyway). *)
let firing_counts conc ~iterations actors =
  List.map (fun a -> (a, iterations * Csdf.Concrete.q conc a)) actors

(* Flat FIFO of pending completions in parallel arrays: timestamps and
   sequence numbers stay unboxed, payloads ('u = delivered outputs,
   'v = the firing record) sit in their own slots, so a push and a pop
   allocate nothing.  The engine reads and drops the head by field —
   returning a tuple would box one per event, which is the cost this
   replaces. *)
module Fifo = struct
  type ('u, 'v) t = {
    dummy_u : 'u;
    dummy_v : 'v;
    mutable times : float array;
    mutable seqs : int array;
    mutable ais : int array;
    mutable us : 'u array;
    mutable vs : 'v array;
    mutable head : int;
    mutable len : int;
  }

  let create ?(capacity = 64) ~dummy_u ~dummy_v () =
    let capacity = max capacity 1 in
    {
      dummy_u;
      dummy_v;
      times = Array.make capacity 0.0;
      seqs = Array.make capacity 0;
      ais = Array.make capacity 0;
      us = Array.make capacity dummy_u;
      vs = Array.make capacity dummy_v;
      head = 0;
      len = 0;
    }

  (* Copy the ring's logical contents (unrolled, oldest first) into a
     fresh backing array.  Top-level so it stays polymorphic across the
     five parallel arrays. *)
  let unroll ~head ~len src dst =
    let cap = Array.length src in
    let tail = cap - head in
    Array.blit src head dst 0 (min len tail);
    if len > tail then Array.blit src 0 dst tail (len - tail)

  let grow t =
    let cap = Array.length t.times in
    let cap' = 2 * cap in
    let swap mk old =
      let dst = mk cap' in
      unroll ~head:t.head ~len:t.len old dst;
      dst
    in
    t.times <- swap (fun c -> Array.make c 0.0) t.times;
    t.seqs <- swap (fun c -> Array.make c 0) t.seqs;
    t.ais <- swap (fun c -> Array.make c 0) t.ais;
    t.us <- swap (fun c -> Array.make c t.dummy_u) t.us;
    t.vs <- swap (fun c -> Array.make c t.dummy_v) t.vs;
    t.head <- 0

  let push t ~time ~seq ~ai u v =
    if t.len = Array.length t.times then grow t;
    let cap = Array.length t.times in
    let i = t.head + t.len in
    let i = if i >= cap then i - cap else i in
    t.times.(i) <- time;
    t.seqs.(i) <- seq;
    t.ais.(i) <- ai;
    t.us.(i) <- u;
    t.vs.(i) <- v;
    t.len <- t.len + 1

  (* Pending entries oldest-first, for handing back to the event heap on
     deoptimisation or an early stop (until_ms / event budget). *)
  let entries t =
    let out = ref [] in
    let cap = Array.length t.times in
    for k = t.len - 1 downto 0 do
      let i = t.head + k in
      let i = if i >= cap then i - cap else i in
      out := (t.times.(i), t.seqs.(i), t.ais.(i), t.us.(i), t.vs.(i)) :: !out
    done;
    !out
end
