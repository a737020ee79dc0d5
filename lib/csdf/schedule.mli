(** Sequential schedule construction, liveness, and occupancy traces.

    Liveness of a consistent (C)SDF graph is decided by constructing a
    schedule for one basic iteration (§III-C): data-driven execution is
    confluent, so {e any} maximal firing order either completes the
    iteration (live) or stalls (deadlock) independently of the choices
    made.  The policy only changes {e which} schedule is found:

    - [Eager] fires the first enabled actor in declaration order;
    - [Late_first] prefers the enabled actor with the most remaining
      firings, which reproduces the {e late schedules} of the paper's
      reference [8] (e.g. [B C C B] for the cycle of Fig. 4(b));
    - [Min_buffer] greedily fires the enabled actor whose firing minimizes
      total channel occupancy, a standard heuristic for buffer-efficient
      single-processor schedules. *)

type policy = Walk.policy = Eager | Late_first | Min_buffer

type firing = Walk.firing = {
  actor : string;
  phase : int;  (** phase executed, [index mod τ] *)
  index : int;  (** 0-based firing count of this actor *)
}

type trace = {
  firings : firing list;  (** in execution order *)
  max_occupancy : (int * int) list;  (** per channel id, including initial *)
  returned_to_initial : bool;
      (** whether every channel holds exactly its initial tokens again *)
}

type outcome = Complete of trace | Deadlock of { fired : firing list; stuck : string list }
(** [Deadlock.stuck] lists the actors with remaining firings. *)

val run :
  ?policy:policy ->
  ?iterations:int ->
  ?targets:(string * int) list ->
  ?active_channel:(int -> bool) ->
  Concrete.t ->
  outcome
(** Execute [iterations] (default 1) basic iterations.

    [targets] overrides the per-iteration firing counts; actors absent
    from the list get a target of 0 (this differs from the runtime
    engine's targets, which default absentees to the repetition vector —
    here a partial list delimits a sub-execution such as a local
    iteration).  [active_channel] masks channels out of the
    simulation entirely — the TPDF buffer analysis uses this to model
    topologies where a control decision removed edges while keeping the
    full graph's iteration vector (§III-A: “the graph has a unique
    iteration vector”). *)

val is_live : Concrete.t -> bool

val compress : firing list -> (string * int) list
(** Run-length encoding by actor, e.g. [\[("a3",2); ("a1",3); ("a2",2)\]]. *)

val pp_compressed : Format.formatter -> (string * int) list -> unit
(** Prints e.g. ["(a3)^2 (a1)^3 (a2)^2"]. *)
