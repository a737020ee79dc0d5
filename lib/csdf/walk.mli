(** The firing rule of one iteration, written once.

    {!Schedule}, {!Bounded} and {!Sas} all execute a concrete graph one
    firing at a time, and all with this rule: an actor is enabled when
    every active input holds its current phase's consumption and, under
    capacities, every active output has room for its production on top of
    the tokens it holds now (a self-loop gets no credit for its own
    consumption).  Firing consumes, then produces, and records each
    channel's peak occupancy.  The graph is compiled to arrays once per
    walker, so a firing costs a few array reads per channel. *)

type policy = Eager | Late_first | Min_buffer
type firing = { actor : string; phase : int; index : int }

type t
(** A compiled graph and its token state, from every channel holding its
    initial tokens and no actor having fired. *)

val create :
  ?active_channel:(int -> bool) -> ?capacities:(int -> int) -> Concrete.t -> t
(** Masked-out channels take no part in the rule.
    @raise Invalid_argument if a capacity is below a channel's initial
    tokens. *)

val actor : t -> string -> int
(** The index of an actor.  @raise Not_found. *)

val enabled : t -> int -> bool
val fire : t -> int -> firing

val run :
  ?policy:policy ->
  ?iterations:int ->
  ?targets:(string * int) list ->
  t ->
  firing list * string list
(** Fire enabled actors until each has fired its target ([targets], or
    the repetition vector, times [iterations]) or none can fire.  Returns
    the firings in order and the actors short of their target, in
    declaration order: [[]] exactly when the run completed.  Ties go to
    the first actor in declaration order; [Late_first] keeps firing the
    last actor while it can, else picks the most remaining firings;
    [Min_buffer] picks the least net production. *)

val max_occupancy : t -> (int * int) list
(** Peak tokens per active channel id, initial tokens included. *)

val returned_to_initial : t -> bool

val full_channels : t -> string list -> int list
(** The channels, sorted, whose fullness alone keeps one of the given
    actors from firing. *)
