(** Functional behaviour of actors in the discrete-event runtime.

    The static model fixes {e how many} tokens move; a behaviour says
    {e what} they contain and {e how long} a firing takes.  The engine
    calls [work] once per firing with the consumed tokens and expects the
    produced tokens back, exactly matching the declared rates of the
    active output channels. *)

type 'a ctx = {
  actor : string;
  mode : string;  (** mode selected by the control token ("default" else) *)
  phase : int;  (** cyclo-static phase of this firing *)
  index : int;  (** 0-based firing number *)
  now_ms : float;  (** simulation time at firing start *)
  inputs : (int * 'a Token.t list) list;
      (** consumed tokens, per active input channel id *)
  out_rates : (int * int) list;
      (** tokens expected on each output channel for this firing (0 for
          outputs the mode rejects) *)
}

type 'a t = {
  work : 'a ctx -> (int * 'a Token.t list) list;
  duration_ms : 'a ctx -> float;
}

val make : ?duration_ms:('a ctx -> float) -> ('a ctx -> (int * 'a Token.t list) list) -> 'a t
(** Default duration: 1.0 ms per firing. *)

val fill : ?duration_ms:('a ctx -> float) -> 'a -> 'a t
(** Produce copies of the given value at the expected rates on every active
    output channel — sources and placeholder kernels. *)

val forward : ?duration_ms:('a ctx -> float) -> unit -> 'a t
(** Concatenate all consumed data tokens and redistribute them over the
    active output channels at the expected rates.
    @raise Failure at run time if the token counts cannot match. *)

val sink : ?duration_ms:('a ctx -> float) -> ('a ctx -> unit) -> 'a t
(** Consume tokens, call the callback for its side effect, produce
    nothing. *)

val emit_mode : ?duration_ms:('a ctx -> float) -> ('a ctx -> string) -> 'a t
(** Control-actor behaviour: emit the computed mode name as control tokens
    at the expected rates on every output channel. *)

val first_mode : Tpdf_core.Graph.t -> string -> string
(** The kernel's first declared mode, or ["default"] if it declares none:
    the mode a kernel starts in, and the one {!scenario_control} sends it
    when unpinned. *)

val scenario_control : Tpdf_core.Graph.t -> (string * string) list -> 'a t
(** Control-actor behaviour: emit, on each control channel, the mode the
    [(kernel, mode)] pins give the channel's destination kernel, else that
    kernel's first declared mode.  With no pins this is the engine's
    default for control actors, so an actor steering kernels with
    different mode names sends each a mode it declares. *)

val const_duration : float -> 'a ctx -> float

val produce_at_rates : 'a ctx -> (int -> int -> 'a Token.t) -> (int * 'a Token.t list) list
(** [produce_at_rates ctx mk] builds the output list from [mk channel i],
    honouring [ctx.out_rates] and skipping inactive (rate-0) outputs — the
    building block of {!fill} and {!emit_mode}. *)
