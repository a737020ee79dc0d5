(* A test-side witness of what fired when, for runs without an obs
   collector.  The engine keeps no firing history; with a full collector
   the firing spans are the trace ([Trace.records_of_events]), and
   without one this log is.

   [wrap] decorates a behaviour so that every firing it starts appends
   one entry: the engine asks a behaviour for its duration exactly once
   per started firing, with that firing's context.  Clock ticks ask for
   no duration and are not logged.  Under a supervisor the wrapped
   behaviour sits inside the fault wrappers, so [duration_ms] is the
   behaviour's own duration, before any injected overrun or jitter. *)

module Behavior = Tpdf_sim.Behavior

type entry = {
  actor : string;
  index : int;
  phase : int;
  mode : string;
  now_ms : float;
  duration_ms : float;
}

type t = entry list ref (* newest first *)

let create () : t = ref []

let wrap (log : t) (b : 'a Behavior.t) : 'a Behavior.t =
  {
    b with
    Behavior.duration_ms =
      (fun ctx ->
        let d = b.Behavior.duration_ms ctx in
        log :=
          {
            actor = ctx.Behavior.actor;
            index = ctx.Behavior.index;
            phase = ctx.Behavior.phase;
            mode = ctx.Behavior.mode;
            now_ms = ctx.Behavior.now_ms;
            duration_ms = d;
          }
          :: !log;
        d);
  }

(* [behaviors] with every kernel of [graph] that has no explicit
   behaviour given the engine's default one ([Behavior.fill default]),
   and every behaviour wrapped.  Control actors without an explicit
   behaviour stay unwrapped: their default depends on the caller (the
   engine's first-mode emitter, or a supervisor's scenario steering). *)
let wrap_kernels log graph ~default behaviors =
  List.filter_map
    (fun a ->
      match List.assoc_opt a behaviors with
      | Some b -> Some (a, wrap log b)
      | None ->
          if Tpdf_core.Graph.is_control graph a then None
          else Some (a, wrap log (Behavior.fill default)))
    (Tpdf_core.Graph.actors graph)

let entries (log : t) = List.rev !log
