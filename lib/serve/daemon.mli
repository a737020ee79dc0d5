(** The multi-tenant daemon core: a pure request → response state
    machine over {!Json} values.

    Everything the daemon does — admission, advancing, quarantine,
    eviction, crash-consistent persistence — lives here, with no socket
    in sight: {!handle} maps one request object to one response object,
    so tests and benchmarks drive the daemon in-process and the socket
    front end ({!Server}) is a thin line pump.  All response fields
    derive from deterministic per-tenant virtual state (wall-clock time
    only feeds metrics histograms), which is what makes protocol
    transcripts byte-comparable across runs, restarts and fleet sizes.

    {b Robustness ladder.}  A faulting tenant is retried and degraded by
    its own {!Tpdf_fault.Supervisor} within each advance; the daemon
    adds the final rung, {e quarantine}: a tenant whose run ends
    unrecovered, or whose cumulative substituted firings cross
    [quarantine_skips], is parked ([Quarantined]) — it stops consuming
    capacity and rejects further advances, while every other tenant is
    untouched (their supervisors, plans and engines share no state).

    {b Admission & shedding.}  [submit] runs {!Admission.check}; an
    admitted tenant runs if its per-iteration cost fits the fleet
    [capacity], queues (FIFO) while it does not, and is shed with an
    [overloaded] + [retry_after_ms] response when the queue is full.
    Oversized advances are refused, and a [request_timeout_ms] budget
    turns a long advance into partial progress plus a retry hint. *)

type config = {
  state_dir : string option;  (** enables persistence and eviction *)
  max_tenants : int;  (** registry size cap (default 256) *)
  max_resident : int;  (** LRU-evict beyond this; 0 = unlimited *)
  capacity : int;
      (** fleet budget in firings/iteration; 0 = unlimited *)
  max_queue : int;  (** admission queue bound (default 16) *)
  max_advance : int;  (** iterations per advance request (default 1024) *)
  checkpoint_every : int;
      (** persist a tenant after this many new iterations (default 1) *)
  request_timeout_ms : float;
      (** wall budget per advance request; 0 = unlimited (default) *)
  retry_after_ms : int;  (** backoff hint on shed responses (default 50) *)
  quarantine_skips : int;
      (** quarantine once cumulative skips reach this; 0 = only
          unrecovered runs quarantine (default) *)
  default_budget : int option;  (** default per-tenant admission budget *)
  metrics_out : string option;
      (** OpenMetrics snapshot file, rewritten atomically per request *)
  rid_cache : int;
      (** idempotency-key cache capacity, FIFO; 0 disables (default 256) *)
  crash_at : string option;
      (** fault injection: raise {!Injected_crash} at this named
          migration point (e.g. ["src_after_commit"]); [None] in
          production *)
}

val default_config : config

exception Injected_crash of string
(** Raised mid-handler when [crash_at] matches, {e after} the durable
    writes that precede the point and before everything else — the
    in-process analogue of [kill -9] there.  Deliberately not caught by
    {!handle}: the process front end turns it into a real [SIGKILL],
    tests catch it and reload the daemon from its state directory. *)

type dial = string -> string -> (string, string) result
(** [dial addr line] sends one request line to the daemon at [addr] and
    returns its response line — how a daemon speaks to a peer during
    migration without knowing about sockets.  [Error] means transport
    failure (the peer's own error responses come back as [Ok line]). *)

type t

val create : ?dial:dial -> config -> (t, string) result
(** A fresh daemon; with [state_dir] set, restores the fleet from the
    newest valid manifest (tenants come back cold and revive lazily).
    [dial] enables the [migrate] and [resolve] ops (without it they fail
    cleanly). *)

val handle : t -> Json.t -> Json.t
(** Process one request object. *)

val handle_line : t -> string -> string
(** Parse one request line, {!handle} it, render the response line
    (without the trailing newline).  This layer also implements
    idempotency keys: a request carrying a ["rid"] field whose response
    was already delivered is answered from the cache, byte for byte,
    without re-executing — so a client retry after a lost response
    never double-advances a tenant.  Responses with transient error
    codes ([overloaded], [queued], [draining], [migrating],
    [unresolved], [internal]) are never cached. *)

val metrics : t -> Tpdf_obs.Metrics.t
val stopping : t -> bool
(** Set once a [shutdown] request was handled; the server loop exits. *)

val draining : t -> bool
(** Set once a [drain] request was handled: the daemon keeps serving
    existing tenants but rejects new [submit]s and inbound migration
    offers with code [draining]. *)

val persist : t -> unit
(** Checkpoint every resident tenant and the manifest (no-op without a
    state directory). *)
