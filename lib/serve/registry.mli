(** Tenant registry: the daemon's table of hosted graph instances and
    their crash-consistent persistence.

    A tenant is, between requests, plain data: its immutable submit-time
    configuration ({!cfg}), the current valuation, and the newest
    {!Tpdf_fault.Supervisor.checkpoint} — always taken at an iteration
    boundary, so no engine snapshot travels with it.  A {e cold}
    (evicted) tenant drops even that and lives only in its checkpoint
    store until the next touch revives it.

    Persistence layout under the daemon state directory:
    {ul
    {- [tenants/<name>/ckpt-<seq>.tpdfckpt] — one [serve-tenant]
       checkpoint per persisted boundary ([seq] = iterations done); the
       newest valid file wins, the previous one is kept as the
       torn-write fallback, older ones are pruned;}
    {- [manifest/ckpt-<seq>.tpdfckpt] — the [serve-manifest]: every
       tenant's status line, the admission queue order and the fleet
       counters, rewritten after each mutating request.}}

    Recovery invariant: the manifest names the fleet, each tenant file
    is authoritative for that tenant's progress, and a tenant file is
    never older than its manifest row (tenant saves precede the manifest
    save in every request) — so [kill -9] at any byte offset restores a
    state the daemon actually passed through. *)

open Tpdf_core
module Fault = Tpdf_fault

type cfg = {
  c_graph : Graph.t;
  c_src : string;  (** canonical [Serial] rendering of [c_graph] *)
  c_seed : int;
  c_faults : string;  (** canonical fault-spec string; [""] = none *)
  c_specs : Fault.Fault.spec list;
  c_retries : int;
  c_backoff_ms : float;
  c_degrade_after : int;
  c_max_restarts : int;
  c_deadlines_ms : (string * float) list;
  c_deadline_ms : float option;  (** admission deadline *)
  c_budget : int option;  (** admission per-iteration firing budget *)
}

(** A resident tenant's supervisor session (see {!step}). *)
type session

(** In-memory half of a resident tenant. *)
type hot = {
  h_cfg : cfg;
  mutable h_val : Tpdf_param.Valuation.t;
  mutable h_ck : Fault.Supervisor.checkpoint option;
      (** [None] before the first advance *)
  mutable h_sess : session option;
      (** built by the first {!step}, dropped with the [hot] record on
          eviction *)
}

(** [Migrating addr]: this daemon still owns the tenant but is moving
    it to the daemon at [addr] (two-phase handoff, source side).
    [Prepared addr]: this daemon holds an offered copy from the daemon
    at [addr] but does {e not} own it yet — the copy becomes [Running]
    only at commit, and is dropped on abort.  Both survive restarts so
    an interrupted handoff can be resolved. *)
type status =
  | Running
  | Queued
  | Quarantined of string
  | Migrating of string
  | Prepared of string

type tenant = {
  t_name : string;
  mutable t_status : status;
  mutable t_done : int;  (** iterations completed *)
  mutable t_cost : int;  (** admission cost (firings / iteration) *)
  mutable t_period_ms : float;  (** admission MCR bound *)
  mutable t_skips : int;  (** cumulative substituted firings *)
  mutable t_hot : hot option;  (** [None] = evicted to checkpoint *)
  mutable t_touch : int;  (** LRU clock at last touch *)
  mutable t_persisted : int;  (** [t_done] at last persist; -1 = never *)
}

val owned : tenant -> bool
(** Whether this daemon is the tenant's owner: true for every status
    except [Prepared] (an uncommitted offered copy). *)

type t

val create : ?dir:string -> unit -> t
(** Empty registry; [dir] enables persistence (created on demand). *)

val dir : t -> string option
val find : t -> string -> tenant option
val add : t -> tenant -> unit
val remove : t -> string -> unit
(** Drops the tenant from the table, the queue and — when persistent —
    its on-disk store, so a later submit under the same name starts
    fresh. *)

val names : t -> string list
(** Sorted. *)

val tenants : t -> tenant list
(** In sorted name order. *)

val count : t -> int
val touch : t -> tenant -> unit

val queue : t -> string list
(** Admission queue, oldest first. *)

val enqueue : t -> string -> unit
val dequeue_if : t -> (tenant -> bool) -> tenant list
(** Promote the longest-queued tenants while the predicate accepts the
    head — strict FIFO, no reordering — marking them [Running]. *)

val running_cost : t -> int
(** Sum of [t_cost] over [Running] and [Migrating] tenants (resident or
    cold) — a migrating tenant still occupies its source's capacity
    until the handoff commits. *)

val export : tenant -> (string, string) result
(** The tenant's boundary state as a portable [serve-tenant] checkpoint
    string ({!Tpdf_ckpt.Ckpt.to_string}: checksummed, byte-stable).
    Fails when the tenant is cold. *)

val install :
  t -> name:string -> status:status -> string -> (tenant, string) result
(** Install an {!export}ed checkpoint string as tenant [name] with the
    given status, replacing any existing record under that name: the
    migration destination's half of the transfer.  Validates the
    checksum, kind and embedded name, makes the tenant resident, and
    persists it when the registry has a directory. *)

val mk_tenant : name:string -> cfg:cfg -> valuation:Tpdf_param.Valuation.t ->
  cost:int -> period_ms:float -> status:status -> tenant

val policy : cfg -> Fault.Policy.t
(** The supervision policy of a tenant configuration, with
    {!Fault.Chaos.default_fallbacks}.
    @raise Invalid_argument on out-of-range settings. *)

val step : hot -> Fault.Supervisor.step * bool
(** Run the tenant's next supervised iteration on its session and, when
    it completes, store its boundary checkpoint in [h_ck].  The session
    is kept across steps while [h_ck] and [h_val] are physically the
    values it last produced or was built from; on any mismatch
    (reconfigure, revive, install, a direct write of [h_ck]) it is
    rebuilt from [h_ck] first.  Stepping is byte-identical to a
    single-iteration {!Fault.Chaos.run} resumed from [h_ck].  The flag is
    [true] when this step built the session.  A step that does not
    complete an iteration drops the session and leaves [h_ck] as it
    was. *)

val save_tenant : t -> tenant -> unit
(** Persist a resident tenant's boundary checkpoint (no-op when the
    registry has no directory or the tenant is cold). *)

val save_manifest : t -> counters:(string * int) list -> unit

val load : dir:string -> (t * (string * int) list, string) result
(** Restore a registry from the newest valid manifest: tenants come back
    cold, the queue and statuses as persisted; returns the saved fleet
    counters.  [Ok] with an empty registry when no manifest exists.
    [Error] naming the file and its version when the newest manifest
    that verifies was written in another checkpoint format version
    (see {!Tpdf_ckpt.Ckpt.Store.latest}). *)

val revive : t -> tenant -> (hot, string) result
(** Load a cold tenant's newest valid checkpoint, adopt its progress
    (authoritative over the manifest row) and make it resident.
    Resident tenants return their existing {!hot}. *)

val evict : t -> tenant -> (unit, string) result
(** Persist then drop the in-memory half.  Fails without a directory. *)

val resident : t -> int
(** Number of resident (hot) tenants. *)
