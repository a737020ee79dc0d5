(** Crash-consistent checkpoint files.

    A checkpoint is a self-contained, versioned, line-oriented text
    file carrying everything a resume needs: a kind tag, free-form
    metadata, the full graph source, the valuation, and optionally an
    {!Tpdf_sim.Snapshot.t} of the running engine.  The last line is an
    FNV-1a checksum of everything before it; {!of_string} verifies it,
    so a torn or corrupted file is always rejected, never silently
    resumed from.  {!write} is crash-consistent (temp file + fsync +
    rename): a crash at any byte offset leaves either the previous file
    intact or a rejected partial. *)

type t = {
  kind : string;  (** e.g. ["run"] or ["chaos"]; a bare atom *)
  meta : (string * string) list;
      (** free-form key/value pairs (keys are bare atoms) *)
  graph_src : string;  (** full [Tpdf_core.Serial] source of the graph *)
  valuation : (string * int) list;  (** parameter bindings *)
  snapshot : Tpdf_sim.Snapshot.t option;
      (** [None] means "at an iteration boundary with a fresh engine" *)
}

val meta : t -> string -> string option
(** First binding of the key in {!field:t.meta}. *)

val to_string : t -> string
(** Serialize, appending the checksum line.
    @raise Invalid_argument when [kind], a meta key, or a parameter name
    is not a bare atom (empty, or containing spaces, quotes or
    backslashes). *)

val of_string : string -> (t, string) result
(** Parse and verify.  Any truncation, corruption, or checksum mismatch
    yields [Error] with a one-line reason, and so does a file that
    verifies but whose header names another format version than
    [tpdf-ckpt 2]: checkpoints are never migrated across versions. *)

val write : string -> t -> unit
(** Atomic, durable write: serialize to [path ^ ".tmp"], [fsync], then
    [rename] over [path] (and best-effort fsync the directory).
    @raise Unix.Unix_error on IO failure. *)

val read : string -> (t, string) result
(** [of_string] of the file contents; IO errors become [Error]. *)

val fnv1a64 : string -> int64
(** The checksum primitive (FNV-1a, 64-bit), exposed for tests. *)

(** A directory of numbered checkpoints ([ckpt-<seq>.tpdfckpt]).
    {!Store.latest} falls back past torn or corrupt files to the newest
    one that still verifies, so a crash mid-write of checkpoint [n]
    resumes from [n-1]. *)
module Store : sig
  type ckpt = t
  type t

  val open_dir : string -> t
  (** Creates the directory (and parents) if missing. *)

  val dir : t -> string

  val path : t -> int -> string
  (** The file path used for sequence number [seq]. *)

  val save : t -> seq:int -> ckpt -> string
  (** Crash-consistent {!write} to {!path}; returns the path. *)

  val seqs : t -> int list
  (** Sequence numbers present (canonically named files only), sorted
      ascending.  Presence does not imply validity. *)

  val latest : t -> ((int * string * ckpt) option, string) result
  (** Newest checkpoint that parses and passes its checksum, skipping
      corrupt or torn files; [Ok None] when none does.  A file that
      verifies but names another format version is not skipped: the
      walk stops with [Error] naming the file and its version, because
      skipping it would silently resume from older state. *)
end
