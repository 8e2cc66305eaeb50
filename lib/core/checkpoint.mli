(** Plain-text serialization of {!Pipeline.snapshot} — the state a killed
    [asc run] needs to continue from where it stopped and still produce a
    bit-identical result (format in docs/ROBUSTNESS.md).

    Writes are atomic (temp file + rename): a crash mid-write leaves the
    previous checkpoint intact.  On top of that the layer is self-healing:
    the v2 format carries a CRC-32 trailer so silent corruption cannot
    load, {!write_file} rotates previous snapshots ([keep]) and retries
    transient failures, and {!load_latest_valid} falls back across rotated
    copies when the newest one is corrupt or missing. *)

(** Raised by the parser on a malformed checkpoint file (including a v2
    CRC mismatch). *)
exception Corrupt of { line : int; message : string }

(** Raised by {!validate} when a checkpoint belongs to a different
    (circuit, seed, T0 source, C) than the resuming run. *)
exception Incompatible of string

(** Serializes in the v2 format: body plus a [crc] trailer line covering
    every byte before it. *)
val to_string : Pipeline.snapshot -> string

(** Parses v1 (no trailer) and v2 (trailer required and verified) files.
    Raises {!Corrupt} on anything else — in particular, no bit-flipped or
    truncated v2 file can load as a snapshot that differs from what was
    saved. *)
val of_string : string -> Pipeline.snapshot

(** Check a loaded snapshot against the run about to resume from it:
    raises {!Incompatible} with its {!Pipeline.snapshot_mismatch}. *)
val validate : Pipeline.prepared -> config:Pipeline.config -> Pipeline.snapshot -> unit

(** [write_file ?tel ?chaos ?keep ?retries path s] atomically replaces
    [path] with [s].

    [keep] (default 1) is the total number of snapshots retained: before
    the write, existing copies are promoted one suffix up
    ([path] to [path.1], [path.1] to [path.2], …), each by one atomic
    rename.  [retries] (default 2) bounds retry-with-backoff on transient
    [Sys_error]s; the error is re-raised once retries are exhausted, and
    the stray temp file is removed on every failure path (except a chaos
    [Kill], which models a hard crash).

    [tel] records a ["checkpoint:write"] span and bumps
    [Checkpoint_writes] on success and [Checkpoint_write_failures] per
    failed attempt.  [chaos] arms the [checkpoint.open] /
    [checkpoint.output] / [checkpoint.rename] / [checkpoint.rotate]
    injection points. *)
val write_file :
  ?tel:Asc_util.Telemetry.t ->
  ?chaos:Asc_util.Chaos.t ->
  ?keep:int ->
  ?retries:int ->
  string ->
  Pipeline.snapshot ->
  unit

(** [chaos] arms the [checkpoint.read] injection point. *)
val read_file : ?chaos:Asc_util.Chaos.t -> string -> Pipeline.snapshot

type loaded = {
  snapshot : Pipeline.snapshot;
  source : string;  (** The file the snapshot was actually read from. *)
  recovered : bool;  (** [source] is a rotated copy, not [path] itself. *)
}

(** [load_latest_valid ?tel ?chaos path] reads the newest valid snapshot
    among [path], [path.1], [path.2], … (in that order — newest first).
    Copies that are missing or raise {!Corrupt} are skipped; a successful
    fallback bumps the [Checkpoint_recoveries] counter.  If no copy
    loads, re-raises the {e newest} copy's error ([Sys_error] when no
    file exists at all). *)
val load_latest_valid :
  ?tel:Asc_util.Telemetry.t -> ?chaos:Asc_util.Chaos.t -> string -> loaded
