(** Files that are replaced whole or not at all (docs/ROBUSTNESS.md
    "Self-healing writes and recovery").

    One owner for the persistence idioms the checkpoint writer, the
    serving result cache, the event log and the Prometheus scrape file
    share: the CRC-32 trailer, the temp-file-plus-rename write, and
    numbered-copy rotation.  Trailer {e verification} stays with each
    format's parser, which knows its own grammar.

    The chaos points ([checkpoint.open] / [checkpoint.output] /
    [checkpoint.rename] / [checkpoint.rotate]) fire only when a handle is
    passed; callers that pass none count no occurrences. *)

(** [seal body] is [body] followed by the trailer line
    ["crc <8 hex digits>\n"], the CRC-32 of every byte of [body]. *)
val seal : string -> string

(** [write ?chaos path text] atomically replaces [path] with [text]: the
    bytes go to [path.tmp], which is then renamed into place, so a crash
    mid-write leaves the previous file intact.  Any failure removes the
    temp file and re-raises — except {!Chaos.Killed}, which models a hard
    crash and leaves the partial temp file exactly as a SIGKILL would. *)
val write : ?chaos:Chaos.t -> string -> string -> unit

(** [rotate ?chaos path ~keep] promotes existing copies one suffix up —
    [path.(k)] to [path.(k+1)] for [k = keep-2 … 1], then [path] to
    [path.1] — so that a following write leaves [keep] copies in total.
    Each step is one atomic rename, so a crash at any point leaves every
    copy intact under exactly one name; missing copies are skipped.
    [keep <= 1] renames nothing. *)
val rotate : ?chaos:Chaos.t -> string -> keep:int -> unit

(** [mkdir_p dir] creates [dir] and any missing parents. *)
val mkdir_p : string -> unit
