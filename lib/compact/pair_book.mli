(** Coverage bookkeeping shared by the pair-combining loops ({!Combine},
    {!Transfer} and the partial-scan Phase 4).

    The book holds the live tests, their detection rows over the target
    faults, the per-fault detection counts and the count classes
    [once] (one live test detects the fault) and [twice] (two do).  From
    them it computes, word by word, which faults a pair puts at risk, and
    it remembers failed pairs until their answer can change. *)

type t

(** [create ~targets tests rows]: the book of [tests], where [rows.(i)]
    holds the faults [tests.(i)] detects; rows are restricted to
    [targets]. *)
val create :
  targets:Asc_util.Bitvec.t ->
  Asc_scan.Scan_test.t array ->
  Asc_util.Bitvec.t array ->
  t

(** The current test at index [i] (a combined test once [i] absorbed a
    partner). *)
val test : t -> int -> Asc_scan.Scan_test.t

val alive : t -> int -> bool

(** The target faults test [i] is known to detect (empty once dead). *)
val row : t -> int -> Asc_util.Bitvec.t

(** [at_risk t i j]: the target faults only tests [i] and [j] detect —
    those lost if both vanish. *)
val at_risk : t -> int -> int -> Asc_util.Bitvec.t

(** [exposed t i]: every fault some pair [(i, _)] can put at risk under
    the current counts — the faults one live test detects, and those [i]
    shares with exactly one other.  Contains [at_risk t i j] for every
    [j]. *)
val exposed : t -> int -> Asc_util.Bitvec.t

(** Whether pair [(i, j)] failed and its answer cannot have changed
    since: re-checking it would fail again. *)
val failed : t -> int -> int -> bool

(** Record that the combined test of [(i, j)] misses an at-risk fault. *)
val mark_failed : t -> int -> int -> unit

(** [replace t i j test row]: accept the pair [(i, j)].  Test [i] becomes
    [test] detecting [row] (target faults only), test [j] dies, counts and
    classes follow, and the failures whose answer may now differ are
    forgotten: those of [i], and those of every live test sharing a fault
    [row] gains beyond the two old rows. *)
val replace : t -> int -> int -> Asc_scan.Scan_test.t -> Asc_util.Bitvec.t -> unit

(** The live tests, in index order. *)
val survivors : t -> Asc_scan.Scan_test.t array
