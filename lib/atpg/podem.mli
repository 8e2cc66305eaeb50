(** PODEM combinational ATPG over the full-scan combinational core.

    Assignable inputs: primary inputs and flip-flop outputs.  Observation
    points: primary outputs and flip-flop next-state inputs.  Implication
    is a dual-rail 3-valued forward simulation; the decision loop is
    classic PODEM with SCOAP-guided backtrace and a backtrack limit.
    Implication is event-driven over the shared levelized schedule: a
    decision, backtrack or new fault re-evaluates only the gates whose
    inputs changed, and the D-frontier is scanned over the fault's fanout
    cone only. *)

type result =
  | Test of Cube.t  (** A (possibly partial) test cube detecting the fault. *)
  | Redundant  (** Search space exhausted: combinationally untestable. *)
  | Aborted  (** Backtrack limit exceeded, or the budget fired mid-search. *)

type t

(** Reusable ATPG context for one circuit (computes SCOAP estimates). *)
val create : Asc_netlist.Circuit.t -> t

(** Generate a test for one stuck-at fault.  [fixed] pre-assigns source
    gates (PIs / flip-flops); with it, [Redundant] only means "untestable
    under the fixed assignment".  [budget] is polled once per decision
    round; once fired the search returns {!Aborted} (never a spurious
    {!Redundant}) instead of raising.  [tel] counts decisions, backtracks,
    budget polls and the outcome (test / redundant / aborted); it never
    affects the search. *)
val run :
  ?backtrack_limit:int ->
  ?budget:Asc_util.Budget.t ->
  ?tel:Asc_util.Telemetry.t ->
  ?fixed:(int * bool) list ->
  t ->
  Asc_fault.Fault.t ->
  result

(** {1 Implication state}

    The rails always equal the dual-rail implication of the current
    source assignment under the fault of the last {!run} (no fault after
    {!create}); a {!run} leaves its final assignment in place.  Exposed
    so a test can check the incremental implication against a full
    re-simulation. *)

(** [assign t g v] (re)assigns source gate [g] ([None] unassigns it) and
    re-implies. *)
val assign : t -> int -> bool option -> unit

(** The current assignment of source gate [g]. *)
val assigned : t -> int -> bool option

(** Gate [g]'s implied (good, faulty) values; [None] is X. *)
val rails : t -> int -> bool option * bool option
