(* Combinational test-set generation: the compact test set C.

   The paper takes C from [9] ("cost-effective generation of minimal test
   sets"); any compact combinational test set with complete coverage of the
   detectable faults plays the same role.  We produce one with the standard
   flow: a random-pattern phase with fault dropping, a deterministic PODEM
   phase for the remaining faults (random fill of unspecified positions),
   and reverse-order fault-simulation compaction.

   The PODEM phase is domain-parallel (see docs/PARALLELISM.md).  Target
   faults are split into contiguous chunks; each chunk runs on a private
   [Podem.t] — PODEM is a pure function of (circuit, fault, limit), so
   chunking cannot change its answers.  Random fill draws from a per-fault
   stream derived with [Rng.of_name] from the fault's index, not from the
   shared generator, so the candidate patterns are independent of
   generation order.  Candidate detection rows are simulated in one
   parallel [detect_matrix] sweep, and the greedy cross-fault drop phase
   (fortuitous detection) then runs as a sequential merge in fault-index
   order over the merged candidates — bit-identical output for any domain
   count, including fully sequential runs. *)

open Asc_util
module Circuit = Asc_netlist.Circuit
module Fault = Asc_fault.Fault
module Comb_fsim = Asc_fault.Comb_fsim
module Pattern = Asc_sim.Pattern

type result = {
  tests : Pattern.t array; (* the compacted test set C *)
  detected : Bitvec.t; (* fault indices covered by [tests] *)
  redundant : Bitvec.t; (* proven combinationally untestable *)
  aborted : Bitvec.t; (* PODEM gave up within the backtrack limit *)
}

let random_batches = 24 (* max random-phase batches of 62 patterns *)
let random_patience = 3 (* stop after this many fruitless batches *)
let backtrack_limit = 200

(* Per-fault PODEM outcome, produced in parallel and consumed by the
   sequential index-order merge. *)
type candidate =
  | Cand_redundant
  | Cand_aborted
  | Cand_fill of Pattern.t (* one random fill of the cube *)

(* [budget] reaches two places: the random-phase batch loop (a fired budget
   stops proposing batches) and PODEM (which returns [Aborted] promptly).
   The fault-simulation sweeps deliberately run without it, so [generate]
   still returns a well-formed (if weaker) result after the budget fires —
   the cooperative unwind happens at the caller's next poll point.  (A pool
   carrying its own fired budget raises out of [generate] instead.) *)
let generate ?pool ?(budget = Budget.unlimited) ?tel c ~faults ~rng =
  Telemetry.span tel "tgen:comb"
    ~args:[ ("faults", string_of_int (Array.length faults)) ]
  @@ fun () ->
  let n_faults = Array.length faults in
  let n_pis = Circuit.n_inputs c and n_ffs = Circuit.n_dffs c in
  let detected = Bitvec.create n_faults in
  let undetected () =
    Bitvec.init n_faults (fun i -> not (Bitvec.get detected i))
  in
  let kept = ref [] in
  (* Random phase: batches of 62 random patterns, keeping a batch's
     patterns only when the batch detected something new. *)
  let fruitless = ref 0 in
  let batch_index = ref 0 in
  while
    !batch_index < random_batches
    && !fruitless < random_patience
    && not (Budget.exhausted budget)
  do
    incr batch_index;
    let batch = Array.init Word.width (fun _ -> Pattern.random rng ~n_pis ~n_ffs) in
    let only = undetected () in
    if Bitvec.is_empty only then fruitless := random_patience
    else begin
      let mat = Comb_fsim.detect_matrix ?pool ?tel ~only c ~patterns:batch ~faults in
      (* Keep, within the batch, only patterns that add coverage. *)
      let added = ref false in
      Array.iteri
        (fun p _ ->
          let row = Bitmat.row mat p in
          let fresh = Bitvec.diff row detected in
          if not (Bitvec.is_empty fresh) then begin
            Bitvec.union_into ~into:detected row;
            kept := batch.(p) :: !kept;
            added := true
          end)
        batch;
      if !added then fruitless := 0 else incr fruitless
    end
  done;
  (* Deterministic phase: PODEM per remaining fault.  Candidate generation
     runs in parallel chunks, each with a private Podem.t and per-fault
     fill streams; fortuitous dropping happens in the merge below. *)
  let redundant = Bitvec.create n_faults in
  let aborted = Bitvec.create n_faults in
  let remaining = undetected () in
  let todo = Array.of_list (Bitvec.to_list remaining) in
  let n_todo = Array.length todo in
  (* One base drawn from the shared stream (deterministic: the random
     phase above consumes [rng] identically for any domain count), then an
     independent stream per fault id. *)
  let fill_base = Rng.bits rng in
  let fill_rng fi = Rng.of_name ~seed:fill_base (Printf.sprintf "fill/%d" fi) in
  let cands = Array.make n_todo Cand_aborted in
  let ranges =
    Domain_pool.split ~n:n_todo ~pieces:(Domain_pool.chunk_count pool n_todo)
  in
  Domain_pool.run_opt pool (Array.length ranges) (fun ci ->
      let start, count = ranges.(ci) in
      Telemetry.span tel "podem:chunk"
        ~args:[ ("faults", string_of_int count) ]
      @@ fun () ->
      let podem = Podem.create c in
      for k = start to start + count - 1 do
        let fi = todo.(k) in
        cands.(k) <-
          (match
             Podem.run ~backtrack_limit ~budget ?tel podem faults.(fi)
           with
          | Podem.Redundant -> Cand_redundant
          | Podem.Aborted -> Cand_aborted
          | Podem.Test cube -> Cand_fill (Cube.fill (fill_rng fi) cube))
      done);
  (* One parallel sweep gives every fill its detection row over the faults
     still undetected after the random phase; intersecting a row with the
     evolving undetected set during the merge equals simulating the fill
     against that evolving set directly. *)
  let all_fills =
    Array.of_list
      (List.filter_map (function Cand_fill p -> Some p | _ -> None) (Array.to_list cands))
  in
  Telemetry.add tel Telemetry.Tgen_candidates (Array.length all_fills);
  let fill_rows =
    Comb_fsim.detect_matrix ?pool ?tel ~only:remaining c ~patterns:all_fills ~faults
  in
  (* Sequential greedy merge in fault-index order: a fault fortuitously
     detected by an earlier accepted fill contributes nothing (its
     candidate is discarded, exactly as if PODEM had been skipped). *)
  let next_row = ref 0 in
  Array.iteri
    (fun k cand ->
      let fi = todo.(k) in
      match cand with
      | Cand_redundant -> if not (Bitvec.get detected fi) then Bitvec.set redundant fi
      | Cand_aborted -> if not (Bitvec.get detected fi) then Bitvec.set aborted fi
      | Cand_fill pattern ->
          let row = Bitmat.row fill_rows !next_row in
          incr next_row;
          if not (Bitvec.get detected fi) then begin
            kept := pattern :: !kept;
            Bitvec.union_into ~into:detected row;
            (* The cube's own target must be covered by construction;
               random fill cannot undo the PODEM assignments. *)
            Bitvec.set detected fi
          end)
    cands;
  (* Reverse-order compaction: walk the tests newest-first and keep only
     those still contributing coverage. *)
  let tests = Array.of_list (List.rev !kept) in
  let mat = Comb_fsim.detect_matrix ?pool ?tel ~only:detected c ~patterns:tests ~faults in
  let still_needed = Bitvec.copy detected in
  let final = ref [] in
  for p = Array.length tests - 1 downto 0 do
    let row = Bitmat.row mat p in
    let contribution = Bitvec.inter row still_needed in
    if not (Bitvec.is_empty contribution) then begin
      Bitvec.diff_into ~into:still_needed row;
      final := tests.(p) :: !final
    end
  done;
  let result = { tests = Array.of_list !final; detected; redundant; aborted } in
  Telemetry.add tel Telemetry.Tgen_commits (Array.length result.tests);
  result
