(* Directed sequential test-sequence generation (the T0 of the paper).

   The paper obtains T0 from STRATEGATE [10] or PROPTEST [12]; both are
   simulation-based sequential test generators.  This module is a
   PROPTEST-style substitute: grow the sequence segment by segment, at each
   round proposing several candidate segments (uniform random and
   correlated random walks of varying flip rates), evaluating each with
   incremental 3-valued fault co-simulation from an unknown initial state,
   and committing the best candidate that detects new faults.  Segment
   length backs off upward when no candidate helps; generation stops at the
   length budget or when patience runs out.

   The result detects a large share of the faults with a sequence of a few
   hundred to ~1000 vectors — the characteristics Phase 1 relies on. *)

open Asc_util
module Circuit = Asc_netlist.Circuit
module Seq_fsim = Asc_fault.Seq_fsim

type config = {
  budget : int; (* maximum total length *)
  seg_len : int; (* initial candidate segment length *)
  max_seg_len : int;
  candidates : int; (* candidate segments per round *)
  patience : int; (* fruitless rounds (per segment length) before backing off *)
}

let default_config =
  { budget = 1000; seg_len = 8; max_seg_len = 64; candidates = 5; patience = 2 }

type result = {
  seq : bool array array;
  detected : Bitvec.t; (* no-scan detections of the full sequence *)
}

(* [budget] (wall-clock, distinct from [config.budget]'s length cap) makes
   the generator degrade gracefully: a fired budget stops the growth loop —
   unwinding out of the co-simulation kernels via [Budget.Exhausted] — and
   the sequence committed so far is returned. *)
let generate ?pool ?(budget = Budget.unlimited) ?tel ?(config = default_config) c
    ~faults ~rng =
  Telemetry.span tel "tgen:seq"
    ~args:[ ("faults", string_of_int (Array.length faults)) ]
  @@ fun () ->
  let n_pis = Circuit.n_inputs c in
  let inc = Seq_fsim.inc3_create c faults in
  let segments = ref [] in
  let last_vector = ref (Rng.bool_array rng n_pis) in
  let seg_len = ref config.seg_len in
  let fruitless = ref 0 in
  let finished = ref false in
  (try
  while not !finished do
    let remaining = config.budget - Seq_fsim.inc3_length inc in
    if remaining <= 0 || Budget.exhausted budget then finished := true
    else begin
      let len = min !seg_len remaining in
      let make_candidate k =
        if k = 0 then Random_tgen.generate rng ~n_pis ~len
        else if k = 1 then begin
          (* A held constant vector: synchronous-reset conditions and
             enable chains typically need an input pattern held over
             several cycles, which uniform noise essentially never does. *)
          let v = Rng.bool_array rng n_pis in
          Array.init len (fun _ -> Array.copy v)
        end
        else begin
          let flip = [| 0.5; 0.25; 0.1; 0.05 |].((k - 2) mod 4) in
          Random_tgen.walk rng ~n_pis ~len ~flip ~start:!last_vector
        end
      in
      let candidates = Array.init (max 1 config.candidates) make_candidate in
      Telemetry.add tel Telemetry.Tgen_candidates (Array.length candidates);
      let best = ref (-1) and best_gain = ref 0 in
      Array.iteri
        (fun k seg ->
          let gain = Seq_fsim.inc3_peek ?pool ~budget ?tel inc seg in
          if gain > !best_gain then begin
            best := k;
            best_gain := gain
          end)
        candidates;
      if !best >= 0 then begin
        let seg = candidates.(!best) in
        let (_ : int) = Seq_fsim.inc3_commit ?pool ~budget ?tel inc seg in
        Telemetry.incr tel Telemetry.Tgen_commits;
        segments := seg :: !segments;
        last_vector := seg.(Array.length seg - 1);
        fruitless := 0
      end
      else begin
        incr fruitless;
        if !fruitless >= config.patience then begin
          fruitless := 0;
          if !seg_len >= config.max_seg_len then finished := true
          else seg_len := min config.max_seg_len (2 * !seg_len)
        end
      end
    end
  done
  with Budget.Exhausted _ -> ());
  (* Guarantee a non-empty sequence even when nothing is detectable
     without scan — the compaction procedure still needs a T0 to work on. *)
  if !segments = [] then begin
    let seg = Random_tgen.generate rng ~n_pis ~len:(min config.budget config.max_seg_len) in
    (try
       let (_ : int) = Seq_fsim.inc3_commit ?pool inc seg in
       ()
     with Budget.Exhausted _ -> ());
    segments := [ seg ]
  end;
  let seq = Array.concat (List.rev !segments) in
  { seq; detected = Seq_fsim.inc3_detections ?tel inc ~seq }
