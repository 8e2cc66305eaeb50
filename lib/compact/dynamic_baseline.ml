(* Dynamic compaction baseline, in the spirit of [2], [3] (Lee & Saluja).

   The dynamic procedures reduce test application time while *generating*
   tests: after a scan-in, they keep applying functional-clock vectors as
   long as doing so detects additional faults, scanning out only when the
   sequence stops paying for itself — each functional vector costs 1 cycle
   against the N_SV cycles of a scan operation.

   This reconstruction: take the next undetected fault, generate a test
   with PODEM (scan-in state + one vector), then repeatedly try to extend
   the test from the *captured* state — a constrained PODEM run with the
   present-state inputs fixed — for further undetected faults.  Extension
   stops when no target succeeds within a try budget or the sequence
   reaches N_SV vectors (beyond which a fresh scan could never be worse).
   The exact algorithm of [2,3] is not specified in the paper; DESIGN.md
   records this as an approximation used only for Table 3's baseline
   column. *)

open Asc_util
module Circuit = Asc_netlist.Circuit
module Scan_test = Asc_scan.Scan_test
module Kernel = Asc_sim.Kernel

let extension_tries = 10 (* PODEM targets attempted per extension step *)
let backtrack_limit = 100

type result = {
  tests : Scan_test.t array;
  detected : Bitvec.t;
  unresolved : Bitvec.t; (* targets PODEM could not classify or detect *)
}

let run c ~faults ~targets ~rng =
  let n = Array.length faults in
  let podem = Asc_atpg.Podem.create c in
  let dff_gates = Circuit.dffs c in
  let detected = Bitvec.create n in
  let unresolved = Bitvec.create n in
  let tests = ref [] in
  let next_target () =
    let found = ref (-1) in
    (try
       Bitvec.iter_set
         (fun f ->
           if
             (not (Bitvec.get detected f))
             && not (Bitvec.get unresolved f)
           then begin
             found := f;
             raise Exit
           end)
         targets
     with Exit -> ());
    !found
  in
  let fresh_targets_from ~state ~limit =
    (* Undetected, unresolved-free targets to try under a fixed state. *)
    let fixed =
      Array.to_list (Array.mapi (fun i g -> (g, state.(i))) dff_gates)
    in
    let tried = ref 0 in
    let result = ref None in
    (try
       Bitvec.iter_set
         (fun f ->
           if
             !result = None && !tried < limit
             && (not (Bitvec.get detected f))
             && not (Bitvec.get unresolved f)
           then begin
             incr tried;
             match
               Asc_atpg.Podem.run ~backtrack_limit ~fixed podem faults.(f)
             with
             | Asc_atpg.Podem.Test cube -> result := Some cube
             | Asc_atpg.Podem.Redundant | Asc_atpg.Podem.Aborted -> ()
           end;
           if !result <> None then raise Exit)
         targets
     with Exit -> ());
    !result
  in
  let finished = ref false in
  while not !finished do
    let f = next_target () in
    if f < 0 then finished := true
    else begin
      match Asc_atpg.Podem.run ~backtrack_limit podem faults.(f) with
      | Asc_atpg.Podem.Redundant | Asc_atpg.Podem.Aborted -> Bitvec.set unresolved f
      | Asc_atpg.Podem.Test cube ->
          let pattern = Asc_atpg.Cube.fill rng cube in
          let si = pattern.state in
          let seq = ref [ pattern.pis ] in
          (* Track the fault-free state for constrained extension. *)
          let state = ref (Kernel.good_final_state c ~state:si ~seq:[| pattern.pis |]) in
          let extending = ref true in
          while !extending && List.length !seq < Circuit.n_dffs c do
            match fresh_targets_from ~state:!state ~limit:extension_tries with
            | None -> extending := false
            | Some cube' ->
                let p' = Asc_atpg.Cube.fill rng cube' in
                seq := p'.pis :: !seq;
                state := Kernel.good_final_state c ~state:!state ~seq:[| p'.pis |]
          done;
          let test = Scan_test.create ~si ~seq:(Array.of_list (List.rev !seq)) in
          let undet =
            Bitvec.init n (fun i -> Bitvec.get targets i && not (Bitvec.get detected i))
          in
          let det = Scan_test.detect ~only:undet c test ~faults in
          (* A capture-observed detection of the original target can decay
             before the delayed scan-out; fall back to the unextended test,
             which detects it by construction, when that happens. *)
          let test, det =
            if Bitvec.get det f || Scan_test.length test = 1 then (test, det)
            else begin
              let short = Scan_test.create ~si ~seq:[| pattern.pis |] in
              (short, Scan_test.detect ~only:undet c short ~faults)
            end
          in
          Bitvec.set det f;
          Bitvec.union_into ~into:detected det;
          (* [undet] spans targets given up on earlier: one this test
             detects is resolved after all. *)
          Bitvec.diff_into ~into:unresolved det;
          tests := test :: !tests
    end
  done;
  { tests = Array.of_list (List.rev !tests); detected; unresolved }
