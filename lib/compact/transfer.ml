(* Static compaction with transfer sequences, after [7].

   The combining operation of [4] fails on a pair (tau_i, tau_j) whenever
   T_j no longer detects its needed faults from the state tau_i leaves
   behind.  [7] improves on this by inserting a *transfer sequence* T_x
   between T_i and T_j that drives the circuit from tau_i's final state
   toward SI_j:

     tau_{i,x,j} = (SI_i, T_i . T_x . T_j)

   The combination removes one scan operation (N_SV cycles) at the price
   of L(T_x) extra functional cycles, so any transfer shorter than N_SV is
   a win when coverage is preserved.

   Transfer search is simulation-based: candidate sequences (random,
   correlated walks, held vectors) of growing length are simulated from
   tau_i's scan-out state and ranked by Hamming closeness of their final
   state to SI_j; the best few candidates are then verified for coverage
   preservation exactly like a plain combination.  The paper reports [7]
   as orthogonal to its own contribution; the ablation bench measures how
   much it adds on top of [4] here. *)

open Asc_util
module Circuit = Asc_netlist.Circuit
module Scan_test = Asc_scan.Scan_test

let candidates = 12 (* transfer candidates simulated per pair *)
let verify_best = 2 (* how many of them get a full coverage check *)

type result = {
  tests : Scan_test.t array;
  combinations : int; (* plain combinations accepted *)
  transfers : int; (* transfer-enabled combinations accepted *)
  transfer_cycles : int; (* functional cycles spent on transfers *)
}

let hamming a b =
  let d = ref 0 in
  Array.iteri (fun i v -> if v <> b.(i) then incr d) a;
  !d

let run ?(max_pairs = 400) c (tests : Scan_test.t array) ~faults ~targets ~rng =
  (* Plain [4] combining first; transfers only attack the leftovers. *)
  let base = Combine.run c tests ~faults ~targets in
  let n = Array.length base.tests in
  let max_length = max 1 (Circuit.n_dffs c / 4) (* cap on L(T_x) *) in
  if n <= 1 || Circuit.n_dffs c = 0 then
    { tests = base.tests; combinations = base.combinations; transfers = 0;
      transfer_cycles = 0 }
  else begin
    let transfers = ref 0 and transfer_cycles = ref 0 and attempts = ref 0 in
    (* Coverage bookkeeping, as in Combine. *)
    let mat = Asc_scan.Tset.detection_matrix ~only:targets c base.tests ~faults in
    let book = Pair_book.create ~targets base.tests (Array.init n (Bitmat.row mat)) in
    let n_pis = Circuit.n_inputs c in
    let make_candidate len last =
      match Rng.int rng 3 with
      | 0 -> Asc_atpg.Random_tgen.generate rng ~n_pis ~len
      | 1 ->
          let v = Rng.bool_array rng n_pis in
          Array.init len (fun _ -> Array.copy v)
      | _ -> Asc_atpg.Random_tgen.walk rng ~n_pis ~len ~flip:0.2 ~start:last
    in
    let try_pair i j =
      incr attempts;
      let ti = Pair_book.test book i and tj = Pair_book.test book j in
      let from_state = Scan_test.scan_out c ti in
      (* Rank candidate transfers by how close they park the state to
         SI_j; [None] stands for the empty transfer (plain combining
         already failed, but lengths may have changed since). *)
      let last = ti.seq.(Scan_test.length ti - 1) in
      let scored = ref [ (hamming from_state tj.si, [||]) ] in
      for _ = 1 to candidates do
        let len = 1 + Rng.int rng max_length in
        let tx = make_candidate len last in
        let final = Asc_sim.Kernel.good_final_state c ~state:from_state ~seq:tx in
        scored := (hamming final tj.si + Array.length tx, tx) :: !scored
      done;
      let ranked = List.sort (fun (a, _) (b, _) -> compare a b) !scored in
      let risk = Array.of_list (Bitvec.to_list (Pair_book.at_risk book i j)) in
      let rec verify k = function
        | [] -> false
        | (_, tx) :: rest ->
            if k >= verify_best then false
            else begin
              let combined =
                Scan_test.create ~si:ti.si ~seq:(Array.concat [ ti.seq; tx; tj.seq ])
              in
              if
                Asc_fault.Seq_fsim.verify_required c ~si:combined.si ~seq:combined.seq
                  ~faults ~subset:risk
              then begin
                let union = Bitvec.union (Pair_book.row book i) (Pair_book.row book j) in
                let row = Scan_test.detect ~only:union c combined ~faults in
                Pair_book.replace book i j combined row;
                incr transfers;
                transfer_cycles := !transfer_cycles + Array.length tx;
                true
              end
              else verify (k + 1) rest
            end
      in
      verify 0 ranked
    in
    (* One greedy pass over the surviving pairs. *)
    (try
       for i = 0 to n - 1 do
         for j = 0 to n - 1 do
           if !attempts >= max_pairs then raise Exit;
           if i <> j && Pair_book.alive book i && Pair_book.alive book j then
             ignore (try_pair i j)
         done
       done
     with Exit -> ());
    {
      tests = Pair_book.survivors book;
      combinations = base.combinations;
      transfers = !transfers;
      transfer_cycles = !transfer_cycles;
    }
  end
