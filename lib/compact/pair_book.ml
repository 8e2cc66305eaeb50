(* Coverage bookkeeping for the pair-combining loops: Combine ([4]),
   Transfer ([7]) and the partial-scan Phase 4.

   Each live test i keeps its detection row r_i over the target faults,
   and n(f) counts the live rows that hold fault f.  Two count classes are
   kept as bitsets, once = {f : n(f) = 1} and twice = {f : n(f) = 2}.
   Replacing tau_i and tau_j by one test can lose only the faults no other
   live test detects:

     at_risk(i, j) = ((r_i xor r_j) & once) | (r_i & r_j & twice)

   A fault in one of the rows is at risk iff its count is 1, a fault in
   both iff its count is 2.  A fault in both rows has n(f) >= 2, so
   (r_i | r_j) & once is the same first term.  Counts, and with them the
   classes, change only when a combination is accepted.

   Failed pairs are remembered.  A pair (i, j) fails when some at-risk
   fault f is missed by the combined test.  While neither test changes,
   the combined test is the same, and f's count changes only if an
   accepted pair (a, b) puts f in its new row: f is in no live row but
   r_i and r_j, so it is in neither r_a nor r_b.  Accepting (a, b)
   therefore forgets the failures of a, and of every live test whose row
   holds a fault the new row gains beyond r_a | r_b; every other failed
   pair would fail again. *)

open Asc_util
module Scan_test = Asc_scan.Scan_test

type t = {
  tests : Scan_test.t array;
  alive : bool array;
  rows : Bitvec.t array;
  counts : int array;
  once : Bitvec.t;
  twice : Bitvec.t;
  failed : Bitmat.t; (* (i, j) set: the pair failed and neither test changed since *)
}

let create ~targets tests rows =
  let n = Array.length tests in
  let n_faults = Bitvec.length targets in
  let rows = Array.map (fun r -> Bitvec.inter r targets) rows in
  let counts = Array.make n_faults 0 in
  Array.iter (Bitvec.iter_set (fun f -> counts.(f) <- counts.(f) + 1)) rows;
  {
    tests = Array.copy tests;
    alive = Array.make n true;
    rows;
    counts;
    once = Bitvec.init n_faults (fun f -> counts.(f) = 1);
    twice = Bitvec.init n_faults (fun f -> counts.(f) = 2);
    failed = Bitmat.create n n;
  }

let size t = Array.length t.tests
let test t i = t.tests.(i)
let alive t i = t.alive.(i)
let row t i = t.rows.(i)

let at_risk t i j =
  let ri = t.rows.(i) and rj = t.rows.(j) in
  let risk = Bitvec.union ri rj in
  Bitvec.inter_into ~into:risk t.once;
  let both = Bitvec.inter ri rj in
  Bitvec.inter_into ~into:both t.twice;
  Bitvec.union_into ~into:risk both;
  risk

let exposed t i =
  let e = Bitvec.inter t.rows.(i) t.twice in
  Bitvec.union_into ~into:e t.once;
  e

let failed t i j = Bitmat.get t.failed i j
let mark_failed t i j = Bitmat.set t.failed i j

let forget t x =
  Bitvec.fill (Bitmat.row t.failed x) false;
  for y = 0 to size t - 1 do
    Bitmat.clear t.failed y x
  done

let replace t i j test row =
  let old = Bitvec.union t.rows.(i) t.rows.(j) in
  let bump d = Bitvec.iter_set (fun f -> t.counts.(f) <- t.counts.(f) + d) in
  bump (-1) t.rows.(i);
  bump (-1) t.rows.(j);
  bump 1 row;
  Bitvec.iter_set
    (fun f ->
      Bitvec.assign t.once f (t.counts.(f) = 1);
      Bitvec.assign t.twice f (t.counts.(f) = 2))
    (Bitvec.union old row);
  let gained = Bitvec.diff row old in
  t.tests.(i) <- test;
  t.rows.(i) <- row;
  t.rows.(j) <- Bitvec.create (Bitvec.length row);
  t.alive.(j) <- false;
  forget t i;
  if not (Bitvec.is_empty gained) then
    Array.iteri
      (fun x r ->
        if t.alive.(x) && not (Bitvec.is_empty (Bitvec.inter r gained)) then forget t x)
      t.rows

let survivors t =
  let kept = ref [] in
  for i = size t - 1 downto 0 do
    if t.alive.(i) then kept := t.tests.(i) :: !kept
  done;
  Array.of_list !kept
