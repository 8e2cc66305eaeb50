(* Combinational fault simulation, parallel-pattern single-fault (PPSFP).

   Patterns (PI + present-state assignments) are packed 62 to a word; each
   fault is injected in all lanes and the faulty outputs and next-state
   values are compared against the fault-free ones.  Under full scan this
   is exactly the detection condition of a scan test with a length-one
   primary input sequence: a difference at a PO or in the captured state
   (observed by the scan-out) detects the fault. *)

open Asc_util
module Circuit = Asc_netlist.Circuit
module Kernel = Asc_sim.Kernel
module Pattern = Asc_sim.Pattern

type group = {
  pi_words : int array; (* per PI *)
  state_words : int array; (* per DFF *)
  lanes : int; (* mask of lanes carrying a real pattern *)
  base : int; (* index of the first pattern of this group *)
  count : int;
}

let pack c (patterns : Pattern.t array) =
  let n_pis = Circuit.n_inputs c and n_ffs = Circuit.n_dffs c in
  let total = Array.length patterns in
  let n_groups = (total + Word.width - 1) / Word.width in
  Array.init n_groups (fun gi ->
      let base = gi * Word.width in
      let count = min Word.width (total - base) in
      let pi_words = Array.make n_pis 0 in
      let state_words = Array.make n_ffs 0 in
      for lane = 0 to count - 1 do
        let p = patterns.(base + lane) in
        if Array.length p.pis <> n_pis || Array.length p.state <> n_ffs then
          invalid_arg "Comb_fsim.pack: pattern arity mismatch";
        for i = 0 to n_pis - 1 do
          if p.pis.(i) then pi_words.(i) <- Word.set pi_words.(i) lane
        done;
        for i = 0 to n_ffs - 1 do
          if p.state.(i) then state_words.(i) <- Word.set state_words.(i) lane
        done
      done;
      let lanes = if count = Word.width then Word.mask else (1 lsl count) - 1 in
      { pi_words; state_words; lanes; base; count })

(* Per-chunk simulator: [prep] evaluates a pattern group's good machine
   once with the closure-free schedule sweep, [det] runs one fault as a
   cone-limited difference against it and returns its detection word —
   a difference at a PO or in the captured state, DFF pin-0 overrides
   included. *)
type sim = { k : Kernel.t; gv : int array }

let make_sim c = { k = Kernel.create c; gv = Array.make (Circuit.n_gates c) 0 }

let prep s group =
  Kernel.good_cycle s.k ~pi_words:group.pi_words ~state:group.state_words ~v:s.gv

let det s group fault =
  Kernel.set_overrides s.k [ Fault.to_override fault ~lanes:Word.mask ];
  Kernel.reset s.k;
  Kernel.cycle s.k ~gw:s.gv;
  let d = Kernel.po_diff s.k in
  Kernel.finish_cycle s.k ~gw:s.gv;
  (d lor Kernel.state_diff_word s.k) land group.lanes

(* Detection matrix: rows are patterns, columns are faults.  [only]
   restricts the simulated fault indices (default: all).  The items are
   pattern groups, each setting bits in its own rows. *)
let detect_matrix ?pool ?(budget = Budget.unlimited) ?tel ?only c ~patterns ~faults =
  Telemetry.span tel "fsim:matrix"
    ~args:
      [
        ("patterns", string_of_int (Array.length patterns));
        ("faults", string_of_int (Array.length faults));
      ]
  @@ fun () ->
  let n_faults = Array.length faults in
  let mat = Bitmat.create (Array.length patterns) n_faults in
  let groups = pack c patterns in
  let simulated =
    match only with
    | None -> Array.init n_faults Fun.id
    | Some mask -> Array.of_list (Bitvec.to_list mask)
  in
  ignore
    (Sweep.run ?pool ~budget ?tel
       ~engine:(fun _ -> make_sim c)
       ~evaluated:(fun s -> Kernel.take_evaluated s.k)
       ~init:() (Array.length groups)
       (fun s w gi ->
         let group = groups.(gi) in
         prep s group;
         Array.iter
           (fun fi ->
             let d = det s group faults.(fi) in
             w.hits <- w.hits + Word.popcount d;
             Word.iter_set (fun lane -> Bitmat.set mat (group.base + lane) fi) d)
           simulated;
         w.lanes <- w.lanes + Array.length simulated;
         w.cycles <- w.cycles + Array.length simulated)
      : unit array);
  Telemetry.add tel Telemetry.Good_cycles (Array.length groups);
  mat

(* Per-pattern detection of a *single* fault: which patterns detect it. *)
let patterns_detecting c ~patterns ~fault =
  let result = Bitvec.create (Array.length patterns) in
  let s = make_sim c in
  Array.iter
    (fun group ->
      prep s group;
      let d = det s group fault in
      Word.iter_set (fun lane -> Bitvec.set result (group.base + lane)) d)
    (pack c patterns);
  result
