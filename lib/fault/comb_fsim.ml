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
   included — and [flush] drains kernel-local counters into telemetry at
   chunk end. *)
let make_sim c tel =
  let k = Kernel.create c in
  let gv = Array.make (Circuit.n_gates c) 0 in
  let prep group =
    Kernel.good_cycle k ~pi_words:group.pi_words ~state:group.state_words ~v:gv
  in
  let det group fault =
    Kernel.set_overrides k [ Fault.to_override fault ~lanes:Word.mask ];
    Kernel.reset k;
    Kernel.cycle k ~gw:gv;
    let d = ref (Kernel.po_diff k) in
    Kernel.finish_cycle k ~gw:gv;
    d := !d lor Kernel.state_diff_word k;
    !d land group.lanes
  in
  let flush () =
    Telemetry.add tel Telemetry.Cone_gates_evaluated (Kernel.take_evaluated k)
  in
  (prep, det, flush)

(* Chunked parallel sweep over pattern groups (see Asc_util.Domain_pool):
   each chunk simulates a contiguous group range on a private engine and
   fills its own slot of [parts]; the submitter merges in index order. *)
let sweep_groups ?pool groups ~chunk ~merge ~empty =
  let n = Array.length groups in
  let ranges = Domain_pool.split ~n ~pieces:(Domain_pool.chunk_count pool n) in
  let parts = Array.make (Array.length ranges) empty in
  Domain_pool.run_opt pool (Array.length ranges) (fun ci -> parts.(ci) <- chunk ranges.(ci));
  Array.iteri (fun ci part -> merge ranges.(ci) part) parts

(* Detection matrix: rows are patterns, columns are faults.  [only]
   restricts the simulated fault indices (default: all). *)
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
  let chunk (start, count) =
    let prep, det, flush = make_sim c tel in
    let base0 = groups.(start).base in
    let last = groups.(start + count - 1) in
    let rows =
      Array.init (last.base + last.count - base0) (fun _ -> Bitvec.create n_faults)
    in
    let sims = ref 0 and hits = ref 0 in
    for gi = start to start + count - 1 do
      Budget.check budget;
      let group = groups.(gi) in
      prep group;
      let simulate fi =
        incr sims;
        let d = det group faults.(fi) in
        hits := !hits + Word.popcount d;
        Word.iter_set (fun lane -> Bitvec.set rows.(group.base - base0 + lane) fi) d
      in
      match only with
      | None ->
          for fi = 0 to n_faults - 1 do
            simulate fi
          done
      | Some mask -> Bitvec.iter_set simulate mask
    done;
    Telemetry.add tel Telemetry.Faults_simulated !sims;
    Telemetry.add tel Telemetry.Faulty_cycles !sims;
    Telemetry.add tel Telemetry.Good_cycles count;
    Telemetry.add tel Telemetry.Fault_detections !hits;
    Telemetry.add tel Telemetry.Budget_polls count;
    flush ();
    rows
  in
  sweep_groups ?pool groups ~chunk ~empty:[||] ~merge:(fun (start, _) rows ->
      let base0 = groups.(start).base in
      Array.iteri (fun k row -> Bitmat.set_row mat (base0 + k) row) rows);
  mat

(* Union detection: the set of fault indices detected by at least one
   pattern.  [only] restricts the simulated faults.  Sequentially, a fault
   already detected by an earlier group is skipped; across domains the
   skip applies within each chunk only (results are identical, some
   redundant simulation is traded for wall-clock). *)
let detect_union ?pool ?(budget = Budget.unlimited) ?tel ?only c ~patterns ~faults =
  Telemetry.span tel "fsim:union"
    ~args:
      [
        ("patterns", string_of_int (Array.length patterns));
        ("faults", string_of_int (Array.length faults));
      ]
  @@ fun () ->
  let n_faults = Array.length faults in
  let det = Bitvec.create n_faults in
  let groups = pack c patterns in
  let chunk (start, count) =
    let prep, detw, flush = make_sim c tel in
    let local = Bitvec.create n_faults in
    let sims = ref 0 in
    for gi = start to start + count - 1 do
      Budget.check budget;
      let group = groups.(gi) in
      prep group;
      let simulate fi =
        if not (Bitvec.get local fi) then begin
          incr sims;
          if detw group faults.(fi) <> 0 then Bitvec.set local fi
        end
      in
      match only with
      | None ->
          for fi = 0 to n_faults - 1 do
            simulate fi
          done
      | Some mask -> Bitvec.iter_set simulate mask
    done;
    Telemetry.add tel Telemetry.Faults_simulated !sims;
    Telemetry.add tel Telemetry.Faulty_cycles !sims;
    Telemetry.add tel Telemetry.Good_cycles count;
    Telemetry.add tel Telemetry.Fault_detections (Bitvec.count local);
    Telemetry.add tel Telemetry.Budget_polls count;
    flush ();
    local
  in
  sweep_groups ?pool groups ~chunk ~empty:(Bitvec.create n_faults)
    ~merge:(fun _ local -> Bitvec.union_into ~into:det local);
  det

(* Per-pattern detection of a *single* fault: which patterns detect it. *)
let patterns_detecting c ~patterns ~fault =
  let result = Bitvec.create (Array.length patterns) in
  let prep, det, _flush = make_sim c None in
  Array.iter
    (fun group ->
      prep group;
      let d = det group fault in
      Word.iter_set (fun lane -> Bitvec.set result (group.base + lane)) d)
    (pack c patterns);
  result
