(* Transition (gate-delay) faults — the extension behind the paper's
   at-speed claim.

   The paper argues that long primary input sequences applied at-speed help
   detect delay defects but reports no delay numbers; this module makes the
   claim measurable.  A slow-to-rise (resp. slow-to-fall) fault at a line
   delays every rising (falling) transition of that line past the capture
   edge: in the faulty machine the line shows its previous value for one
   cycle whenever it would transition that way.  Faulty effects propagate
   and accumulate through the state like any fault effect.

   Consequences that make this the right model here:
   - a length-one scan test can never detect a transition fault (its only
     cycle has no at-speed predecessor to launch a transition);
   - long at-speed sequences launch many transitions per line, giving the
     repeated detection opportunities the paper alludes to.

   Simulation runs on the stuck-at kernel (Asc_sim.Kernel): a transition
   fault is a stuck-at override whose lanes change every cycle.  A line
   that cannot rise (slow-to-rise, previous faulty value 0) or fall
   (slow-to-fall, previous value 1) in this cycle is stuck at that
   previous value for the cycle; the first cycle has no override, since
   nothing launched a transition.  The previous faulty value of a site is
   its good value XOR the kernel's difference there, read before the
   clock edge.  Each group of 62 faults is one [Sweep.run] item over the
   shared good trace, as in Seq_fsim's stuck-at detection. *)

open Asc_util
module Circuit = Asc_netlist.Circuit
module Kernel = Asc_sim.Kernel
module Override = Asc_sim.Override
module Scan_test = Asc_scan.Scan_test
module Seq_fsim = Asc_fault.Seq_fsim

type t = { gate : int; rising : bool }
(* [rising = true] — slow-to-rise; the site is the gate's output line. *)

let to_string c f =
  Printf.sprintf "%s/%s" (Circuit.signal_name c f.gate)
    (if f.rising then "str" else "stf")

(* Both polarities on every gate output (including PIs and flip-flop
   outputs, whose transitions are launched by input changes and state
   updates respectively). *)
let universe c =
  let acc = ref [] in
  for g = Circuit.n_gates c - 1 downto 0 do
    acc := { gate = g; rising = false } :: !acc;
    acc := { gate = g; rising = true } :: !acc
  done;
  Array.of_list !acc

(* The overrides of the cycle after the settled one (good bits [row]):
   each lane of [members] whose faulty value [prev] at its site is the
   value its transition leaves (0 for slow-to-rise, 1 for slow-to-fall)
   is held at [prev]. *)
let held k row (faults : t array) members =
  let acc = ref [] in
  Array.iteri
    (fun lane fi ->
      let f = faults.(fi) in
      let good = Bytes.get row f.gate = '\001' in
      let prev = good <> Word.get (Kernel.diff k f.gate) lane in
      if prev <> f.rising then
        acc := Override.output ~gate:f.gate ~stuck:prev ~lanes:(1 lsl lane) :: !acc)
    members;
  !acc

(* Detection word of the faults [members] over the good rows [gb], as in
   [Seq_fsim]'s stuck-at detection: detected lanes are pruned, the loop
   exits once every lane has seen a PO difference, and the scan-out
   difference is folded in only when it did not. *)
let detect_group k (w : Asc_fault.Sweep.work) ~gb ~len ~faults members =
  let count = Array.length members in
  let lanes = if count = Word.width then Word.mask else (1 lsl count) - 1 in
  Kernel.set_overrides k [];
  Kernel.reset k;
  let det = ref 0 in
  let t = ref 0 in
  while !det <> lanes && !t < len do
    Kernel.cycle_bits k ~prune:!det ~gb:gb.(!t);
    det := !det lor Kernel.po_diff k;
    let next = held k gb.(!t) faults members in
    Kernel.finish_cycle_bits k ~gb:gb.(!t);
    Kernel.set_overrides k next;
    incr t
  done;
  if !t = len && !det <> lanes then det := !det lor Kernel.state_diff_word k;
  let d = !det land lanes in
  w.lanes <- w.lanes + count;
  w.cycles <- w.cycles + !t;
  w.hits <- w.hits + Word.popcount d;
  d

let detect ?pool ?tel ?only c (test : Scan_test.t) ~faults =
  let n = Array.length faults in
  let subset =
    match only with
    | None -> Array.init n Fun.id
    | Some mask -> Array.of_list (Bitvec.to_list mask)
  in
  let result = Bitvec.create n in
  let len = Scan_test.length test in
  if Array.length subset > 0 then
    Telemetry.span tel "tfault:detect"
      ~args:
        [ ("faults", string_of_int (Array.length subset)); ("len", string_of_int len) ]
      (fun () ->
        let total = Array.length subset in
        let groups =
          Array.init ((total + Word.width - 1) / Word.width) (fun gi ->
              let base = gi * Word.width in
              Array.sub subset base (min Word.width (total - base)))
        in
        let gb = Seq_fsim.good_gb ?tel c ~si:test.si ~seq:test.seq in
        Asc_fault.Sweep.run ?pool ?tel
          ~engine:(fun _ -> Kernel.create c)
          ~evaluated:Kernel.take_evaluated ~init:0 (Array.length groups)
          (fun k w gi -> detect_group k w ~gb ~len ~faults groups.(gi))
        |> Array.iteri (fun gi d ->
               Word.iter_set (fun lane -> Bitvec.set result groups.(gi).(lane)) d));
  result

(* Coverage of a whole test set, with fault dropping across tests. *)
let coverage ?pool ?tel c (tests : Scan_test.t array) ~faults =
  let n = Array.length faults in
  let detected = Bitvec.create n in
  Array.iter
    (fun test ->
      if Scan_test.length test > 1 then begin
        (* Length-one tests cannot detect transition faults: skip. *)
        let remaining = Bitvec.init n (fun i -> not (Bitvec.get detected i)) in
        if not (Bitvec.is_empty remaining) then
          Bitvec.union_into ~into:detected
            (detect ?pool ?tel ~only:remaining c test ~faults)
      end)
    tests;
  detected
