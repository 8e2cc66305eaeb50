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

   Simulation is parallel-fault like the stuck-at simulator: 62 faulty
   machines per word, each lane delaying transitions at its own site. *)

open Asc_util
module Circuit = Asc_netlist.Circuit
module Gate = Asc_netlist.Gate
module Kernel = Asc_sim.Kernel
module Scan_test = Asc_scan.Scan_test

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

(* One group of up to 62 faulty machines. *)
type group = {
  members : int array;
  lanes : int;
  (* Per gate: lanes whose site is this gate, split by polarity. *)
  str_mask : (int, int) Hashtbl.t;
  stf_mask : (int, int) Hashtbl.t;
}

let make_groups (faults : t array) subset =
  let total = Array.length subset in
  let n_groups = (total + Word.width - 1) / Word.width in
  Array.init n_groups (fun gi ->
      let base = gi * Word.width in
      let count = min Word.width (total - base) in
      let members = Array.sub subset base count in
      let str_mask = Hashtbl.create 64 and stf_mask = Hashtbl.create 64 in
      Array.iteri
        (fun lane fi ->
          let f = faults.(fi) in
          let tbl = if f.rising then str_mask else stf_mask in
          let cur = Option.value ~default:0 (Hashtbl.find_opt tbl f.gate) in
          Hashtbl.replace tbl f.gate (cur lor (1 lsl lane)))
        members;
      let lanes = if count = Word.width then Word.mask else (1 lsl count) - 1 in
      { members; lanes; str_mask; stf_mask })

(* Apply the delay rule at gate [g]: lanes in [str] delay rising edges
   (previous 0, current 1 -> show 0), lanes in [stf] delay falling edges.
   [prev] is the faulty line value of the previous cycle in the site
   lanes; returns the visible value and the updated [prev]. *)
let delay_rule ~v ~prev ~str ~stf =
  let rise = str land lnot prev land v in
  let fall = stf land prev land lnot v in
  let out = (v land lnot rise) lor fall in
  let site = str lor stf in
  (out, (prev land lnot site) lor (out land site))

(* Which of the subset faults does the scan test detect? *)
let detect_subset c (test : Scan_test.t) ~faults ~subset =
  let result = Bitvec.create (Array.length faults) in
  if Array.length subset = 0 then result
  else begin
    let len = Scan_test.length test in
    let good = Asc_fault.Seq_fsim.good_run c ~si:test.si ~seq:test.seq in
    let n_po = Circuit.n_outputs c and n_ff = Circuit.n_dffs c in
    let n = Circuit.n_gates c in
    let sw =
      Array.map (fun vec -> Array.map Word.splat vec) test.seq
    in
    let order = Circuit.order c in
    let kinds = Array.init n (Circuit.kind c) in
    let fanins = Array.init n (Circuit.fanins c) in
    let outputs = Circuit.outputs c and dffs = Circuit.dffs c in
    let inputs = Circuit.inputs c in
    Array.iter
      (fun group ->
        let v = Array.make n 0 in
        let state = Array.map Word.splat test.si in
        (* Previous-cycle faulty value of each lane's site line (packed by
           site gate: only the site lanes of a gate's entry matter). *)
        let prev = Hashtbl.create 64 in
        let get_prev g = Option.value ~default:0 (Hashtbl.find_opt prev g) in
        let site_masks g =
          ( Option.value ~default:0 (Hashtbl.find_opt group.str_mask g),
            Option.value ~default:0 (Hashtbl.find_opt group.stf_mask g) )
        in
        let det = ref 0 in
        let u = ref 0 in
        while !det <> group.lanes && !u < len do
          let first = !u = 0 in
          let apply g value =
            let str, stf = site_masks g in
            if str lor stf = 0 then value
            else if first then begin
              (* No at-speed predecessor: no transition to delay; just
                 record the line value as the launch point. *)
              Hashtbl.replace prev g (value land (str lor stf));
              value
            end
            else begin
              let out, prev' = delay_rule ~v:value ~prev:(get_prev g) ~str ~stf in
              Hashtbl.replace prev g prev';
              out
            end
          in
          Array.iteri (fun i g -> v.(g) <- apply g sw.(!u).(i)) inputs;
          Array.iteri (fun i g -> v.(g) <- apply g state.(i)) dffs;
          for idx = 0 to Array.length order - 1 do
            let g = order.(idx) in
            let fi = fanins.(g) in
            let nf = Array.length fi in
            let body = Kernel.eval_body kinds.(g) (fun i -> v.(fi.(i))) nf in
            v.(g) <- apply g body
          done;
          for i = 0 to n_po - 1 do
            det := !det lor (v.(outputs.(i)) lxor good.po.(!u).(i))
          done;
          for i = 0 to n_ff - 1 do
            state.(i) <- v.(Circuit.dff_input c dffs.(i))
          done;
          incr u
        done;
        if !u = len && !det <> group.lanes then begin
          let gst = good.states.(len) in
          for i = 0 to n_ff - 1 do
            det := !det lor (state.(i) lxor gst.(i))
          done
        end;
        Word.iter_set
          (fun lane -> Bitvec.set result group.members.(lane))
          (!det land group.lanes))
      (make_groups faults subset);
    result
  end

let detect ?only c test ~faults =
  let subset =
    match only with
    | None -> Array.init (Array.length faults) (fun i -> i)
    | Some mask -> Array.of_list (Bitvec.to_list mask)
  in
  detect_subset c test ~faults ~subset

(* Coverage of a whole test set, with fault dropping across tests. *)
let coverage c (tests : Scan_test.t array) ~faults =
  let n = Array.length faults in
  let detected = Bitvec.create n in
  Array.iter
    (fun test ->
      if Scan_test.length test > 1 then begin
        (* Length-one tests cannot detect transition faults: skip. *)
        let remaining = Bitvec.init n (fun i -> not (Bitvec.get detected i)) in
        if not (Bitvec.is_empty remaining) then
          Bitvec.union_into ~into:detected (detect ~only:remaining c test ~faults)
      end)
    tests;
  detected
