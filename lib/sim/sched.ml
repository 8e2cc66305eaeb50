(* Levelized schedule and override grouping shared by the difference
   kernels ({!Kernel}, 2-valued, and {!Kernel3}, 3-valued).

   Everything here is built once per kernel and read-only afterwards:
   flat CSR fanins, combinational-only fanouts (sequential edges are the
   kernels' clock-edge business), per-gate levels, the level-sorted
   schedule and its per-level offsets. *)

module Circuit = Asc_netlist.Circuit
module Gate = Asc_netlist.Gate

type t = {
  kinds : Gate.kind array;
  flat : int array; (* fanins, CSR *)
  off : int array;
  coflat : int array; (* combinational-only fanouts, CSR *)
  cooff : int array;
  level : int array;
  sched : int array; (* comb gates, ascending level (Circuit.level_order) *)
  level_off : int array; (* sched offsets per level *)
  spill_bar : int; (* queue-evaluated gates per cycle before spilling *)
  dffs : int array; (* flip-flop gate ids *)
  dff_din : int array; (* per DFF index: its next-state signal's gate id *)
  outputs : int array;
}

let create c =
  let n = Circuit.n_gates c in
  (* Fanouts with the DFF successors dropped: sequential edges are
     handled at the clock edge, so the in-cycle walk never tests gate
     kinds on the hot push path. *)
  let oflat = Circuit.fanout_flat c and ooff = Circuit.fanout_off c in
  let kinds = Array.init n (Circuit.kind c) in
  let cooff = Array.make (n + 1) 0 in
  for g = 0 to n - 1 do
    let count = ref 0 in
    for i = ooff.(g) to ooff.(g + 1) - 1 do
      if kinds.(oflat.(i)) <> Gate.Dff then incr count
    done;
    cooff.(g + 1) <- cooff.(g) + !count
  done;
  let coflat = Array.make (max 1 cooff.(n)) 0 in
  for g = 0 to n - 1 do
    let w = ref cooff.(g) in
    for i = ooff.(g) to ooff.(g + 1) - 1 do
      let s = oflat.(i) in
      if kinds.(s) <> Gate.Dff then begin
        coflat.(!w) <- s;
        incr w
      end
    done
  done;
  {
    kinds;
    flat = Circuit.fanin_flat c;
    off = Circuit.fanin_off c;
    coflat;
    cooff;
    level = Array.init n (Circuit.level c);
    sched = Circuit.level_order c;
    level_off = Circuit.level_off c;
    spill_bar = max 16 (Array.length (Circuit.level_order c) / 6);
    dffs = Circuit.dffs c;
    dff_din = Array.map (Circuit.dff_input c) (Circuit.dffs c);
    outputs = Circuit.outputs c;
  }

let n_levels t = Array.length t.level_off - 1

(* One level bucket per level, sized to the level's population. *)
let buckets t =
  Array.init (n_levels t) (fun l ->
      Array.make (max 1 (t.level_off.(l + 1) - t.level_off.(l))) 0)

type grouped = {
  source : Override.t array; (* pin = -1 on Input/Dff, input order *)
  dff_pin0 : (int * Override.t list) list; (* DFF index -> pin-0 overrides *)
  comb : (int * Override.t list) list; (* comb gate -> its overrides *)
}

(* Group [overrides] by attachment point.  Comb-gate and DFF-pin-0 lists
   are built by consing a left-to-right scan, so each holds its overrides
   in reverse list order; source overrides keep list order.  Overrides in
   disjoint lanes commute, so the order matters only where two of them
   force the same pin in the same lane; fixing it here makes the 2- and
   3-valued kernels agree there too. *)
let group c ~kinds overrides =
  let rec add g o = function
    | [] -> [ (g, [ o ]) ]
    | (g', l) :: rest when g' = g -> (g, o :: l) :: rest
    | e :: rest -> e :: add g o rest
  in
  let source = ref [] and pin0 = ref [] and comb = ref [] in
  List.iter
    (fun (o : Override.t) ->
      match kinds.(o.gate) with
      | Gate.Input -> source := o :: !source
      | Gate.Dff ->
          if o.pin = -1 then source := o :: !source
          else pin0 := add (Circuit.dff_index c o.gate) o !pin0
      | _ -> comb := add o.gate o !comb)
    overrides;
  { source = Array.of_list (List.rev !source); dff_pin0 = !pin0; comb = !comb }
