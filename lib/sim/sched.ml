(* Levelized schedule and override grouping shared by the difference
   kernels ({!Kernel}, 2-valued, and {!Kernel3}, 3-valued) and by PODEM's
   event-driven implication.

   Every array here is computed once per netlist by {!Circuit.make} and
   shared read-only by every kernel and domain: flat CSR fanins,
   combinational-only fanouts (sequential edges are the kernels'
   clock-edge business), per-gate levels, the level-sorted schedule and
   its per-level offsets.  A kernel allocates only its working arrays. *)

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
  {
    kinds = Circuit.kinds c;
    flat = Circuit.fanin_flat c;
    off = Circuit.fanin_off c;
    coflat = Circuit.comb_fanout_flat c;
    cooff = Circuit.comb_fanout_off c;
    level = Circuit.levels c;
    sched = Circuit.level_order c;
    level_off = Circuit.level_off c;
    spill_bar = max 16 (Array.length (Circuit.level_order c) / 6);
    dffs = Circuit.dffs c;
    dff_din = Circuit.dff_inputs c;
    outputs = Circuit.outputs c;
  }

let n_levels t = Array.length t.level_off - 1

(* One level bucket per level, sized to the level's population. *)
let buckets t =
  Array.init (n_levels t) (fun l ->
      Array.make (max 1 (t.level_off.(l + 1) - t.level_off.(l))) 0)

let union_lanes l = List.fold_left (fun acc (o : Override.t) -> acc lor o.lanes) 0 l

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
