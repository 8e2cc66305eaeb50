(* Immutable gate-level sequential circuit.

   Gates are identified by dense integer ids.  [order] lists every
   non-source gate in a topological order of the combinational graph (DFF
   fanin edges are sequential and impose no ordering constraint), so a single
   left-to-right sweep over [order] evaluates the combinational logic. *)

type t = {
  name : string;
  kinds : Gate.kind array;
  fanins : int array array;
  fanouts : int array array;
  inputs : int array;
  outputs : int array;
  dffs : int array;
  signal_names : string array;
  order : int array;
  level : int array;
  pi_index : int array; (* gate id -> index in [inputs], or -1 *)
  dff_index : int array; (* gate id -> index in [dffs], or -1 *)
  (* Flat levelized schedule, shared read-only by every simulation engine:
     gate [g]'s fanins are [fanin_flat.(fanin_off.(g)) ..
     fanin_flat.(fanin_off.(g+1) - 1)] (same for fanouts), and
     [level_order] lists the non-source gates sorted by (level, id) with
     [level_off.(l) .. level_off.(l+1) - 1] slicing out level [l];
     [comb_fanout_*] is the fanout CSR without DFF successors, and
     [dff_inputs] the next-state gate of each DFF index. *)
  fanin_flat : int array;
  fanin_off : int array;
  fanout_flat : int array;
  fanout_off : int array;
  comb_fanout_flat : int array;
  comb_fanout_off : int array;
  level_order : int array;
  level_off : int array;
  dff_inputs : int array;
}

let name t = t.name
let n_gates t = Array.length t.kinds
let n_inputs t = Array.length t.inputs
let n_outputs t = Array.length t.outputs
let n_dffs t = Array.length t.dffs

let kind t g = t.kinds.(g)
let fanins t g = t.fanins.(g)
let fanouts t g = t.fanouts.(g)
let signal_name t g = t.signal_names.(g)
let level t g = t.level.(g)

let inputs t = t.inputs
let outputs t = t.outputs
let dffs t = t.dffs
let order t = t.order

let pi_index t g = t.pi_index.(g)
let dff_index t g = t.dff_index.(g)

let fanin_flat t = t.fanin_flat
let fanin_off t = t.fanin_off
let fanout_flat t = t.fanout_flat
let fanout_off t = t.fanout_off
let comb_fanout_flat t = t.comb_fanout_flat
let comb_fanout_off t = t.comb_fanout_off
let level_order t = t.level_order
let level_off t = t.level_off
let kinds t = t.kinds
let levels t = t.level
let dff_inputs t = t.dff_inputs

(* The next-state signal feeding flip-flop [d] (a gate id). *)
let dff_input t d =
  match t.kinds.(d) with
  | Gate.Dff -> t.fanins.(d).(0)
  | _ -> invalid_arg "Circuit.dff_input: not a DFF"

exception Structural_error of string

let fail fmt = Format.kasprintf (fun s -> raise (Structural_error s)) fmt

(* Build derived structure (fanouts, topological order, levels) and check
   structural sanity.  Raises [Structural_error] on malformed input,
   including combinational cycles. *)
let make ~name ~kinds ~fanins ~inputs ~outputs ~dffs ~signal_names =
  let n = Array.length kinds in
  if Array.length fanins <> n || Array.length signal_names <> n then
    fail "circuit %s: array length mismatch" name;
  Array.iteri
    (fun g fi ->
      if not (Gate.arity_ok kinds.(g) (Array.length fi)) then
        fail "circuit %s: gate %s (%s) has illegal arity %d" name signal_names.(g)
          (Gate.to_string kinds.(g)) (Array.length fi);
      Array.iter
        (fun f ->
          if f < 0 || f >= n then
            fail "circuit %s: gate %s has out-of-range fanin %d" name signal_names.(g) f)
        fi)
    fanins;
  Array.iter
    (fun o -> if o < 0 || o >= n then fail "circuit %s: out-of-range output %d" name o)
    outputs;
  Array.iteri
    (fun i g ->
      if kinds.(g) <> Gate.Input then
        fail "circuit %s: inputs.(%d) is not an Input gate" name i)
    inputs;
  Array.iteri
    (fun i g ->
      if kinds.(g) <> Gate.Dff then fail "circuit %s: dffs.(%d) is not a DFF" name i)
    dffs;
  (* Every Input/Dff gate must be registered exactly once. *)
  let pi_index = Array.make n (-1) in
  Array.iteri
    (fun i g ->
      if pi_index.(g) >= 0 then fail "circuit %s: duplicate input registration" name;
      pi_index.(g) <- i)
    inputs;
  let dff_index = Array.make n (-1) in
  Array.iteri
    (fun i g ->
      if dff_index.(g) >= 0 then fail "circuit %s: duplicate DFF registration" name;
      dff_index.(g) <- i)
    dffs;
  Array.iteri
    (fun g k ->
      match k with
      | Gate.Input ->
          if pi_index.(g) < 0 then
            fail "circuit %s: Input gate %s not in inputs" name signal_names.(g)
      | Gate.Dff ->
          if dff_index.(g) < 0 then
            fail "circuit %s: DFF gate %s not in dffs" name signal_names.(g)
      | _ -> ())
    kinds;
  (* Fanouts. *)
  let fanout_count = Array.make n 0 in
  Array.iter (Array.iter (fun f -> fanout_count.(f) <- fanout_count.(f) + 1)) fanins;
  let fanouts = Array.init n (fun g -> Array.make fanout_count.(g) (-1)) in
  let fill = Array.make n 0 in
  Array.iteri
    (fun g fi ->
      Array.iter
        (fun f ->
          fanouts.(f).(fill.(f)) <- g;
          fill.(f) <- fill.(f) + 1)
        fi)
    fanins;
  (* Kahn's topological sort over combinational edges.  DFF gates are
     sources (their fanin edge is sequential); Input/Const gates have no
     fanins anyway. *)
  let is_comb g = not (Gate.is_source kinds.(g)) in
  let indegree = Array.make n 0 in
  Array.iteri
    (fun g fi -> if is_comb g then indegree.(g) <- Array.length fi)
    fanins;
  let queue = Queue.create () in
  let level = Array.make n 0 in
  (* Seed: sources feed their fanouts; combinational gates with no pending
     fanins (constants) start immediately. *)
  for g = 0 to n - 1 do
    if is_comb g && indegree.(g) = 0 then Queue.add g queue
  done;
  let ready_from g =
    Array.iter
      (fun s ->
        if is_comb s then begin
          indegree.(s) <- indegree.(s) - 1;
          if indegree.(s) = 0 then Queue.add s queue
        end)
      fanouts.(g)
  in
  for g = 0 to n - 1 do
    if Gate.is_source kinds.(g) then ready_from g
  done;
  let order = Array.make (max 0 (n - Array.length inputs - Array.length dffs)) (-1) in
  let pos = ref 0 in
  while not (Queue.is_empty queue) do
    let g = Queue.pop queue in
    order.(!pos) <- g;
    incr pos;
    let lv = Array.fold_left (fun acc f -> max acc (level.(f) + 1)) 0 fanins.(g) in
    level.(g) <- lv;
    ready_from g
  done;
  if !pos <> Array.length order then
    fail "circuit %s: combinational cycle detected (%d of %d gates ordered)" name !pos
      (Array.length order);
  (* Flat fanin/fanout arrays (CSR layout): one contiguous int array per
     direction keeps the evaluation sweep cache-friendly and lets engines
     share the schedule instead of flattening per instance. *)
  let flatten rows =
    let off = Array.make (n + 1) 0 in
    for g = 0 to n - 1 do
      off.(g + 1) <- off.(g) + Array.length rows.(g)
    done;
    let flat = Array.make (max 1 off.(n)) 0 in
    for g = 0 to n - 1 do
      Array.iteri (fun i f -> flat.(off.(g) + i) <- f) rows.(g)
    done;
    (flat, off)
  in
  let fanin_flat, fanin_off = flatten fanins in
  let fanout_flat, fanout_off = flatten fanouts in
  (* Sequential edges are the simulators' clock-edge business: their
     in-cycle walks push only combinational fanouts. *)
  let comb_fanout_off = Array.make (n + 1) 0 in
  for g = 0 to n - 1 do
    comb_fanout_off.(g + 1) <-
      Array.fold_left (fun k s -> if is_comb s then k + 1 else k) comb_fanout_off.(g) fanouts.(g)
  done;
  let comb_fanout_flat = Array.make (max 1 comb_fanout_off.(n)) 0 in
  for g = 0 to n - 1 do
    ignore
      (Array.fold_left
         (fun k s ->
           if is_comb s then begin
             comb_fanout_flat.(k) <- s;
             k + 1
           end
           else k)
         comb_fanout_off.(g) fanouts.(g))
  done;
  (* Level-bucketed evaluation order: counting sort of the non-source gates
     by level, ties broken by gate id, so the levelized kernel can walk one
     level at a time. *)
  let maxl = Array.fold_left max 0 level in
  let level_off = Array.make (maxl + 2) 0 in
  for g = 0 to n - 1 do
    if is_comb g then level_off.(level.(g) + 1) <- level_off.(level.(g) + 1) + 1
  done;
  for l = 1 to maxl + 1 do
    level_off.(l) <- level_off.(l) + level_off.(l - 1)
  done;
  let level_order = Array.make (Array.length order) (-1) in
  let cursor = Array.copy level_off in
  for g = 0 to n - 1 do
    if is_comb g then begin
      level_order.(cursor.(level.(g))) <- g;
      cursor.(level.(g)) <- cursor.(level.(g)) + 1
    end
  done;
  {
    name;
    kinds;
    fanins;
    fanouts;
    inputs;
    outputs;
    dffs;
    signal_names;
    order;
    level;
    pi_index;
    dff_index;
    fanin_flat;
    fanin_off;
    fanout_flat;
    fanout_off;
    comb_fanout_flat;
    comb_fanout_off;
    level_order;
    level_off;
    dff_inputs = Array.map (fun d -> fanins.(d).(0)) dffs;
  }

let max_level t = Array.fold_left max 0 t.level

let find_signal t name =
  let n = n_gates t in
  let rec go g =
    if g >= n then None else if t.signal_names.(g) = name then Some g else go (g + 1)
  in
  go 0

let kind_counts t =
  let tbl = Hashtbl.create 16 in
  Array.iter
    (fun k ->
      let c = try Hashtbl.find tbl k with Not_found -> 0 in
      Hashtbl.replace tbl k (c + 1))
    t.kinds;
  Hashtbl.fold (fun k c acc -> (k, c) :: acc) tbl []

let pp_stats fmt t =
  Format.fprintf fmt "circuit %s: %d gates, %d PIs, %d POs, %d FFs, depth %d" t.name
    (n_gates t) (n_inputs t) (n_outputs t) (n_dffs t) (max_level t)
