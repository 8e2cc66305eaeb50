(* Single stuck-at faults.

   A fault site is either a gate output ([pin = -1], the stem) or one fanin
   pin of a gate ([pin >= 0], a fanout branch; for a DFF, pin 0 is the
   next-state / D line).  [stuck] is the stuck value. *)

module Circuit = Asc_netlist.Circuit
module Gate = Asc_netlist.Gate

type t = { gate : int; pin : int; stuck : bool }

let output gate stuck = { gate; pin = -1; stuck }

let input gate pin stuck =
  if pin < 0 then invalid_arg "Fault.input: negative pin";
  { gate; pin; stuck }

let equal = ( = )

let to_string c f =
  let site =
    if f.pin = -1 then Circuit.signal_name c f.gate
    else Printf.sprintf "%s.in%d" (Circuit.signal_name c f.gate) f.pin
  in
  Printf.sprintf "%s/sa%d" site (if f.stuck then 1 else 0)

(* The override that injects this fault into the given lanes. *)
let to_override f ~lanes : Asc_sim.Override.t = { gate = f.gate; pin = f.pin; stuck = f.stuck; lanes }

(* The full (uncollapsed) stuck-at universe: both polarities on every gate
   output and on every gate input pin, in a deterministic order. *)
let universe c =
  let acc = ref [] in
  for g = Circuit.n_gates c - 1 downto 0 do
    let arity = Array.length (Circuit.fanins c g) in
    for pin = arity - 1 downto 0 do
      acc := input g pin true :: !acc;
      acc := input g pin false :: !acc
    done;
    acc := output g true :: !acc;
    acc := output g false :: !acc
  done;
  Array.of_list !acc
