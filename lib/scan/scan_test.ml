(* Scan tests for full-scan circuits.

   Following the paper's notation, a test is tau_i = (SI_i, T_i, SO_i): a
   scan-in vector, a primary input sequence applied at-speed with the
   functional clock, and the expected fault-free scan-out.  SO_i is derived
   (it is the fault-free final state), so the representation keeps only
   (SI, T), as the paper does from Section 3 on. *)

module Circuit = Asc_netlist.Circuit
module Pattern = Asc_sim.Pattern
module Seq_fsim = Asc_fault.Seq_fsim

type t = { si : bool array; seq : bool array array }

let create ~si ~seq =
  if Array.length seq = 0 then invalid_arg "Scan_test.create: empty sequence";
  { si; seq }

(* A combinational pattern viewed as a scan test with a length-one PI
   sequence. *)
let of_pattern (p : Pattern.t) = { si = p.state; seq = [| p.pis |] }

let length t = Array.length t.seq

(* The paper's combining operation: drop SO_i and SI_j, concatenate the
   sequences.  tau_{i,j} = (SI_i, T_i . T_j). *)
let combine a b = { si = a.si; seq = Array.append a.seq b.seq }

(* Truncate to scan out at time unit [u] (inclusive; [u] counts from 0). *)
let truncate t ~u =
  if u < 0 || u >= length t then invalid_arg "Scan_test.truncate";
  { t with seq = Array.sub t.seq 0 (u + 1) }

(* Remove the vector at position [p]. *)
let omit t ~p =
  let len = length t in
  if p < 0 || p >= len then invalid_arg "Scan_test.omit";
  if len = 1 then invalid_arg "Scan_test.omit: cannot empty a test";
  { t with seq = Array.init (len - 1) (fun i -> if i < p then t.seq.(i) else t.seq.(i + 1)) }

(* Remove the [count] vectors starting at position [p]. *)
let omit_span t ~p ~count =
  let len = length t in
  if p < 0 || count < 1 || p + count > len then invalid_arg "Scan_test.omit_span";
  if count = len then invalid_arg "Scan_test.omit_span: cannot empty a test";
  { t with seq = Array.init (len - count) (fun i -> if i < p then t.seq.(i) else t.seq.(i + count)) }

(* Detection through the sequential fault simulator. *)
let detect ?pool ?budget ?tel ?only c t ~faults =
  Seq_fsim.detect ?pool ?budget ?tel ?only c ~si:t.si ~seq:t.seq ~faults

(* The expected fault-free scan-out vector SO. *)
let scan_out c t = Asc_sim.Kernel.good_final_state c ~state:t.si ~seq:t.seq

let equal a b = a.si = b.si && a.seq = b.seq

let to_string t =
  let bits a = String.init (Array.length a) (fun i -> if a.(i) then '1' else '0') in
  Printf.sprintf "SI=%s T=[%s]" (bits t.si)
    (String.concat ";" (Array.to_list (Array.map bits t.seq)))
