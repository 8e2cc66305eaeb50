(* Exhaustive truth-table checks: every gate kind, every input combination
   (arities 2 and 3 for the n-ary kinds), in the scalar reference and in
   the 2- and 3-valued kernels (good sweep and fault propagation, the
   latter through both the cone walk and the overridden-gate body),
   plus PODEM's internal evaluator's observable behaviour (via engine
   agreement). *)

open Asc_util
module Gate = Asc_netlist.Gate
module Builder = Asc_netlist.Builder

let kinds_nary = [ Gate.And; Gate.Nand; Gate.Or; Gate.Nor; Gate.Xor; Gate.Xnor ]

let reference kind ins =
  match (kind : Gate.kind) with
  | Gate.And -> List.for_all Fun.id ins
  | Gate.Nand -> not (List.for_all Fun.id ins)
  | Gate.Or -> List.exists Fun.id ins
  | Gate.Nor -> not (List.exists Fun.id ins)
  | Gate.Xor -> List.fold_left ( <> ) false ins
  | Gate.Xnor -> not (List.fold_left ( <> ) false ins)
  | Gate.Not -> not (List.hd ins)
  | Gate.Buf -> List.hd ins
  | Gate.Const0 -> false
  | Gate.Const1 -> true
  | Gate.Input | Gate.Dff -> assert false

let circuit_for kind arity =
  let b = Builder.create "tt" in
  let pis = List.init arity (fun i -> Builder.add_input b (Printf.sprintf "i%d" i)) in
  let g = Builder.add_gate b kind "g" pis in
  Builder.add_output b g;
  Builder.finalize b

(* Good PO word and PO difference word of one cycle of the 2-valued
   kernel with [overrides] injected. *)
let kernel_cycle c ~pi_words overrides =
  let k = Asc_sim.Kernel.create c in
  let gw = Array.make (Asc_netlist.Circuit.n_gates c) 0 in
  Asc_sim.Kernel.good_cycle k ~pi_words ~state:[||] ~v:gw;
  Asc_sim.Kernel.set_overrides k overrides;
  Asc_sim.Kernel.reset k;
  Asc_sim.Kernel.cycle k ~gw;
  (gw.((Asc_netlist.Circuit.outputs c).(0)), Asc_sim.Kernel.po_diff k)

(* Good row and PO detection word of one cycle of the 3-valued kernel
   with [overrides] injected. *)
let kernel3_cycle c ~pis ~state overrides =
  let k = Asc_sim.Kernel3.create c in
  let gb = Bytes.make (Asc_netlist.Circuit.n_gates c) Asc_sim.Kernel3.x in
  Asc_sim.Kernel3.good_cycle k ~pis ~state ~gb;
  Asc_sim.Kernel3.set_overrides k overrides;
  Asc_sim.Kernel3.reset k;
  Asc_sim.Kernel3.cycle k ~gb;
  (gb, Asc_sim.Kernel3.po_detect k ~gb)

let exhaustive_case kind arity () =
  let c = circuit_for kind arity in
  let g = (Asc_netlist.Circuit.outputs c).(0) in
  let pi i = (Asc_netlist.Circuit.inputs c).(i) in
  for combo = 0 to (1 lsl arity) - 1 do
    let ins = List.init arity (fun i -> (combo lsr i) land 1 = 1) in
    let expected = reference kind ins in
    (* Scalar reference simulator. *)
    let v = Asc_sim.Naive.eval_comb c ~pis:(Array.of_list ins) ~state:[||] in
    Alcotest.(check bool)
      (Printf.sprintf "%s/%d naive %d" (Gate.to_string kind) arity combo)
      expected
      (Asc_sim.Naive.outputs_of c v).(0);
    (* Both kernels: the good value, and one flipped input per lane —
       lanes [0, arity) flip the PI stem (cone propagation), lanes
       [arity, 2*arity) the gate's input pin (override evaluation through
       the shared gate body). *)
    let overrides =
      List.concat
        (List.mapi
           (fun i b ->
             [
               Asc_sim.Override.output ~gate:(pi i) ~stuck:(not b) ~lanes:(1 lsl i);
               Asc_sim.Override.input ~gate:g ~pin:i ~stuck:(not b) ~lanes:(1 lsl (arity + i));
             ])
           ins)
    in
    let good2, det2 =
      kernel_cycle c ~pi_words:(Array.of_list (List.map Word.splat ins)) overrides
    in
    Alcotest.(check int)
      (Printf.sprintf "%s/%d kernel good %d" (Gate.to_string kind) arity combo)
      (Word.splat expected) good2;
    let gb, det = kernel3_cycle c ~pis:(Array.of_list ins) ~state:Bytes.empty overrides in
    Alcotest.(check char)
      (Printf.sprintf "%s/%d kernel3 good %d" (Gate.to_string kind) arity combo)
      (Asc_sim.Kernel3.of_bool expected) (Bytes.get gb g);
    List.iteri
      (fun i _ ->
        let flipped = List.mapi (fun j b -> if i = j then not b else b) ins in
        let differs = reference kind flipped <> expected in
        Alcotest.(check (pair bool bool))
          (Printf.sprintf "%s/%d kernel flip %d of %d" (Gate.to_string kind) arity i combo)
          (differs, differs)
          (Word.get det2 i, Word.get det2 (arity + i));
        Alcotest.(check (pair bool bool))
          (Printf.sprintf "%s/%d kernel3 flip %d of %d" (Gate.to_string kind) arity i combo)
          (differs, differs)
          (Word.get det i, Word.get det (arity + i)))
      ins
  done

(* 3-valued exhaustive for arity 2 over {0,1,X}^2, the gate fed by two
   flip-flops whose state carries the values: the kernel's good value
   must equal the naive 3-valued evaluator's, and a flip-flop stuck at
   either value (one lane each) is detected exactly when the naive faulty
   output is the complementary binary value. *)
let exhaustive3_case kind () =
  let b = Builder.create "tt3" in
  let qs =
    List.init 2 (fun i ->
        let d = Builder.add_input b (Printf.sprintf "d%d" i) in
        let q = Builder.add_dff b (Printf.sprintf "q%d" i) in
        Builder.set_dff_input b q d;
        q)
  in
  let g = Builder.add_gate b kind "g" qs in
  Builder.add_output b g;
  let c = Builder.finalize b in
  let code = function
    | Some v -> Asc_sim.Kernel3.of_bool v
    | None -> Asc_sim.Kernel3.x
  in
  let values = [ Some false; Some true; None ] in
  let faults =
    List.concat_map (fun (pin, q) -> [ (pin, q, false); (pin, q, true) ]) (List.mapi (fun i q -> (i, q)) qs)
  in
  List.iter
    (fun a ->
      List.iter
        (fun bv ->
          let expected = Asc_sim.Naive.eval_gate3 kind [ a; bv ] in
          let overrides =
            List.mapi
              (fun lane (_, q, stuck) -> Asc_sim.Override.output ~gate:q ~stuck ~lanes:(1 lsl lane))
              faults
          in
          let state = Bytes.init 2 (fun i -> code (if i = 0 then a else bv)) in
          let gb, det = kernel3_cycle c ~pis:[| false; false |] ~state overrides in
          Alcotest.(check char) (Printf.sprintf "%s 3v" (Gate.to_string kind)) (code expected)
            (Bytes.get gb g);
          List.iteri
            (fun lane (pin, _, stuck) ->
              let ins = if pin = 0 then [ Some stuck; bv ] else [ a; Some stuck ] in
              let detected =
                match (expected, Asc_sim.Naive.eval_gate3 kind ins) with
                | Some e, Some f -> e <> f
                | _ -> false
              in
              Alcotest.(check bool)
                (Printf.sprintf "%s 3v stuck lane %d" (Gate.to_string kind) lane)
                detected (Word.get det lane))
            faults)
        values)
    values

let cases =
  List.concat_map
    (fun kind ->
      [
        Alcotest.test_case
          (Printf.sprintf "%s arity 2 exhaustive" (Gate.to_string kind))
          `Quick (exhaustive_case kind 2);
        Alcotest.test_case
          (Printf.sprintf "%s arity 3 exhaustive" (Gate.to_string kind))
          `Quick (exhaustive_case kind 3);
        Alcotest.test_case
          (Printf.sprintf "%s 3-valued exhaustive" (Gate.to_string kind))
          `Quick (exhaustive3_case kind);
      ])
    kinds_nary

let unary_cases =
  [
    Alcotest.test_case "NOT exhaustive" `Quick (exhaustive_case Gate.Not 1);
    Alcotest.test_case "BUF exhaustive" `Quick (exhaustive_case Gate.Buf 1);
  ]

let suite = [ ("truth-tables", cases @ unary_cases) ]
