(* Tests for Asc_sim: gate truth tables, bit-parallel engines vs the naive
   reference, 3-valued monotonicity, override injection. *)

open Asc_sim
module Circuit = Asc_netlist.Circuit
module Gate = Asc_netlist.Gate

let qtest = QCheck_alcotest.to_alcotest

(* --- Truth tables ---------------------------------------------------- *)

let test_gate2_truth_tables () =
  let check kind ins expected =
    Alcotest.(check bool)
      (Gate.to_string kind ^ " " ^ String.concat "" (List.map string_of_bool ins))
      expected (Naive.eval_gate2 kind ins)
  in
  check Gate.And [ true; true ] true;
  check Gate.And [ true; false ] false;
  check Gate.Nand [ true; true ] false;
  check Gate.Or [ false; false ] false;
  check Gate.Or [ false; true ] true;
  check Gate.Nor [ false; false ] true;
  check Gate.Xor [ true; true ] false;
  check Gate.Xor [ true; false ] true;
  check Gate.Xor [ true; true; true ] true;
  check Gate.Xnor [ true; false ] false;
  check Gate.Not [ true ] false;
  check Gate.Buf [ true ] true;
  check Gate.Const0 [] false;
  check Gate.Const1 [] true

let test_gate3_pessimism () =
  (* X-dominated cases. *)
  let x = None and t = Some true and f = Some false in
  Alcotest.(check bool) "and 0 X = 0" true (Naive.eval_gate3 Gate.And [ f; x ] = f);
  Alcotest.(check bool) "and 1 X = X" true (Naive.eval_gate3 Gate.And [ t; x ] = x);
  Alcotest.(check bool) "or 1 X = 1" true (Naive.eval_gate3 Gate.Or [ t; x ] = t);
  Alcotest.(check bool) "or 0 X = X" true (Naive.eval_gate3 Gate.Or [ f; x ] = x);
  Alcotest.(check bool) "xor 1 X = X" true (Naive.eval_gate3 Gate.Xor [ t; x ] = x);
  Alcotest.(check bool) "not X = X" true (Naive.eval_gate3 Gate.Not [ x ] = x);
  Alcotest.(check bool) "nand 0 X = 1" true (Naive.eval_gate3 Gate.Nand [ f; x ] = t)

(* 3-valued refinement: replacing X inputs by any binary value refines the
   output (binary outputs never change). *)
let prop_gate3_monotone =
  let kind_gen =
    QCheck.Gen.oneofl
      [ Gate.And; Gate.Nand; Gate.Or; Gate.Nor; Gate.Xor; Gate.Xnor ]
  in
  let v3_gen = QCheck.Gen.oneofl [ Some true; Some false; None ] in
  let gen = QCheck.Gen.(pair kind_gen (list_size (int_range 2 4) v3_gen)) in
  QCheck.Test.make ~name:"3-valued eval is monotone under refinement" ~count:500
    (QCheck.make gen) (fun (kind, ins) ->
      let out = Naive.eval_gate3 kind ins in
      match out with
      | None -> true
      | Some _ ->
          (* Every refinement of the X inputs yields the same output. *)
          let rec refine acc = function
            | [] -> [ List.rev acc ]
            | Some v :: rest -> refine (Some v :: acc) rest
            | None :: rest ->
                refine (Some true :: acc) rest @ refine (Some false :: acc) rest
          in
          List.for_all
            (fun ins' -> Naive.eval_gate3 kind ins' = out)
            (refine [] ins))

(* --- Parallel engines vs naive reference ----------------------------- *)

let random_profile seed =
  Asc_circuits.Profile.make "sim-rt" 5 4 6 50 ~t0_budget:10
  |> Asc_circuits.Generator.generate ~seed

let prop_kernel_good_matches_naive =
  QCheck.Test.make ~name:"Kernel good lanes match naive scalar runs" ~count:40
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let c = random_profile seed in
      let rng = Asc_util.Rng.create (seed + 1) in
      let n_pis = Circuit.n_inputs c and n_ffs = Circuit.n_dffs c in
      let len = 6 in
      (* Distinct per-lane stimuli for 7 lanes. *)
      let lanes = 7 in
      let inits = Array.init lanes (fun _ -> Asc_util.Rng.bool_array rng n_ffs) in
      let seqs =
        Array.init lanes (fun _ ->
            Array.init len (fun _ -> Asc_util.Rng.bool_array rng n_pis))
      in
      let k = Kernel.create c in
      let v = Array.make (Circuit.n_gates c) 0 in
      let state =
        Array.init n_ffs (fun i ->
            let w = ref 0 in
            for l = 0 to lanes - 1 do
              if inits.(l).(i) then w := Asc_util.Word.set !w l
            done;
            !w)
      in
      let ok = ref true in
      let naive_runs =
        Array.init lanes (fun l -> Naive.run c ~init:inits.(l) ~seq:seqs.(l))
      in
      for t = 0 to len - 1 do
        let pi_words =
          Array.init n_pis (fun i ->
              let w = ref 0 in
              for l = 0 to lanes - 1 do
                if seqs.(l).(t).(i) then w := Asc_util.Word.set !w l
              done;
              !w)
        in
        Kernel.good_cycle k ~pi_words ~state ~v;
        for l = 0 to lanes - 1 do
          let expected = (fst naive_runs.(l)).(t) in
          Array.iteri
            (fun po g -> if Asc_util.Word.get v.(g) l <> expected.(po) then ok := false)
            (Circuit.outputs c)
        done;
        Kernel.good_capture k ~v ~state
      done;
      (* Final states match too. *)
      for l = 0 to lanes - 1 do
        let expected = snd naive_runs.(l) in
        for i = 0 to n_ffs - 1 do
          if Asc_util.Word.get state.(i) l <> expected.(i) then ok := false
        done
      done;
      !ok)

(* The 3-valued kernel's scalar good sweep, started from a binary state,
   is the 2-valued machine: every PO code is the binary value. *)
let prop_kernel3_binary_matches_naive =
  QCheck.Test.make ~name:"Kernel3 on binary inputs agrees with Naive" ~count:30
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let c = random_profile seed in
      let rng = Asc_util.Rng.create (seed + 2) in
      let n_pis = Circuit.n_inputs c and n_ffs = Circuit.n_dffs c in
      let init = Asc_util.Rng.bool_array rng n_ffs in
      let seq = Array.init 5 (fun _ -> Asc_util.Rng.bool_array rng n_pis) in
      let k = Kernel3.create c in
      let state = Bytes.init n_ffs (fun i -> Kernel3.of_bool init.(i)) in
      let gbs = Kernel3.good_trace k ~state ~seq in
      let responses, final = Naive.run c ~init ~seq in
      let ok = ref true in
      Array.iteri
        (fun t gb ->
          Array.iteri
            (fun po g ->
              if Bytes.get gb g <> Kernel3.of_bool responses.(t).(po) then ok := false)
            (Circuit.outputs c))
        gbs;
      Array.iteri (fun i b -> if Bytes.get state i <> Kernel3.of_bool b then ok := false) final;
      !ok)

(* From the all-X state the good sweep equals the scalar 3-valued
   simulator, and wherever it is binary every concrete initial state
   agrees with it. *)
let prop_kernel3_x_state_refines =
  QCheck.Test.make ~name:"Kernel3 from X state is refined by binary runs" ~count:30
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let c = random_profile seed in
      let rng = Asc_util.Rng.create (seed + 3) in
      let n_pis = Circuit.n_inputs c and n_ffs = Circuit.n_dffs c in
      let seq = Array.init 6 (fun _ -> Asc_util.Rng.bool_array rng n_pis) in
      let k = Kernel3.create c in
      let gbs = Kernel3.good_trace k ~state:(Kernel3.x_state c) ~seq in
      let init = Asc_util.Rng.bool_array rng n_ffs in
      let scalar, _ = Naive.run c ~init ~seq in
      let scalar3, _ = Naive.run3 c ~init:(Array.make n_ffs None) ~seq in
      let ok = ref true in
      Array.iteri
        (fun t gb ->
          Array.iteri
            (fun po g ->
              let code = Bytes.get gb g in
              let expected =
                match scalar3.(t).(po) with None -> Kernel3.x | Some b -> Kernel3.of_bool b
              in
              if code <> expected then ok := false;
              if code <> Kernel3.x && code <> Kernel3.of_bool scalar.(t).(po) then ok := false)
            (Circuit.outputs c))
        gbs;
      !ok)

(* --- Overrides ------------------------------------------------------- *)

(* One cycle of [c] from [state] under [pi_words]: the good values, and
   the kernel with [overrides] injected, settled against them. *)
let faulty_cycle c overrides ~state ~pi_words =
  let k = Kernel.create c in
  let gw = Array.make (Circuit.n_gates c) 0 in
  Kernel.good_cycle k ~pi_words ~state:(Array.copy state) ~v:gw;
  Kernel.set_overrides k overrides;
  Kernel.reset k;
  Kernel.cycle k ~gw;
  (k, gw)

let test_override_output_injection () =
  (* Force a PI stuck in half the lanes and observe a NOT of it. *)
  let b = Asc_netlist.Builder.create "ovr" in
  let a = Asc_netlist.Builder.add_input b "a" in
  let g = Asc_netlist.Builder.add_gate b Gate.Not "g" [ a ] in
  Asc_netlist.Builder.add_output b g;
  let c = Asc_netlist.Builder.finalize b in
  let lanes = 0b1010 in
  let k, gw =
    faulty_cycle c [ Override.output ~gate:a ~stuck:true ~lanes ] ~state:[||]
      ~pi_words:[| 0 |]
  in
  (* a = 0 except overridden lanes -> NOT a = all ones except lanes. *)
  Alcotest.(check int) "not of injected" (Asc_util.Word.mask land lnot lanes)
    (gw.(g) lxor Kernel.po_diff k)

let test_override_input_pin_is_branch () =
  (* A branch fault affects only the faulted consumer: [g1] drives the
     PO, [g2] the flip-flop, both from the stem [a]. *)
  let b = Asc_netlist.Builder.create "branch" in
  let a = Asc_netlist.Builder.add_input b "a" in
  let g1 = Asc_netlist.Builder.add_gate b Gate.Buf "g1" [ a ] in
  let g2 = Asc_netlist.Builder.add_gate b Gate.Buf "g2" [ a ] in
  let q = Asc_netlist.Builder.add_dff b "q" in
  Asc_netlist.Builder.set_dff_input b q g2;
  Asc_netlist.Builder.add_output b g1;
  let c = Asc_netlist.Builder.finalize b in
  let observe gate =
    (* Stuck-1 on [gate]'s input pin only. *)
    let k, gw =
      faulty_cycle c
        [ Override.input ~gate ~pin:0 ~stuck:true ~lanes:Asc_util.Word.mask ]
        ~state:[| 0 |] ~pi_words:[| 0 |]
    in
    let po = Kernel.po_diff k in
    Kernel.finish_cycle k ~gw;
    (po, Kernel.state_diff k 0)
  in
  let mask = Asc_util.Word.mask in
  Alcotest.(check (pair int int)) "g1 faulted, g2 clean" (mask, 0) (observe g1);
  Alcotest.(check (pair int int)) "g2 faulted, g1 clean" (0, mask) (observe g2)

let test_override_dff_pin () =
  (* A DFF D-pin fault corrupts the captured value only. *)
  let b = Asc_netlist.Builder.create "dpin" in
  let a = Asc_netlist.Builder.add_input b "a" in
  let q = Asc_netlist.Builder.add_dff b "q" in
  Asc_netlist.Builder.set_dff_input b q a;
  let g = Asc_netlist.Builder.add_gate b Gate.Buf "g" [ q ] in
  Asc_netlist.Builder.add_output b g;
  let c = Asc_netlist.Builder.finalize b in
  let mask = Asc_util.Word.mask in
  let state = [| mask |] and pi_words = [| mask |] in
  let k, gw =
    faulty_cycle c
      [ Override.input ~gate:q ~pin:0 ~stuck:false ~lanes:mask ]
      ~state ~pi_words
  in
  (* Current state unaffected. *)
  Alcotest.(check int) "q unaffected now" 0 (Kernel.po_diff k);
  Kernel.finish_cycle k ~gw;
  Alcotest.(check int) "capture forced 0" mask (Kernel.state_diff k 0);
  (* The good machine captures 1 again; the faulty one shows its 0. *)
  Kernel.good_capture k ~v:gw ~state;
  Kernel.good_cycle k ~pi_words ~state ~v:gw;
  Kernel.cycle k ~gw;
  Alcotest.(check int) "captured 0 reaches the PO" mask (Kernel.po_diff k)

let suite =
  [
    ( "sim",
      [
        Alcotest.test_case "2-valued truth tables" `Quick test_gate2_truth_tables;
        Alcotest.test_case "3-valued pessimism" `Quick test_gate3_pessimism;
        qtest prop_gate3_monotone;
        qtest prop_kernel_good_matches_naive;
        qtest prop_kernel3_binary_matches_naive;
        qtest prop_kernel3_x_state_refines;
        Alcotest.test_case "override output" `Quick test_override_output_injection;
        Alcotest.test_case "override branch pin" `Quick test_override_input_pin_is_branch;
        Alcotest.test_case "override dff pin" `Quick test_override_dff_pin;
      ] );
  ]
