(* Tests for Asc_circuits: profiles, the synthetic generator's guarantees,
   registry memoisation. *)

module Circuit = Asc_netlist.Circuit
module Gate = Asc_netlist.Gate
module Profile = Asc_circuits.Profile
module Generator = Asc_circuits.Generator

let qtest = QCheck_alcotest.to_alcotest

let test_profiles_cover_paper () =
  (* All 19 circuits of the paper's tables. *)
  Alcotest.(check int) "circuit count" 19 (List.length Profile.all);
  List.iter
    (fun name ->
      Alcotest.(check bool) name true (Profile.find name <> None))
    [ "s298"; "s344"; "s382"; "s400"; "s526"; "s641"; "s820"; "s1423"; "s1488";
      "s5378"; "s35932"; "b01"; "b02"; "b03"; "b04"; "b06"; "b09"; "b10"; "b11" ]

let test_interface_counts () =
  List.iter
    (fun (p : Profile.t) ->
      let c = Generator.generate p in
      Alcotest.(check int) (p.name ^ " pis") p.n_pis (Circuit.n_inputs c);
      Alcotest.(check int) (p.name ^ " ffs") p.n_ffs (Circuit.n_dffs c);
      (* POs may gain a rare splice fallback; never lose any. *)
      Alcotest.(check bool) (p.name ^ " pos") true (Circuit.n_outputs c >= p.n_pos))
    (List.filter (fun (p : Profile.t) -> p.n_gates <= 700) Profile.all)

let test_determinism () =
  let p = Option.get (Profile.find "s298") in
  let c1 = Generator.generate ~seed:5 p and c2 = Generator.generate ~seed:5 p in
  Alcotest.(check string) "same netlist" (Asc_netlist.Bench_io.to_string c1)
    (Asc_netlist.Bench_io.to_string c2);
  let c3 = Generator.generate ~seed:6 p in
  Alcotest.(check bool) "different seed differs" true
    (Asc_netlist.Bench_io.to_string c1 <> Asc_netlist.Bench_io.to_string c3)

(* Every signal reaches an observation point (PO or DFF next-state). *)
let observable_everywhere c =
  let n = Circuit.n_gates c in
  let marked = Array.make n false in
  let rec mark g =
    if not marked.(g) then begin
      marked.(g) <- true;
      Array.iter mark (Circuit.fanins c g)
    end
  in
  Array.iter mark (Circuit.outputs c);
  Array.iter (fun d -> mark (Circuit.dff_input c d)) (Circuit.dffs c);
  Array.for_all Fun.id marked

let prop_generator_connectivity =
  QCheck.Test.make ~name:"generated circuits are fully observable" ~count:25
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let p = Profile.make "conn" 5 4 8 80 ~t0_budget:10 in
      observable_everywhere (Generator.generate ~seed p))

(* The reset structure makes the state fully binary after the arming
   sequence: holding the right input pattern flushes all X. *)
let test_reset_initialises () =
  let p = Option.get (Profile.find "s298") in
  let c = Generator.generate p in
  let k = Asc_sim.Kernel3.create c in
  let n_pis = Circuit.n_inputs c in
  (* Try all input patterns held for enough cycles; at least one must
     produce a fully binary state. *)
  let initialises v =
    let state = Asc_sim.Kernel3.x_state c in
    let pis = Array.init n_pis (fun i -> (v lsr i) land 1 = 1) in
    for _ = 1 to Circuit.n_dffs c + 4 do
      Asc_sim.Kernel3.good_step k ~pis ~state
    done;
    not (Bytes.contains state Asc_sim.Kernel3.x)
  in
  let any = ref false in
  for v = 0 to (1 lsl n_pis) - 1 do
    if initialises v then any := true
  done;
  Alcotest.(check bool) "some held pattern initialises" true !any

let test_registry () =
  let c1 = Asc_circuits.Registry.get "s298" in
  let c2 = Asc_circuits.Registry.get "s298" in
  Alcotest.(check bool) "memoised" true (c1 == c2);
  Alcotest.(check bool) "s27 present" true (Asc_circuits.Registry.mem "s27");
  Alcotest.(check bool) "unknown absent" false (Asc_circuits.Registry.mem "sXXX");
  Alcotest.check_raises "unknown raises"
    (Invalid_argument "Registry.get: unknown circuit \"sXXX\"") (fun () ->
      ignore (Asc_circuits.Registry.get "sXXX"))

let suite =
  [
    ( "circuits",
      [
        Alcotest.test_case "profiles cover the paper" `Quick test_profiles_cover_paper;
        Alcotest.test_case "interface counts" `Quick test_interface_counts;
        Alcotest.test_case "determinism" `Quick test_determinism;
        qtest prop_generator_connectivity;
        Alcotest.test_case "reset initialises" `Quick test_reset_initialises;
        Alcotest.test_case "registry" `Quick test_registry;
      ] );
  ]
