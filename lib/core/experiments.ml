(* Per-circuit experiment orchestration.

   Runs, for one benchmark circuit, everything the paper's Tables 1-5
   need: the shared preparation (fault list + combinational set C), the
   proposed procedure with a directed T0 and with a random T0 of length
   1000, the static baseline of [4], and (optionally — it is the slowest
   and least faithful baseline) the dynamic baseline of [2,3]. *)

module Circuit = Asc_netlist.Circuit

type circuit_run = {
  name : string;
  prepared : Pipeline.prepared;
  prepare_seconds : float; (* wall-clock of Pipeline.prepare (ATPG) *)
  directed : Pipeline.result;
  random : Pipeline.result;
  static_baseline : Baseline_static.result;
  dynamic_baseline : Asc_compact.Dynamic_baseline.result option;
}

let dynamic_cycles (d : Asc_compact.Dynamic_baseline.result) c =
  Asc_scan.Time_model.cycles_of_tests c d.tests

let config_for ~seed ~t0 name =
  let config t0_source = Ok { Pipeline.default_config with seed; t0_source } in
  match t0 with
  | "directed" -> config (Pipeline.Directed (Asc_circuits.Registry.t0_budget name))
  | "random" -> config (Pipeline.Random_seq 1000)
  | s -> Error (Printf.sprintf "bad t0 %S (expected directed|random)" s)

let run_circuit ?pool ?tel ?(seed = 1) ?(with_dynamic = false) name =
  let c = Asc_circuits.Registry.get ~seed name in
  let config t0 = Result.get_ok (config_for ~seed ~t0 name) in
  let directed_config = config "directed" in
  let t_prepare = Unix.gettimeofday () in
  let prepared = Pipeline.prepare ?pool ?tel ~config:directed_config c in
  let prepare_seconds = Unix.gettimeofday () -. t_prepare in
  let directed = Pipeline.run ?pool ?tel ~config:directed_config prepared in
  let random = Pipeline.run ?pool ?tel ~config:(config "random") prepared in
  let static_baseline = Baseline_static.run ?pool prepared in
  let dynamic_baseline =
    if with_dynamic then
      let rng = Asc_util.Rng.of_name ~seed (name ^ "/dynamic") in
      Some
        (Asc_compact.Dynamic_baseline.run c ~faults:prepared.faults
           ~targets:prepared.targets ~rng)
    else None
  in
  { name; prepared; prepare_seconds; directed; random; static_baseline; dynamic_baseline }
