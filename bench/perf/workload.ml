(* The benchmark's workloads.  Why each one exists is in README.md and
   BENCHMARK.json; this file fixes their inputs. *)

type t0 = Directed | Random

(* The one-shot output every run must reproduce byte for byte. *)
type golden = {
  g_tests : int;
  g_cycles : int;
  g_detected : int;
  g_targets : int;
  g_crc : string;  (** CRC-32 of the [Tset_io] text. *)
}

(* One-shot jobs compact one fixed netlist with one fixed pipeline seed,
   like [asc run s1423 --seed 1].  The workload seed does not pick the
   job: on s1423 job time ranges from 1.6 s to 3.6 s across circuit and
   pipeline seeds, far beyond the bound a regression is judged by.  It
   picks the inputs of the traced run's probes instead. *)
type oneshot = { circuit : string; t0 : t0; golden : golden option }

(* Served jobs are registry circuits under pipeline seeds the workload
   fixes.  The workload seed orders the submissions and picks the
   resubmits, but does not choose the jobs: a small job's time varies by
   a factor of two across seeds, and a run completes too few of them to
   average that out. *)
type traffic =
  | Mixed of { cycle : (string * int) list; hits_per_cycle : int }
      (** Set-up completes each circuit of [cycle] under seed 1.  Cycle
          [k] of the timed loop submits [n] specs never submitted before
          for each [(circuit, n)], in seeded order, then resubmits
          [hits_per_cycle] completed specs the seed picks. *)
  | Cached of { circuits : string list; seeds_per_circuit : int }
      (** Set-up completes each circuit under seeds [1 ..
          seeds_per_circuit]; the timed loop resubmits them in seeded
          random order. *)

type served = {
  traffic : traffic;
  probe_circuit : string;  (** Circuit the traced run's layer probes use. *)
}

type kind = Oneshot of oneshot | Served of served
type t = { name : string; kind : kind }

let small = [ "s27"; "s298"; "s344"; "s382"; "b01"; "b02"; "b06" ]

(* Seed of the [j]-th of the [n] specs of one circuit that cycle [k] of
   [Mixed] traffic submits: distinct for every submission and never the
   warmed seed 1, so each first submission is a cold job. *)
let spec_seed ~n ~k j = (k * n) + j + 2

let all =
  [
    {
      name = "oneshot-s1423";
      kind =
        Oneshot
          {
            circuit = "s1423";
            t0 = Directed;
            golden =
              Some
                {
                  g_tests = 16;
                  g_cycles = 2032;
                  g_detected = 2749;
                  g_targets = 2782;
                  g_crc = "85addbe9";
                };
          };
    };
    {
      name = "oneshot-s1423-random";
      kind =
        Oneshot
          {
            circuit = "s1423";
            t0 = Random;
            golden =
              Some
                {
                  g_tests = 25;
                  g_cycles = 2907;
                  g_detected = 2747;
                  g_targets = 2782;
                  g_crc = "6c7eb203";
                };
          };
    };
    {
      name = "serve-mixed";
      kind =
        Served
          {
            (* 8 of every 21 submits (38%) are resubmits.  Cold jobs take
               1 ms (s27) to 600 ms (s382); three of each mid-size circuit
               per tiny one puts the median cold latency inside the
               s298/s344 mode rather than on the edge between two modes,
               where it would jump from run to run. *)
            traffic =
              Mixed
                {
                  cycle =
                    [
                      ("s27", 1); ("b01", 1); ("b02", 1); ("b06", 1);
                      ("s298", 3); ("s344", 3); ("s382", 3);
                    ];
                  hits_per_cycle = 8;
                };
            probe_circuit = "s382";
          };
    };
    {
      name = "serve-cached";
      kind =
        Served
          {
            traffic = Cached { circuits = small; seeds_per_circuit = 3 };
            probe_circuit = "s382";
          };
    };
  ]

(* The same four workloads shrunk to s27/s298 size, for the smoke test. *)
let smoke =
  List.map
    (fun w ->
      match w.kind with
      | Oneshot o -> { w with kind = Oneshot { o with circuit = "s27"; golden = None } }
      | Served s ->
          let traffic =
            match s.traffic with
            | Mixed _ -> Mixed { cycle = [ ("s27", 1); ("b02", 1) ]; hits_per_cycle = 1 }
            | Cached _ -> Cached { circuits = [ "s27"; "b02" ]; seeds_per_circuit = 2 }
          in
          { w with kind = Served { traffic; probe_circuit = "s298" } })
    all

let find ~smoke:s name = List.find_opt (fun w -> w.name = name) (if s then smoke else all)

let names = List.map (fun w -> w.name) all

let t0_source name = function
  | Directed -> Asc_core.Pipeline.Directed (Asc_circuits.Registry.t0_budget name)
  | Random -> Asc_core.Pipeline.Random_seq 1000

(* The pipeline configuration [asc run] and [asc serve] use for a circuit
   and seed. *)
let config ~seed name t0 =
  { Asc_core.Pipeline.default_config with seed; t0_source = t0_source name t0 }

(* --- what a run of a workload yields ----------------------------------- *)

type metric = {
  value : float;
  n : int;  (** Samples the value was computed from. *)
  quartiles : (float * float) option;  (** Of those samples, when they vary. *)
}

let scalar ?(n = 1) value = { value; n; quartiles = None }

(* The median of [samples], with their count and quartiles. *)
let of_samples samples =
  {
    value = Asc_util.Stats.median_f samples;
    n = List.length samples;
    quartiles = Some (Stat.quartiles samples);
  }

type outcome = {
  attempted : int;  (** One-shot jobs, or served submits including set-up's. *)
  failed : int;  (** Operations that did not complete or failed a check. *)
  problems : string list;  (** Every failed check, for the log. *)
  metrics : (string * metric) list;
}
