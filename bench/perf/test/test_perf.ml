(* Tests of the benchmark itself: its statistics, its N_cyc oracle, its
   declaration in BENCHMARK.json, and a smoke run of all four workloads
   that must report every declared metric. *)

open Perf_bench
module J = Asc_util.Json

let read path = In_channel.with_open_bin path In_channel.input_all
let member k j = Option.value ~default:J.Null (J.member k j)
let obj k j = Option.value ~default:[] (J.as_obj (member k j))
let list k j = Option.value ~default:[] (J.as_list (member k j))
let str k j = Option.value ~default:"" (J.as_str (member k j))

(* --- statistics ------------------------------------------------------- *)

(* Expected values are Python's statistics.quantiles(xs, n=4). *)
let test_quartiles () =
  let q = Stat.quartiles in
  let pair = Alcotest.(pair (float 1e-12) (float 1e-12)) in
  let one_to_ten = List.init 10 (fun i -> float_of_int (i + 1)) in
  Alcotest.check pair "1..10" (2.75, 8.25) (q one_to_ten);
  Alcotest.check pair "three" (1.0, 3.0) (q [ 3.0; 1.0; 2.0 ]);
  Alcotest.check pair "two" (0.75, 2.25) (q [ 2.0; 1.0 ]);
  Alcotest.check pair "one" (5.0, 5.0) (q [ 5.0 ])

let test_tail () =
  let xs n = List.init n float_of_int in
  let opt = Alcotest.(option (float 1e-9)) in
  Alcotest.(check int) "1000 samples leave 10 beyond p99" 10 (Stat.beyond ~p:99.0 1000);
  Alcotest.check opt "999 samples leave 9: no p99" None (Stat.tail ~p:99.0 (xs 999));
  Alcotest.check opt "p99 of 0..999" (Some 989.01) (Stat.tail ~p:99.0 (xs 1000));
  Alcotest.check opt "p50 of 20 samples" (Some 9.5) (Stat.tail ~p:50.0 (xs 20))

(* --- N_cyc ----------------------------------------------------------------- *)

let test_formula () =
  Alcotest.(check int) "(k+1)*N_SV + sum L" 14 (Oneshot.n_cyc ~n_sv:3 [ 2; 3 ]);
  Alcotest.(check int) "empty set" 0 (Oneshot.n_cyc ~n_sv:3 [])

let test_cycles_final name () =
  let c = Asc_circuits.Registry.get ~seed:1 name in
  let config = Workload.config ~seed:1 name Workload.Directed in
  let r = Asc_core.Pipeline.run ~config (Asc_core.Pipeline.prepare ~config c) in
  Alcotest.(check int) "formula = cycles_final" r.Asc_core.Pipeline.cycles_final
    (Oneshot.n_cyc_of_tests r.Asc_core.Pipeline.final_tests)

(* --- BENCHMARK.json -------------------------------------------------------- *)

let benchmark = lazy (J.of_string (read "../../../BENCHMARK.json"))

let test_declaration () =
  let b = Lazy.force benchmark in
  let strings = Alcotest.(list string) in
  let paths = List.filter_map J.as_str (list "paths" b) in
  Alcotest.check strings "paths" [ "bench/perf" ] paths;
  Alcotest.check strings "workloads" Workload.names (List.map (str "name") (list "workloads" b));
  Alcotest.check strings "built-in workloads" Workload.names Catalogue.workloads;
  let names scope = List.map (fun (m : Catalogue.t) -> m.name) (Catalogue.in_scope scope) in
  Alcotest.check strings "end_to_end" (List.map (str "name") (list "end_to_end" b))
    (names Catalogue.End_to_end);
  Alcotest.check strings "per_layer" (List.map (str "name") (list "per_layer" b))
    (names Catalogue.Per_layer);
  List.iter
    (fun (m : Catalogue.t) ->
      match m.bound with
      | Some x when x > 0.0 && x <= 0.25 -> ()
      | _ -> Alcotest.failf "%s: bound must lie in (0, 0.25]" m.name)
    (Catalogue.in_scope Catalogue.End_to_end);
  match Catalogue.find "setup_s" with
  | Some { unit_ = "s"; better = Lower; scope = End_to_end; _ } -> ()
  | _ -> Alcotest.fail "setup_s must be an end-to-end metric in s, lower better"

(* --- --compare ------------------------------------------------------------------ *)

(* A result document with one workload "w" reporting [metrics]. *)
let write_doc path metrics =
  let metric (k, v) = (k, J.Obj [ ("value", J.Float v) ]) in
  J.write_file path
    (J.Obj
       [ ("workloads", J.Obj [ ("w", J.Obj [ ("metrics", J.Obj (List.map metric metrics)) ]) ]) ]);
  path

let test_compare () =
  let a = write_doc "cmp-a.json" [ ("jobs_per_s", 10.0); ("failed_frac", 0.0) ] in
  let flagged name metrics = Report.compare [ a ] [ write_doc name metrics ] in
  let check what want b = Alcotest.(check bool) what want b in
  check "within the bound" false
    (flagged "cmp-same.json" [ ("jobs_per_s", 9.5); ("failed_frac", 0.0) ]);
  check "slower beyond the bound" true
    (flagged "cmp-slow.json" [ ("jobs_per_s", 5.0); ("failed_frac", 0.0) ]);
  check "any failure" true
    (flagged "cmp-failed.json" [ ("jobs_per_s", 10.0); ("failed_frac", 0.01) ]);
  check "a metric B lacks" true (flagged "cmp-missing.json" [ ("failed_frac", 0.0) ])

(* --- smoke run -------------------------------------------------------------- *)

let perf args =
  let exe = "../perf.exe" in
  let ic = Unix.open_process_args_in exe (Array.of_list (exe :: args)) in
  let out = In_channel.input_all ic in
  match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> out
  | _ -> Alcotest.failf "perf.exe %s failed:\n%s" (String.concat " " args) out

let results out =
  String.split_on_char '\n' out
  |> List.filter (fun l -> String.length l > 0 && l.[0] = '{')
  |> List.map J.of_string

(* Every result line carries every declared metric of [key] — present,
   finite, with its unit — and nothing failed. *)
let check_results key out =
  let declared = list key (Lazy.force benchmark) in
  let lines = results out in
  Alcotest.(check int) "one result per workload" (List.length Workload.names)
    (List.length lines);
  List.iter
    (fun r ->
      Alcotest.(check (option bool))
        "correct" (Some true)
        (J.as_bool (member "correct" r));
      Alcotest.(check (option int)) "failed" (Some 0) (J.as_int (member "failed" r));
      let metrics = obj "metrics" r in
      Alcotest.(check int) "no undeclared metric" (List.length declared)
        (List.length metrics);
      List.iter
        (fun d ->
          let name = str "name" d in
          match List.assoc_opt name metrics with
          | None -> Alcotest.failf "%s missing" name
          | Some m -> (
              Alcotest.(check string) (name ^ " unit") (str "unit" d) (str "unit" m);
              match J.as_float (member "value" m) with
              | Some v when Float.is_finite v -> ()
              | _ -> Alcotest.failf "%s is not a finite number" name))
        declared)
    lines

let test_smoke_untraced () =
  let out = perf [ "--smoke"; "--seed"; "3"; "--out"; "smoke.json" ] in
  check_results "end_to_end" out;
  let doc = J.of_string (read "smoke.json") in
  List.iter
    (fun k -> if J.member k doc = None then Alcotest.failf "--out lacks %s" k)
    [ "commit"; "host"; "seed"; "domains"; "workers"; "workloads" ];
  List.iter
    (fun (w, wj) ->
      List.iter
        (fun (k, m) ->
          List.iter
            (fun f -> if J.member f m = None then Alcotest.failf "%s %s lacks %s" w k f)
            [ "unit"; "value"; "n" ])
        (obj "metrics" wj))
    (obj "workloads" doc);
  let table =
    String.split_on_char '\n' (perf [ "--compare"; "smoke.json"; "--"; "smoke.json" ])
  in
  List.iter
    (fun w ->
      if not (List.exists (String.starts_with ~prefix:w) table) then
        Alcotest.failf "--compare lacks %s" w)
    Workload.names

let test_smoke_traced () =
  let trace w = Filename.concat "_perf/traces" (w ^ ".json") in
  List.iter (fun w -> if Sys.file_exists (trace w) then Sys.remove (trace w)) Workload.names;
  let out = perf [ "--smoke"; "--trace"; "1" ] in
  check_results "per_layer" out;
  List.iter
    (fun w ->
      let doc = J.of_string (read (trace w)) in
      if list "traceEvents" doc = [] then Alcotest.failf "%s: empty trace" w)
    Workload.names

let () =
  let case name f = Alcotest.test_case name `Quick f in
  Alcotest.run "perf"
    [
      ( "stat",
        [
          case "quartiles match Python" test_quartiles;
          case "p99 needs ten samples beyond it" test_tail;
        ] );
      ( "n_cyc",
        [
          case "formula" test_formula;
          case "s27 cycles_final" (test_cycles_final "s27");
          case "s298 cycles_final" (test_cycles_final "s298");
        ] );
      ("declaration", [ case "BENCHMARK.json matches the built-in catalogue" test_declaration ]);
      ("compare", [ case "flags worse, failed and missing metrics" test_compare ]);
      ( "smoke",
        [
          case "untraced run reports every end-to-end metric" test_smoke_untraced;
          case "traced run reports every per-layer metric" test_smoke_traced;
        ] );
    ]
