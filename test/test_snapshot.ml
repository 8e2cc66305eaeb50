(* The performance trajectory's snapshot.  The newest
   BENCH_YYYY-MM-DD.json at the repository root must be the perf.exe
   --out document of an untraced run that names its commit and host and
   holds every workload and end-to-end metric BENCHMARK.json declares, in
   the declared units: a snapshot cannot silently drop a field. *)

module J = Asc_util.Json

(* The test's dune deps copy both files to the root of the build tree. *)
let root = Filename.dirname (Filename.dirname Sys.executable_name)

let load name =
  J.of_string (In_channel.with_open_bin (Filename.concat root name) In_channel.input_all)

let is_snapshot name =
  String.length name = String.length "BENCH_YYYY-MM-DD.json"
  && String.starts_with ~prefix:"BENCH_" name
  && Filename.check_suffix name ".json"

let get path j = List.fold_left (fun j k -> Option.bind j (J.member k)) (Some j) path

let list key j = Option.value ~default:[] (Option.bind (J.member key j) J.as_list)

(* Every way [doc] falls short of [declared] (BENCHMARK.json), one line
   each. *)
let problems ~declared doc =
  let found = ref [] in
  let expect ok fmt =
    Printf.ksprintf (fun s -> if not ok then found := s :: !found) fmt
  in
  let int path j = Option.bind (get path j) J.as_int in
  let at_least n path j = match int path j with Some v -> v >= n | None -> false in
  expect (int [ "schema" ] doc = Some 1) "schema is not 1";
  expect (Option.bind (get [ "trace" ] doc) J.as_bool = Some false) "trace is not false";
  expect
    (match Option.bind (get [ "commit" ] doc) J.as_str with
    | Some c ->
        String.length c = 40
        && String.for_all (function '0' .. '9' | 'a' .. 'f' -> true | _ -> false) c
    | None -> false)
    "commit is not 40 lowercase hex digits";
  List.iter
    (fun k ->
      expect
        (match get [ "host"; k ] doc with None | Some J.Null -> false | Some _ -> true)
        "host.%s is null or missing" k)
    [ "nproc"; "recommended_domain_count"; "ocaml_version" ];
  expect
    (match (int [ "domains"; "used" ] doc, int [ "host"; "nproc" ] doc) with
    | Some used, Some nproc -> used <= nproc
    | _ -> false)
    "domains.used is not at most host.nproc";
  let metrics =
    List.filter_map
      (fun m ->
        match (get [ "name" ] m, get [ "unit" ] m) with
        | Some (J.Str name), Some (J.Str unit_) -> Some (name, unit_)
        | _ -> None)
      (list "end_to_end" declared)
  in
  List.iter
    (fun w ->
      match Option.bind (get [ "name" ] w) J.as_str with
      | None -> ()
      | Some w -> (
          match get [ "workloads"; w ] doc with
          | None -> expect false "workload %s is missing" w
          | Some wj ->
              expect (Option.bind (get [ "correct" ] wj) J.as_bool = Some true)
                "%s: correct is not true" w;
              expect (int [ "failed" ] wj = Some 0) "%s: failed is not 0" w;
              expect (at_least 1 [ "attempted" ] wj) "%s: attempted is not at least 1" w;
              List.iter
                (fun (m, unit_) ->
                  match get [ "metrics"; m ] wj with
                  | None -> expect false "%s: metric %s is missing" w m
                  | Some mj ->
                      expect
                        (match Option.bind (get [ "value" ] mj) J.as_float with
                        | Some v -> v > 0.0
                        | None -> false)
                        "%s: %s value is not a number above 0" w m;
                      expect
                        (Option.bind (get [ "unit" ] mj) J.as_str = Some unit_)
                        "%s: %s unit is not %s" w m unit_;
                      expect (at_least 1 [ "n" ] mj) "%s: %s n is not at least 1" w m)
                metrics))
    (list "workloads" declared);
  List.rev !found

let test_newest_snapshot () =
  let names = List.filter is_snapshot (Array.to_list (Sys.readdir root)) in
  match List.sort compare names with
  | [] -> Alcotest.fail "no BENCH_YYYY-MM-DD.json at the repository root"
  | names ->
      let newest = List.nth names (List.length names - 1) in
      Alcotest.(check (list string))
        (newest ^ " describes a complete run")
        []
        (problems ~declared:(load "BENCHMARK.json") (load newest))

let suite =
  [
    ( "snapshot",
      [
        Alcotest.test_case "newest BENCH snapshot holds every declared field" `Quick
          test_newest_snapshot;
      ] );
  ]
