(* Output: the human-readable lines, the one-line JSON result that ends a
   run, the self-describing [--out] document, and [--compare] over two
   sets of such documents. *)

module J = Asc_util.Json
open Workload

let unit_of name =
  match Catalogue.find name with Some m -> m.Catalogue.unit_ | None -> ""

let print_outcome name (o : outcome) =
  Printf.printf "%s: %d attempted, %d failed\n" name o.attempted o.failed;
  List.iter (fun p -> Printf.printf "  check failed: %s\n" p) o.problems;
  List.iter
    (fun (k, m) ->
      Printf.printf "  %-34s %14.6g %-8s n=%d%s\n" k m.value (unit_of k) m.n
        (match m.quartiles with
        | Some (q1, q3) -> Printf.sprintf "  q1=%.6g q3=%.6g" q1 q3
        | None -> ""))
    o.metrics;
  flush stdout

(* The result line: every declared metric of [scope], by name and unit.
   A layer the workload does not pass through reports 0; a missing
   end-to-end metric makes the run incorrect. *)
let result_line ~scope (o : outcome) =
  let declared = Catalogue.in_scope scope in
  let value (m : Catalogue.t) =
    match (List.assoc_opt m.name o.metrics, scope) with
    | Some v, _ -> Some v.value
    | None, Catalogue.Per_layer -> Some 0.0
    | None, _ -> None
  in
  let metrics =
    List.filter_map
      (fun (m : Catalogue.t) ->
        Option.map
          (fun v -> (m.name, J.Obj [ ("value", J.Float v); ("unit", J.Str m.unit_) ]))
          (value m))
      declared
  in
  let complete = List.length metrics = List.length declared in
  J.to_string ~compact:true
    (J.Obj
       [
         ("correct", J.Bool (o.problems = [] && o.failed = 0 && complete));
         ("attempted", J.Int o.attempted);
         ("failed", J.Int o.failed);
         ("metrics", J.Obj metrics);
       ])

(* --- the [--out] document ----------------------------------------------- *)

let metric_json name (m : metric) =
  J.Obj
    ([ ("unit", J.Str (unit_of name)); ("value", J.Float m.value); ("n", J.Int m.n) ]
    @
    match m.quartiles with
    | Some (q1, q3) -> [ ("q1", J.Float q1); ("q3", J.Float q3) ]
    | None -> [])

let workload_json (o : outcome) =
  let failed_frac = Stat.ratio (float_of_int o.failed) (float_of_int o.attempted) in
  let metrics = o.metrics @ [ ("failed_frac", scalar ~n:o.attempted failed_frac) ] in
  J.Obj
    [
      ("correct", J.Bool (o.problems = [] && o.failed = 0));
      ("attempted", J.Int o.attempted);
      ("failed", J.Int o.failed);
      ("problems", J.List (List.map (fun p -> J.Str p) o.problems));
      ("metrics", J.Obj (List.map (fun (k, m) -> (k, metric_json k m)) metrics));
    ]

(* First line of what [prog args] prints, when it exits 0. *)
let first_line prog args =
  match Unix.open_process_args_in prog (Array.of_list (prog :: args)) with
  | exception Unix.Unix_error _ -> None
  | ic -> (
      let line = try Some (String.trim (input_line ic)) with End_of_file -> None in
      match Unix.close_process_in ic with Unix.WEXITED 0 -> line | _ -> None)

(* The commit under test: [git rev-parse HEAD] when this is a git
   checkout, otherwise what [--commit] said. *)
let commit ~given =
  let head =
    if Sys.file_exists ".git" then first_line "git" [ "rev-parse"; "HEAD" ] else None
  in
  match head with Some sha -> Some sha | None -> given

(* [parallelism] is the (requested, used) count of domains per one-shot
   job, which is also that of served workers. *)
let document ~commit ~seed ~seconds ~trace ~parallelism:(requested, used) results =
  let pair = J.Obj [ ("requested", J.Int requested); ("used", J.Int used) ] in
  let opt f = function Some x -> f x | None -> J.Null in
  let nproc = Option.bind (first_line "nproc" []) int_of_string_opt in
  J.Obj
    [
      ("schema", J.Int 1);
      ("commit", opt (fun c -> J.Str c) commit);
      ( "host",
        J.Obj
          [
            ("nproc", opt (fun n -> J.Int n) nproc);
            ("recommended_domain_count", J.Int (Domain.recommended_domain_count ()));
            ("ocaml_version", J.Str Sys.ocaml_version);
          ] );
      ("seed", J.Int seed);
      ("seconds", J.Float seconds);
      ("trace", J.Bool trace);
      ("domains", pair);
      ("workers", pair);
      ("workloads", J.Obj (List.map (fun (name, o) -> (name, workload_json o)) results));
    ]

(* --- [--compare] --------------------------------------------------------- *)

(* (workload, metric) -> value, from one [--out] document. *)
let values_of path =
  let doc = J.of_string (In_channel.with_open_bin path In_channel.input_all) in
  let obj k j = Option.value ~default:[] (Option.bind (J.member k j) J.as_obj) in
  List.concat_map
    (fun (w, wj) ->
      List.filter_map
        (fun (k, mj) ->
          let v = Option.bind (J.member "value" mj) J.as_float in
          Option.map (fun v -> ((w, k), v)) v)
        (obj "metrics" wj))
    (obj "workloads" doc)

let summary xs =
  let q1, q3 = Stat.quartiles xs in
  Printf.sprintf "%.6g [%.6g, %.6g]" (Asc_util.Stats.median_f xs) q1 q3

(* For each workload and bounded metric of set A, print both sets' medians
   and quartiles, and flag a worsening beyond the metric's bound, or a
   metric B lacks.  Returns whether anything was flagged. *)
let compare a_paths b_paths =
  let a = List.concat_map values_of a_paths and b = List.concat_map values_of b_paths in
  let pick l key = List.filter_map (fun (k, v) -> if k = key then Some v else None) l in
  Printf.printf "%-22s %-16s %-34s %-34s %8s %6s\n" "workload" "metric"
    (Printf.sprintf "A (%d runs) median [q1, q3]" (List.length a_paths))
    (Printf.sprintf "B (%d runs) median [q1, q3]" (List.length b_paths))
    "change" "bound";
  let flagged = ref false in
  List.iter
    (fun ((w, k) as key) ->
      match Catalogue.find k with
      | Some ({ bound = Some bound; _ } as m) -> (
          let xa = pick a key in
          match pick b key with
          | [] ->
              flagged := true;
              Printf.printf "%-22s %-16s %-34s %-34s %8s %5.0f%%  MISSING\n" w k (summary xa)
                "-" "" (100.0 *. bound)
          | xb ->
              let ma = Asc_util.Stats.median_f xa and mb = Asc_util.Stats.median_f xb in
              let bad = Catalogue.worsening m ~a:ma ~b:mb > bound +. 1e-12 in
              if bad then flagged := true;
              Printf.printf "%-22s %-16s %-34s %-34s %+7.2f%% %5.0f%%%s\n" w k (summary xa)
                (summary xb)
                (100.0 *. Stat.ratio (mb -. ma) (Float.abs ma))
                (100.0 *. bound)
                (if bad then "  WORSE" else ""))
      | _ -> ())
    (List.sort_uniq Stdlib.compare (List.map fst a));
  !flagged
