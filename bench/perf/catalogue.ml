(* Every metric the benchmark reports.  The declared ones come from
   BENCHMARK.json, built into the program, with their names, units,
   directions and bounds; README.md says which layer each one measures
   and which end-to-end metric it should move. *)

module J = Asc_util.Json

type better = Lower | Higher

type scope =
  | End_to_end  (** Declared; every workload reports it untraced. *)
  | Per_layer  (** Declared; every workload reports it traced. *)
  | Recorded
      (** Written to [--out] and compared by [--compare], but not declared:
          only some workloads have it, or the result line carries it in
          another form. *)

type t = {
  name : string;
  unit_ : string;
  better : better;
  bound : float option;  (** Share of the baseline median it may worsen by. *)
  scope : scope;
}

let benchmark = J.of_string Declared.json

let list key j = Option.value ~default:[] (Option.bind (J.member key j) J.as_list)

let declared key scope =
  List.map
    (fun m ->
      let str k = Option.bind (J.member k m) J.as_str in
      match (str "name", str "unit", str "better") with
      | Some name, Some unit_, Some (("lower" | "higher") as b) ->
          let better = if b = "lower" then Lower else Higher in
          { name; unit_; better; bound = Option.bind (J.member "bound" m) J.as_float; scope }
      | _ -> failwith ("BENCHMARK.json: malformed metric in " ^ key))
    (list key benchmark)

(* The workload names BENCHMARK.json declares. *)
let workloads =
  List.filter_map (fun w -> Option.bind (J.member "name" w) J.as_str) (list "workloads" benchmark)

let recorded name unit_ better bound =
  { name; unit_; better; bound = Some bound; scope = Recorded }

let all =
  declared "end_to_end" End_to_end
  @ declared "per_layer" Per_layer
  @ [
      recorded "latency_p99_ms" "ms" Lower 0.25;
      recorded "n_cyc" "cycles" Lower 0.0;
      recorded "fault_coverage" "fraction" Higher 0.0;
      (* The result line carries it as [attempted] and [failed]. *)
      recorded "failed_frac" "fraction" Lower 0.0;
    ]

let find name = List.find_opt (fun m -> m.name = name) all

let in_scope scope = List.filter (fun m -> m.scope = scope) all

(* How much worse [b] is than [a], as a share of [a]: positive when [b]
   moved in the metric's bad direction. *)
let worsening m ~a ~b =
  let d = if a = 0.0 then b -. a else (b -. a) /. Float.abs a in
  match m.better with Lower -> d | Higher -> -.d
