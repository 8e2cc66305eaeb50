(* perf.exe: the repository's end-to-end and per-layer benchmark.

     perf.exe [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
              [--out FILE] [--commit SHA] [--smoke]
     perf.exe --compare A.json... -- B.json...

   Without --workload it runs all four workloads in turn.  The last line
   of standard output is the JSON result of the last workload run.  See
   README.md. *)

open Perf_bench

let usage = "perf.exe [options]  |  perf.exe --compare A.json... -- B.json..."

(* Where a traced run writes one Chrome trace per workload. *)
let trace_dir = "_perf/traces"

(* [--compare A... -- B...]: exits 1 when a metric got worse than its
   bound or went missing, 2 on a malformed command line. *)
let compare args =
  let rec split acc = function
    | "--" :: rest -> Some (List.rev acc, rest)
    | x :: rest -> split (x :: acc) rest
    | [] -> None
  in
  match split [] args with
  | Some ((_ :: _ as a), (_ :: _ as b)) -> exit (if Report.compare a b then 1 else 0)
  | _ ->
      prerr_endline "perf: --compare needs A.json... -- B.json...";
      exit 2

let () =
  let workload = ref None and seed = ref 1 and seconds = ref None and trace = ref 0 in
  let out = ref None and given_commit = ref None and smoke = ref false in
  let some r = Arg.String (fun s -> r := Some s) in
  let specs =
    [
      ("--workload", some workload, "NAME  one of " ^ String.concat ", " Workload.names);
      ("--seed", Arg.Set_int seed, "N  workload seed (default 1)");
      ( "--seconds",
        Arg.Float (fun s -> seconds := Some s),
        "S  length of each timed loop (default 20; 1 with --smoke)" );
      ("--trace", Arg.Set_int trace, "0|1  1: the traced run, per-layer metrics");
      ("--out", some out, "FILE  write the self-describing result document");
      ("--commit", some given_commit, "SHA  commit to record when git cannot tell");
      ("--smoke", Arg.Set smoke, " the four workloads at s27/s298 size, for the tests");
      ("--compare", Arg.Rest_all compare, "A.json... -- B.json...  compare two run sets");
    ]
  in
  Arg.parse specs (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  if !trace <> 0 && !trace <> 1 then begin
    prerr_endline "perf: --trace takes 0 or 1";
    exit 2
  end;
  let trace = !trace = 1 in
  let seconds = Option.value !seconds ~default:(if !smoke then 1.0 else 20.0) in
  let workloads =
    match !workload with
    | None -> if !smoke then Workload.smoke else Workload.all
    | Some name -> (
        match Workload.find ~smoke:!smoke name with
        | Some w -> [ w ]
        | None ->
            Printf.eprintf "perf: unknown workload %S (expected one of %s)\n" name
              (String.concat ", " Workload.names);
            exit 2)
  in
  (* Two domains per one-shot job, two served workers and two client
     connections, but never more than the host has cores: a number
     measured with more would not describe this host. *)
  let requested = 2 and cores = Domain.recommended_domain_count () in
  let used = max 1 (min requested cores) in
  let asc = Filename.concat (Filename.dirname Sys.executable_name) "../../bin/asc.exe" in
  let served (w : Workload.t) = match w.kind with Served _ -> true | Oneshot _ -> false in
  let serves = List.exists served workloads in
  if serves && not (Sys.file_exists asc) then begin
    Printf.eprintf "perf: %s not found; build it with `dune build bin/asc.exe`\n" asc;
    exit 2
  end;
  Printf.printf
    "perf: seed %d, %gs per loop, trace %b; domains and workers %d (requested %d), %d \
     cores, OCaml %s\n%!"
    !seed seconds trace used requested cores Sys.ocaml_version;
  if trace then Proc.mkdir_p trace_dir;
  (* However the run ends, the servers and children it started end too.  A
     server that dies mid-request shows as a write error, not SIGPIPE. *)
  at_exit Proc.reap_all;
  let stop _ = exit 130 in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle stop);
  Sys.set_signal Sys.sigint (Sys.Signal_handle stop);
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let scope = if trace then Catalogue.Per_layer else Catalogue.End_to_end in
  let run (w : Workload.t) =
    match w.kind with
    | Oneshot o -> Oneshot.run o ~name:w.name ~seed:!seed ~domains:used ~seconds ~trace ~trace_dir
    | Served s ->
        Served.run s ~asc ~name:w.name ~seed:!seed ~domains:used ~workers:used ~seconds ~trace
          ~trace_dir
  in
  let results =
    List.map
      (fun (w : Workload.t) ->
        let outcome =
          try run w
          with e ->
            Printf.eprintf "perf: %s: %s\n%!" w.name (Printexc.to_string e);
            exit 1
        in
        if outcome.attempted = 0 then begin
          Printf.eprintf "perf: %s: no operation ran\n%!" w.name;
          exit 1
        end;
        Report.print_outcome w.name outcome;
        print_endline (Report.result_line ~scope outcome);
        (w.name, outcome))
      workloads
  in
  Option.iter
    (fun path ->
      let commit = Report.commit ~given:!given_commit in
      Asc_util.Json.write_file path
        (Report.document ~commit ~seed:!seed ~seconds ~trace ~parallelism:(requested, used)
           results))
    !out
