(* Process plumbing: forked measurement children, spawned servers, and the
   /proc readings (peak RSS, CPU time, child pids) the metrics need. *)

module J = Asc_util.Json

let now = Unix.gettimeofday

let rec waitpid pid =
  match Unix.waitpid [] pid with
  | _, status -> status
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> waitpid pid

let status_ok = function Unix.WEXITED 0 -> true | _ -> false

let describe_status = function
  | Unix.WEXITED c -> Printf.sprintf "exit %d" c
  | Unix.WSIGNALED s -> Printf.sprintf "signal %d" s
  | Unix.WSTOPPED s -> Printf.sprintf "stopped by signal %d" s

(* Every process this one started and has not reaped yet; [reap_all]
   kills and reaps them, so an aborted run leaves nothing behind. *)
let spawned : int list ref = ref []

let forget pid = spawned := List.filter (( <> ) pid) !spawned

(* [in_child f] runs [f] in a forked child and returns the JSON value it
   produced.  The child starts from the parent's state, so nothing one
   child computes or caches reaches the next.  The parent must not have
   spawned a domain: OCaml refuses to fork then. *)
let in_child (f : unit -> J.t) : (J.t, string) result =
  flush stdout;
  flush stderr;
  let r, w = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
      (* The parent's servers, signal handlers, at_exit handlers and
         buffers are not this child's. *)
      spawned := [];
      Sys.set_signal Sys.sigterm Sys.Signal_default;
      Sys.set_signal Sys.sigint Sys.Signal_default;
      Unix.close r;
      let code =
        try
          let text = J.to_string ~compact:true (f ()) in
          let oc = Unix.out_channel_of_descr w in
          output_string oc text;
          close_out oc;
          0
        with e ->
          Printf.eprintf "perf: child failed: %s\n%!" (Printexc.to_string e);
          1
      in
      Unix._exit code
  | pid -> (
      spawned := pid :: !spawned;
      Unix.close w;
      let ic = Unix.in_channel_of_descr r in
      let text = In_channel.input_all ic in
      close_in ic;
      let status = waitpid pid in
      forget pid;
      if not (status_ok status) then Error ("child " ^ describe_status status)
      else match J.parse text with Ok v -> Ok v | Error e -> Error ("child output " ^ e))

(* --- /proc ------------------------------------------------------------- *)

let read_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | s -> Some s
  | exception Sys_error _ -> None

(* Peak resident set ([VmHWM]) of process [pid] (0: this process), in MB. *)
let peak_rss_mb pid =
  let path =
    if pid = 0 then "/proc/self/status" else Printf.sprintf "/proc/%d/status" pid
  in
  match read_file path with
  | None -> 0.0
  | Some text ->
      List.fold_left
        (fun acc line ->
          match String.split_on_char ':' line with
          | [ "VmHWM"; v ] -> (
              match String.split_on_char ' ' (String.trim v) with
              | kb :: _ -> (
                  match float_of_string_opt kb with Some k -> k /. 1024.0 | None -> acc)
              | [] -> acc)
          | _ -> acc)
        0.0 (String.split_on_char '\n' text)

(* The fields of /proc/PID/stat after the command name, which may itself
   hold spaces and parentheses.  Index 0 is field 3 ([state]). *)
let stat_fields pid =
  match read_file (Printf.sprintf "/proc/%d/stat" pid) with
  | None -> None
  | Some text -> (
      match String.rindex_opt text ')' with
      | None -> None
      | Some i ->
          let rest = String.sub text (i + 2) (String.length text - i - 2) in
          Some (Array.of_list (String.split_on_char ' ' (String.trim rest))))

(* User plus system CPU seconds a process has used.  /proc counts in
   USER_HZ ticks, which Linux fixes at 100 per second. *)
let cpu_seconds pid =
  match stat_fields pid with
  | Some f when Array.length f > 12 ->
      (float_of_string f.(11) +. float_of_string f.(12)) /. 100.0
  | _ -> 0.0

let children pid =
  let parent p =
    match stat_fields p with
    | Some f when Array.length f > 1 -> int_of_string_opt f.(1)
    | _ -> None
  in
  Sys.readdir "/proc" |> Array.to_list
  |> List.filter_map (fun d ->
         match int_of_string_opt d with
         | Some p when parent p = Some pid -> Some p
         | _ -> None)

(* --- spawned processes ------------------------------------------------- *)

(* Start [prog args] with standard error appended to [log].  Returns its
   pid and the read end of a pipe carrying its standard output; keep that
   open until the process has been reaped. *)
let spawn ~log prog args =
  let err =
    Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND; Unix.O_CLOEXEC ] 0o644
  in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 in
  let out, w = Unix.pipe ~cloexec:true () in
  flush stdout;
  flush stderr;
  let pid = Unix.create_process prog (Array.of_list (prog :: args)) null w err in
  List.iter Unix.close [ err; null; w ];
  spawned := pid :: !spawned;
  (pid, out)

(* Block until [out] delivers a whole line — the spawned program saying it
   is ready — without polling, so set-up times are not rounded to a poll
   interval. *)
let await_line ~what out =
  let deadline = now () +. 60.0 and buf = Bytes.create 4096 in
  let rec go () =
    let left = deadline -. now () in
    if left <= 0.0 then failwith (what ^ " did not start within 60 s");
    match Unix.select [ out ] [] [] left with
    | [], _, _ -> go ()
    | _ -> (
        match Unix.read out buf 0 (Bytes.length buf) with
        | 0 -> failwith (what ^ " exited during start-up")
        | n -> if not (Bytes.contains (Bytes.sub buf 0 n) '\n') then go ())
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ()

let alive pid =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ -> true
  | _ ->
      forget pid;
      false
  | exception Unix.Unix_error _ -> false

(* Wait up to [within] seconds for [pid] to exit on its own, then kill it. *)
let reap ?(within = 10.0) pid =
  let deadline = now () +. within in
  while alive pid && now () < deadline do
    Unix.sleepf 0.01
  done;
  if List.mem pid !spawned then begin
    (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
    ignore (waitpid pid);
    forget pid
  end

let reap_all () = List.iter (reap ~within:0.0) !spawned

let rec remove_tree path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> remove_tree (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let rec mkdir_p path =
  if path <> "" && path <> "." && not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    try Unix.mkdir path 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end
