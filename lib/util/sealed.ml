(* Whole-file persistence: CRC trailer, atomic write, rotation. *)

let seal body = body ^ Printf.sprintf "crc %s\n" (Crc.to_hex (Crc.crc32 body))

let write ?chaos path text =
  let tmp = path ^ ".tmp" in
  try
    Chaos.hit chaos Chaos.checkpoint_open;
    let oc = open_out_bin tmp in
    (try
       Chaos.hit chaos Chaos.checkpoint_output;
       output_string oc text;
       close_out oc
     with e ->
       let bt = Printexc.get_raw_backtrace () in
       close_out_noerr oc;
       Printexc.raise_with_backtrace e bt);
    Chaos.hit chaos Chaos.checkpoint_rename;
    Sys.rename tmp path
  with
  | Chaos.Killed _ as e -> raise e
  | e ->
      let bt = Printexc.get_raw_backtrace () in
      (try Sys.remove tmp with Sys_error _ -> ());
      Printexc.raise_with_backtrace e bt

(* Re-running after a partial rotation is harmless: already-promoted
   names no longer exist and are skipped. *)
let rotate ?chaos path ~keep =
  if keep > 1 && Sys.file_exists path then begin
    for k = keep - 2 downto 1 do
      let src = Printf.sprintf "%s.%d" path k in
      if Sys.file_exists src then begin
        Chaos.hit chaos Chaos.checkpoint_rotate;
        Sys.rename src (Printf.sprintf "%s.%d" path (k + 1))
      end
    done;
    Chaos.hit chaos Chaos.checkpoint_rotate;
    Sys.rename path (path ^ ".1")
  end

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    let parent = Filename.dirname dir in
    if parent <> dir then mkdir_p parent;
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end
