(* Persistent content-addressed result cache for the serving layer.
   One file per job key under the state directory, following the
   Checkpoint v2 durability discipline: plain text with a CRC-32 trailer
   over every preceding byte, written atomically by [Asc_util.Sealed]
   (temp file + rename) with bounded retry, and corrupt or foreign
   entries skipped *and deleted* on load so a torn write never wedges a
   key.

   Format ([result-<key>.res]):

     ascres v1
     key <key>
     tests <n>
     cycles <n>
     detected <n>
     targets <n>
     iterations <n>
     tset <nbytes>
     <raw test-set bytes, exactly nbytes>
     endtset
     crc <8 hex digits>

   The test set is framed by byte count (it contains newlines), so the
   parser is cursor-based rather than line-split.  Only Complete results
   are ever stored; status therefore needs no encoding — a loaded entry
   is Complete by construction. *)

module Crc = Asc_util.Crc

type entry = {
  e_key : string;
  e_tests : int;
  e_cycles : int;
  e_detected : int;
  e_targets : int;
  e_iterations : int;
  e_tset : string;
}

type t = {
  dir : string option;
  mem : (string, entry) Hashtbl.t;
}

let create ?dir () =
  Option.iter Asc_util.Sealed.mkdir_p dir;
  { dir; mem = Hashtbl.create 64 }

let path ~dir key = Filename.concat dir ("result-" ^ key ^ ".res")

(* --- Codec -------------------------------------------------------------- *)

let entry_to_string e =
  let buf = Buffer.create (String.length e.e_tset + 256) in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "ascres v1\n";
  add "key %s\n" e.e_key;
  add "tests %d\n" e.e_tests;
  add "cycles %d\n" e.e_cycles;
  add "detected %d\n" e.e_detected;
  add "targets %d\n" e.e_targets;
  add "iterations %d\n" e.e_iterations;
  add "tset %d\n" (String.length e.e_tset);
  Buffer.add_string buf e.e_tset;
  add "endtset\n";
  Asc_util.Sealed.seal (Buffer.contents buf)

exception Bad of string

let entry_of_string text =
  let pos = ref 0 in
  let len = String.length text in
  (* Next newline-terminated line; the cursor advances past the '\n'. *)
  let line () =
    if !pos >= len then raise (Bad "unexpected end of entry");
    match String.index_from_opt text !pos '\n' with
    | None -> raise (Bad "unterminated line")
    | Some i ->
        let l = String.sub text !pos (i - !pos) in
        pos := i + 1;
        l
  in
  let int_line name =
    let l = line () in
    let prefix = name ^ " " in
    if not (String.length l > String.length prefix
            && String.sub l 0 (String.length prefix) = prefix) then
      raise (Bad (Printf.sprintf "expected %s line, got %S" name l));
    let v = String.sub l (String.length prefix)
              (String.length l - String.length prefix) in
    match int_of_string_opt v with
    | Some n when n >= 0 -> n
    | _ -> raise (Bad (Printf.sprintf "bad %s %S" name v))
  in
  try
    if line () <> "ascres v1" then raise (Bad "bad magic");
    let key =
      let l = line () in
      if String.length l < 5 || String.sub l 0 4 <> "key " then
        raise (Bad "expected key line");
      String.sub l 4 (String.length l - 4)
    in
    let tests = int_line "tests" in
    let cycles = int_line "cycles" in
    let detected = int_line "detected" in
    let targets = int_line "targets" in
    let iterations = int_line "iterations" in
    let nbytes = int_line "tset" in
    if !pos + nbytes > len then raise (Bad "truncated tset");
    let tset = String.sub text !pos nbytes in
    pos := !pos + nbytes;
    if line () <> "endtset" then raise (Bad "missing endtset");
    (* The trailer covers every byte before its own line. *)
    let body_len = !pos in
    let cl = line () in
    if String.length cl <> 12 || String.sub cl 0 4 <> "crc " then
      raise (Bad "missing crc trailer");
    (match Crc.of_hex (String.sub cl 4 8) with
    | None -> raise (Bad "bad crc digits")
    | Some claimed ->
        if Crc.crc32 (String.sub text 0 body_len) <> claimed then
          raise (Bad "crc mismatch (corrupt entry)"));
    if !pos <> len then raise (Bad "content after crc trailer");
    Ok
      {
        e_key = key;
        e_tests = tests;
        e_cycles = cycles;
        e_detected = detected;
        e_targets = targets;
        e_iterations = iterations;
        e_tset = tset;
      }
  with Bad message -> Error message

(* --- Store / find ------------------------------------------------------- *)

let store t e =
  Hashtbl.replace t.mem e.e_key e;
  match t.dir with
  | None -> ()
  | Some dir -> (
      let p = path ~dir e.e_key in
      let text = entry_to_string e in
      (* The on-disk copy is an availability optimisation, not ground
         truth (the in-memory entry already answers this process): retry
         transient failures briefly, then give up without failing the
         job that produced the result. *)
      let rec attempt n =
        match Asc_util.Sealed.write p text with
        | () -> ()
        | exception Sys_error _ when n < 2 ->
            Unix.sleepf (0.002 *. float_of_int (n + 1));
            attempt (n + 1)
        | exception Sys_error _ -> ()
      in
      attempt 0)

(* [find] returns [from_disk = true] when the entry was faulted in from
   the persistent store (a restart-surviving hit).  A file that fails to
   decode — torn write, bit rot, or a key mismatch from a hash collision
   of file names — is deleted so it cannot shadow a future store. *)
let find t key =
  match Hashtbl.find_opt t.mem key with
  | Some e -> Some (e, false)
  | None -> (
      match t.dir with
      | None -> None
      | Some dir -> (
          let p = path ~dir key in
          if not (Sys.file_exists p) then None
          else
            match
              entry_of_string (In_channel.with_open_bin p In_channel.input_all)
            with
            | Ok e when e.e_key = key ->
                Hashtbl.replace t.mem key e;
                Some (e, true)
            | Ok _ | Error _ ->
                (try Sys.remove p with Sys_error _ -> ());
                None
            | exception Sys_error _ -> None))
