(* Unit tests for the serving transport's line reader (Asc_core.Wire)
   and the persistence helpers (Asc_util.Sealed): frames split across
   reads, CRLF and blank lines, read errors ending the stream, and
   numbered-copy rotation at every keep the callers use. *)

open Asc_util
module Wire = Asc_core.Wire

let with_pipe f =
  let r, w = Unix.pipe () in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) [ r; w ])
    (fun () -> f r w)

let put fd s = ignore (Unix.write_substring fd s 0 (String.length s))

let lines rd =
  let acc = ref [] in
  Wire.drain rd (fun l ->
      acc := l :: !acc;
      true);
  List.rev !acc

let test_frame_split_across_reads () =
  with_pipe @@ fun r w ->
  let rd = Wire.reader () in
  put w "{\"op\":";
  Alcotest.(check bool) "first half read" true (Wire.read rd r);
  Alcotest.(check (list string)) "no frame yet" [] (lines rd);
  Alcotest.(check int) "half frame buffered" 6 (Wire.buffered rd);
  put w "\"ping\"}\r\n\n\r\n{\"op\":\"metrics\"}\n{\"op\"";
  Alcotest.(check bool) "second half read" true (Wire.read rd r);
  Alcotest.(check (list string)) "CRLF stripped, blank lines dropped"
    [ "{\"op\":\"ping\"}"; "{\"op\":\"metrics\"}" ]
    (lines rd);
  Alcotest.(check int) "partial tail kept" 5 (Wire.buffered rd);
  (* [drain] stops when the callback says so; the rest stays queued. *)
  put w ":1}\nA\nB\n";
  ignore (Wire.read rd r);
  let first = ref [] in
  Wire.drain rd (fun l ->
      first := l :: !first;
      false);
  Alcotest.(check (list string)) "stopped after one" [ "{\"op\":1}" ] !first;
  Alcotest.(check (list string)) "rest still buffered" [ "A"; "B" ] (lines rd)

(* Every read error except EINTR ends the stream, like end of file:
   reading a pipe's write end fails with EBADF. *)
let test_read_error_ends_stream () =
  with_pipe @@ fun r w ->
  let rd = Wire.reader () in
  Alcotest.(check bool) "read error is end of stream" false (Wire.read rd w);
  Unix.close w;
  Alcotest.(check bool) "EOF is end of stream" false (Wire.read rd r)

(* [text] through a pipe in writes of at most 64 KiB, each followed by
   one read and a drain: the lines in order, and the bytes allocated
   meanwhile. *)
let through_pipe text =
  with_pipe @@ fun r w ->
  Unix.set_nonblock w;
  let rd = Wire.reader () and got = ref [] and off = ref 0 in
  let before = Gc.allocated_bytes () in
  while !off < String.length text do
    let n = min 65536 (String.length text - !off) in
    (match Unix.single_write_substring w text !off n with
    | sent -> off := !off + sent
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ());
    ignore (Wire.read rd r);
    Wire.drain rd (fun l ->
        got := l :: !got;
        true)
  done;
  (List.rev !got, Gc.allocated_bytes () -. before)

(* The reader copies each byte a bounded number of times, whether a
   frame spans many reads or a read holds many frames.  A reader that
   copies its whole buffer per read and per frame allocates about 575 MB
   and 350 MB on these inputs, far above the bounds. *)
let test_reader_is_linear () =
  let mib = 1024 * 1024 in
  let frame = String.init ((8 * mib) - 1) (fun i -> Char.chr (97 + (i mod 26))) in
  let lines, allocated = through_pipe (frame ^ "\n") in
  Alcotest.(check int) "one 8 MiB frame" 1 (List.length lines);
  Alcotest.(check bool) "8 MiB frame intact" true (lines = [ frame ]);
  Alcotest.(check bool)
    (Printf.sprintf "8 MiB frame allocates %.0f MB < 100 MB" (allocated /. 1e6))
    true (allocated < 100e6);
  let frames = List.init (mib / 100) (fun i -> Printf.sprintf "%099d" i) in
  let lines, allocated = through_pipe (String.concat "\n" frames ^ "\n") in
  Alcotest.(check bool) "10485 small frames intact" true (lines = frames);
  Alcotest.(check bool)
    (Printf.sprintf "1 MiB of small frames allocates %.1f MB < 20 MB" (allocated /. 1e6))
    true (allocated < 20e6)

(* [f] runs in a directory [Sealed.mkdir_p] created two levels deep. *)
let with_temp_dir f =
  let dir = Test_serve.temp_dir "asc-sealed" in
  let sub = Filename.concat (Filename.concat dir "a") "b" in
  Sealed.mkdir_p sub;
  Fun.protect ~finally:(fun () -> Test_serve.rm_rf dir) (fun () -> f sub)

let read path = In_channel.with_open_bin path In_channel.input_all

(* Write generations 1..n through [rotate ~keep] + [write] and return
   what each name holds afterwards. *)
let generations ~keep n =
  with_temp_dir @@ fun dir ->
  let path = Filename.concat dir "f" in
  for g = 1 to n do
    Sealed.rotate path ~keep;
    Sealed.write path (string_of_int g)
  done;
  Alcotest.(check bool) "no temp file left" false (Sys.file_exists (path ^ ".tmp"));
  List.filter_map
    (fun name -> if Sys.file_exists name then Some (read name) else None)
    [ path; path ^ ".1"; path ^ ".2"; path ^ ".3" ]

let test_rotate_keeps_copies () =
  Alcotest.(check (list string)) "keep 1" [ "4" ] (generations ~keep:1 4);
  Alcotest.(check (list string)) "keep 2" [ "4"; "3" ] (generations ~keep:2 4);
  Alcotest.(check (list string)) "keep 3" [ "4"; "3"; "2" ] (generations ~keep:3 4);
  Alcotest.(check (list string)) "keep 3, one write" [ "1" ] (generations ~keep:3 1)

(* The event log at keep 1 starts a fresh file on rotation: nothing is
   promoted and the old events are gone. *)
let test_log_keep1_truncates () =
  with_temp_dir @@ fun dir ->
  let path = Filename.concat dir "events.jsonl" in
  let log = Some (Log.create ~max_bytes:256 ~keep:1 path) in
  for i = 1 to 40 do
    Log.emit log "tick" ~fields:[ ("i", Json.Int i) ]
  done;
  Log.close log;
  Alcotest.(check bool) "no rotated copy" false (Sys.file_exists (path ^ ".1"));
  let text = read path in
  Alcotest.(check bool) "bounded by max_bytes" true (String.length text <= 256);
  Alcotest.(check bool) "newest event kept" true
    (List.exists
       (fun line ->
         match Json.parse line with
         | Ok j -> Option.bind (Json.member "i" j) Json.as_int = Some 40
         | Error _ -> false)
       (String.split_on_char '\n' text))

let test_seal_trailer () =
  let body = "ascres v1\nkey k\n" in
  Alcotest.(check string) "trailer covers every body byte"
    (body ^ "crc " ^ Crc.to_hex (Crc.crc32 body) ^ "\n")
    (Sealed.seal body)

let suite =
  [
    ( "wire",
      [
        Alcotest.test_case "reader joins a frame split across reads" `Quick
          test_frame_split_across_reads;
        Alcotest.test_case "reader ends the stream on a read error" `Quick
          test_read_error_ends_stream;
        Alcotest.test_case "reader copies each byte a bounded number of times" `Quick
          test_reader_is_linear;
      ] );
    ( "sealed",
      [
        Alcotest.test_case "rotate keeps keep copies (1, 2, 3)" `Quick
          test_rotate_keeps_copies;
        Alcotest.test_case "event log at keep 1 truncates on rotation" `Quick
          test_log_keep1_truncates;
        Alcotest.test_case "seal appends the CRC trailer" `Quick test_seal_trailer;
      ] );
  ]
