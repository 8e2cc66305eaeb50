(* Plain-text serialization of Pipeline snapshots (crash-safe resume).

   Format (one item per line, '#' comments, bit strings as in Tset_io):

     checkpoint v2
     circuit <name> <n_pis> <n_ffs>
     seed <n>
     t0 <fingerprint>            # e.g. directed/1000
     comb <|C|>
     t0len <n>
     f0count <n>
     iter <n>
     selected <bits>             # |C| bits, chosen scan-in states
     it <si> <u_so> <len> <det>  # iteration log, newest first
     seq                         # T_C entering the next iteration
     v <bits>
     endseq
     tau                         # best iterate so far (optional block)
     si <bits>
     v <bits>
     endtau
     phase3 <bits>               # post-Phase-3 snapshot: uncovered faults
     add                         # one block per Phase-3 added test
     si <bits>
     v <bits>
     endadd
     crc <8 hex digits>          # CRC-32 of every byte before this line

   The [phase3] line (and its [add] blocks) appear only in snapshots taken
   at the post-Phase-3 boundary; resuming from one skips straight to
   Phase 4.  A [phase3] line requires a [tau] block (Phase 3 cannot have
   run without a best iterate).

   v2 appends a CRC-32 trailer covering the raw bytes of everything
   before the [crc] line, so a bit-flipped-but-grammatical file can never
   load as a snapshot that differs from what was saved.  v1 files (no
   trailer) still load; a v1 file carrying a [crc] line is rejected.

   Files are written atomically by [Asc_util.Sealed] (temp file +
   rename), so a run killed mid-write leaves the previous checkpoint
   intact.  [write_file] adds rotation ([keep] copies: <file>, <file>.1,
   …), bounded retry with backoff on transient [Sys_error]s, and passes
   its chaos handle so the injection points fire around every syscall;
   [load_latest_valid] recovers by falling back across rotated copies
   when the newest one is corrupt or missing. *)

module Scan_test = Asc_scan.Scan_test
module Tset_io = Asc_scan.Tset_io

exception Corrupt of { line : int; message : string }

exception Incompatible of string

let fail line fmt =
  Format.kasprintf (fun message -> raise (Corrupt { line; message })) fmt

let to_string (s : Pipeline.snapshot) =
  let buf = Buffer.create 4096 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "# asc pipeline checkpoint (iteration %d)\n" s.snap_iter;
  add "checkpoint v2\n";
  add "circuit %s %d %d\n" s.snap_circuit s.snap_pis s.snap_ffs;
  add "seed %d\n" s.snap_seed;
  add "t0 %s\n" s.snap_t0;
  add "comb %d\n" s.snap_comb_size;
  add "t0len %d\n" s.snap_t0_length;
  add "f0count %d\n" s.snap_f0_count;
  add "iter %d\n" s.snap_iter;
  add "selected %s\n"
    (Tset_io.bits_to_string
       (Array.init
          (Asc_util.Bitvec.length s.snap_selected)
          (Asc_util.Bitvec.get s.snap_selected)));
  List.iter
    (fun (it : Pipeline.iteration) ->
      add "it %d %d %d %d\n" it.si_index it.u_so it.len_after_omission it.detected_count)
    s.snap_iterations;
  add "seq\n";
  Array.iter (fun v -> add "v %s\n" (Tset_io.bits_to_string v)) s.snap_seq;
  add "endseq\n";
  (match s.snap_best with
  | None -> ()
  | Some t ->
      add "tau\n";
      add "si %s\n" (Tset_io.bits_to_string t.si);
      Array.iter (fun v -> add "v %s\n" (Tset_io.bits_to_string v)) t.seq;
      add "endtau\n");
  (match s.snap_phase3 with
  | None -> ()
  | Some p3 ->
      add "phase3 %s\n"
        (Tset_io.bits_to_string
           (Array.init
              (Asc_util.Bitvec.length p3.ph3_uncovered)
              (Asc_util.Bitvec.get p3.ph3_uncovered)));
      Array.iter
        (fun (t : Scan_test.t) ->
          add "add\n";
          add "si %s\n" (Tset_io.bits_to_string t.si);
          Array.iter (fun v -> add "v %s\n" (Tset_io.bits_to_string v)) t.seq;
          add "endadd\n")
        p3.ph3_added);
  (* The trailer covers every byte emitted so far, comments included. *)
  Asc_util.Sealed.seal (Buffer.contents buf)

(* Parser: single pass, mutable slots; [section] tracks whether v-lines
   belong to the header (none), the T_C block or the tau block. *)
type section = Top | In_seq | In_tau | In_add

let of_string text =
  let lines = String.split_on_char '\n' text in
  let version = ref None in
  let crc_claim = ref None in
  let circuit = ref None in
  let seed = ref None
  and t0 = ref None
  and comb = ref None
  and t0len = ref None
  and f0count = ref None
  and iter = ref None in
  let selected = ref None in
  let its = ref [] in
  let seq = ref None in
  let seq_acc = ref [] in
  let tau = ref None in
  let tau_si = ref None in
  let tau_acc = ref [] in
  let phase3_uncovered = ref None in
  let adds = ref [] in
  let add_si = ref None in
  let add_acc = ref [] in
  let section = ref Top in
  let int_field line name r v =
    if !r <> None then fail line "duplicate %s" name;
    match int_of_string_opt v with
    | Some n -> r := Some n
    | None -> fail line "bad %s %S" name v
  in
  let bits line v =
    try Tset_io.bits_of_string line v
    with Tset_io.Format_error { line; message } -> fail line "%s" message
  in
  List.iteri
    (fun i raw ->
      let line = i + 1 in
      let s = String.trim raw in
      let s =
        match String.index_opt s '#' with
        | Some k -> String.trim (String.sub s 0 k)
        | None -> s
      in
      if s <> "" then begin
        (* The CRC trailer covers every byte before it, so nothing may
           follow it. *)
        (match !crc_claim with
        | Some (cl, _) when cl <> line -> fail line "content after crc trailer"
        | _ -> ());
        match (String.split_on_char ' ' s, !section) with
        | [ "checkpoint"; "v1" ], Top -> version := Some 1
        | [ "checkpoint"; "v2" ], Top -> version := Some 2
        | [ "checkpoint"; v ], Top -> fail line "unsupported checkpoint version %S" v
        | [ "circuit"; name; pis; ffs ], Top -> (
            if !circuit <> None then fail line "duplicate circuit";
            match (int_of_string_opt pis, int_of_string_opt ffs) with
            | Some pis, Some ffs -> circuit := Some (name, pis, ffs)
            | _ -> fail line "bad circuit header")
        | [ "seed"; v ], Top -> int_field line "seed" seed v
        | [ "t0"; v ], Top ->
            if !t0 <> None then fail line "duplicate t0";
            t0 := Some v
        | [ "comb"; v ], Top -> int_field line "comb" comb v
        | [ "t0len"; v ], Top -> int_field line "t0len" t0len v
        | [ "f0count"; v ], Top -> int_field line "f0count" f0count v
        | [ "iter"; v ], Top -> int_field line "iter" iter v
        | [ "selected"; v ], Top ->
            if !selected <> None then fail line "duplicate selected";
            selected := Some (bits line v)
        | [ "it"; a; b; c; d ], Top -> (
            match
              ( int_of_string_opt a,
                int_of_string_opt b,
                int_of_string_opt c,
                int_of_string_opt d )
            with
            | Some si_index, Some u_so, Some len_after_omission, Some detected_count ->
                its :=
                  { Pipeline.si_index; u_so; len_after_omission; detected_count } :: !its
            | _ -> fail line "bad iteration record %S" s)
        | [ "seq" ], Top ->
            if !seq <> None then fail line "duplicate seq block";
            seq_acc := [];
            section := In_seq
        | [ "v"; v ], In_seq -> seq_acc := bits line v :: !seq_acc
        | [ "endseq" ], In_seq ->
            seq := Some (Array.of_list (List.rev !seq_acc));
            section := Top
        | [ "tau" ], Top ->
            if !tau <> None then fail line "duplicate tau block";
            tau_si := None;
            tau_acc := [];
            section := In_tau
        | [ "si"; v ], In_tau ->
            if !tau_si <> None then fail line "duplicate si";
            tau_si := Some (bits line v)
        | [ "v"; v ], In_tau -> tau_acc := bits line v :: !tau_acc
        | [ "endtau" ], In_tau ->
            let si = match !tau_si with Some x -> x | None -> fail line "tau without si" in
            if !tau_acc = [] then fail line "tau without vectors";
            tau := Some (Scan_test.create ~si ~seq:(Array.of_list (List.rev !tau_acc)));
            section := Top
        | [ "phase3"; v ], Top ->
            if !phase3_uncovered <> None then fail line "duplicate phase3";
            phase3_uncovered := Some (bits line v)
        | [ "add" ], Top ->
            if !phase3_uncovered = None then fail line "add block before phase3";
            add_si := None;
            add_acc := [];
            section := In_add
        | [ "si"; v ], In_add ->
            if !add_si <> None then fail line "duplicate si";
            add_si := Some (bits line v)
        | [ "v"; v ], In_add -> add_acc := bits line v :: !add_acc
        | [ "endadd" ], In_add ->
            let si = match !add_si with Some x -> x | None -> fail line "add without si" in
            if !add_acc = [] then fail line "add without vectors";
            adds := Scan_test.create ~si ~seq:(Array.of_list (List.rev !add_acc)) :: !adds;
            section := Top
        | [ "crc"; v ], Top -> (
            if !crc_claim <> None then fail line "duplicate crc trailer";
            match Asc_util.Crc.of_hex v with
            | Some n -> crc_claim := Some (line, n)
            | None -> fail line "bad crc %S" v)
        | _, _ -> fail line "unrecognised line %S" s
      end)
    lines;
  if !section <> Top then fail 0 "unterminated block";
  (match (!version, !crc_claim) with
  | None, _ -> fail 0 "missing checkpoint version line"
  | Some 1, Some (line, _) -> fail line "crc trailer in a v1 checkpoint"
  | Some 1, None -> ()
  | Some 2, None -> fail 0 "missing crc trailer"
  | Some 2, Some (crc_line, claimed) ->
      (* The trailer covers the raw bytes of every line before it. *)
      let offset =
        let rec go i off = function
          | [] -> off
          | l :: tl -> if i = crc_line then off else go (i + 1) (off + String.length l + 1) tl
        in
        go 1 0 lines
      in
      let body = String.sub text 0 offset in
      if Asc_util.Crc.crc32 body <> claimed then
        fail crc_line "crc mismatch (corrupt checkpoint)"
  | Some _, _ -> assert false);
  let req name r = match !r with Some x -> x | None -> fail 0 "missing %s" name in
  let snap_circuit, snap_pis, snap_ffs = req "circuit" circuit in
  let snap_seq = req "seq block" seq in
  let snap_selected_bits = req "selected" selected in
  Array.iter
    (fun v ->
      if Array.length v <> snap_pis then fail 0 "seq vector arity mismatch")
    snap_seq;
  (match !tau with
  | Some (t : Scan_test.t) ->
      if Array.length t.si <> snap_ffs then fail 0 "tau si arity mismatch";
      Array.iter
        (fun v -> if Array.length v <> snap_pis then fail 0 "tau vector arity mismatch")
        t.seq
  | None -> ());
  let snap_phase3 =
    match !phase3_uncovered with
    | None ->
        if !adds <> [] then fail 0 "add blocks without a phase3 line";
        None
    | Some uncovered_bits ->
        if !tau = None then fail 0 "phase3 without a tau block";
        let ph3_added = Array.of_list (List.rev !adds) in
        Array.iter
          (fun (t : Scan_test.t) ->
            if Array.length t.si <> snap_ffs then fail 0 "add si arity mismatch";
            Array.iter
              (fun v ->
                if Array.length v <> snap_pis then fail 0 "add vector arity mismatch")
              t.seq)
          ph3_added;
        Some
          {
            Pipeline.ph3_added;
            ph3_uncovered =
              Asc_util.Bitvec.init (Array.length uncovered_bits) (fun i ->
                  uncovered_bits.(i));
          }
  in
  let snap_comb_size = req "comb" comb in
  if Array.length snap_selected_bits <> snap_comb_size then
    fail 0 "selected length %d does not match comb %d"
      (Array.length snap_selected_bits)
      snap_comb_size;
  {
    Pipeline.snap_circuit;
    snap_pis;
    snap_ffs;
    snap_seed = req "seed" seed;
    snap_t0 = req "t0" t0;
    snap_comb_size;
    snap_t0_length = req "t0len" t0len;
    snap_f0_count = req "f0count" f0count;
    snap_iter = req "iter" iter;
    snap_selected =
      Asc_util.Bitvec.init (Array.length snap_selected_bits) (fun i ->
          snap_selected_bits.(i));
    snap_seq;
    snap_best = !tau;
    (* The file lists iterations newest-first, like the snapshot; undo the
       reversal that accumulating with [::] introduced. *)
    snap_iterations = List.rev !its;
    snap_phase3;
  }

let validate p ~config s =
  Option.iter (fun m -> raise (Incompatible m)) (Pipeline.snapshot_mismatch p config s)

module Chaos = Asc_util.Chaos
module Tel = Asc_util.Telemetry

let write_file ?tel ?chaos ?(keep = 1) ?(retries = 2) path (s : Pipeline.snapshot) =
  if keep < 1 then invalid_arg "Checkpoint.write_file: keep must be >= 1";
  if retries < 0 then invalid_arg "Checkpoint.write_file: retries must be >= 0";
  Tel.span tel "checkpoint:write" ~args:[ ("iter", string_of_int s.snap_iter) ]
  @@ fun () ->
  let text = to_string s in
  let rec attempt n =
    match
      if n = 0 then Asc_util.Sealed.rotate ?chaos path ~keep;
      Asc_util.Sealed.write ?chaos path text
    with
    | () -> Tel.incr tel Tel.Checkpoint_writes
    | exception (Chaos.Killed _ as e) -> raise e
    | exception (Sys_error _ as e) ->
        Tel.incr tel Tel.Checkpoint_write_failures;
        if n >= retries then raise e
        else begin
          (* Linear backoff, short enough not to distort deadline-aware
             runs: transient failures (ENOSPC racing a cleaner, NFS
             hiccups) usually clear within a few milliseconds. *)
          Unix.sleepf (0.002 *. float_of_int (n + 1));
          attempt (n + 1)
        end
  in
  attempt 0

let read_file ?chaos path =
  Chaos.hit chaos Chaos.checkpoint_read;
  of_string (In_channel.with_open_bin path In_channel.input_all)

type loaded = {
  snapshot : Pipeline.snapshot;
  source : string; (* the file the snapshot was read from *)
  recovered : bool; (* a rotated copy, not the newest file *)
}

let load_latest_valid ?tel ?chaos path =
  let rec rotated k =
    let p = Printf.sprintf "%s.%d" path k in
    if Sys.file_exists p then p :: rotated (k + 1) else []
  in
  let rec probe first_error = function
    | [] -> (
        match first_error with
        | Some (e, bt) -> Printexc.raise_with_backtrace e bt
        | None -> raise (Sys_error (path ^ ": no checkpoint found")))
    | p :: rest -> (
        match read_file ?chaos p with
        | snapshot ->
            let recovered = p <> path in
            if recovered then Tel.incr tel Tel.Checkpoint_recoveries;
            { snapshot; source = p; recovered }
        | exception ((Corrupt _ | Sys_error _) as e) ->
            (* Keep the newest file's error: if every copy is bad, that is
               the most useful one to report. *)
            let first_error =
              match first_error with
              | Some _ -> first_error
              | None -> Some (e, Printexc.get_raw_backtrace ())
            in
            probe first_error rest)
  in
  probe None (path :: rotated 1)
