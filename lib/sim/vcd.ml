(* VCD (Value Change Dump) waveform writer.

   Dumps the fault-free trajectory of a scan test — every signal of the
   circuit over the test's functional cycles, plus a generated clock — in
   the standard VCD format, viewable in GTKWave and friends.  One VCD time
   step is half a clock cycle: values change on the rising edge. *)

module Circuit = Asc_netlist.Circuit
module Word = Asc_util.Word

(* VCD identifier codes: printable ASCII, multi-character, excluding '#'
   and '$' (legal per the standard but confusing to simple parsers). *)
let alphabet =
  let chars = ref [] in
  for ch = 126 downto 33 do
    if ch <> Char.code '#' && ch <> Char.code '$' then chars := Char.chr ch :: !chars
  done;
  Array.of_list !chars

let code_of_index i =
  let base = Array.length alphabet in
  let rec go i acc =
    let acc = String.make 1 alphabet.(i mod base) ^ acc in
    if i < base then acc else go ((i / base) - 1) acc
  in
  go i ""

let header c =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "$version asc waveform dump $end\n";
  Buffer.add_string buf "$timescale 1ns $end\n";
  Buffer.add_string buf (Printf.sprintf "$scope module %s $end\n" (Circuit.name c));
  Buffer.add_string buf "$var wire 1 ! clock $end\n";
  for g = 0 to Circuit.n_gates c - 1 do
    Buffer.add_string buf
      (Printf.sprintf "$var wire 1 %s %s $end\n" (code_of_index (g + 1))
         (Circuit.signal_name c g))
  done;
  Buffer.add_string buf "$upscope $end\n$enddefinitions $end\n";
  buf

(* Dump the fault-free run of (si, seq), stepped on the kernel's
   fault-free sweep with every lane the same machine. *)
let of_scan_test c ~si ~seq =
  let buf = header c in
  let n = Circuit.n_gates c in
  let previous = Array.make n None in
  let k = Kernel.create c in
  let v = Array.make n 0 in
  let state = Array.map Word.splat si in
  let emit_time t = Buffer.add_string buf (Printf.sprintf "#%d\n" t) in
  Array.iteri
    (fun cycle pis ->
      Kernel.good_cycle k ~pi_words:(Array.map Word.splat pis) ~state ~v;
      let values = Array.map (fun w -> w land 1 = 1) v in
      emit_time (2 * cycle);
      Buffer.add_string buf "1!\n";
      for g = 0 to n - 1 do
        if previous.(g) <> Some values.(g) then begin
          Buffer.add_string buf
            (Printf.sprintf "%c%s\n" (if values.(g) then '1' else '0')
               (code_of_index (g + 1)));
          previous.(g) <- Some values.(g)
        end
      done;
      emit_time ((2 * cycle) + 1);
      Buffer.add_string buf "0!\n";
      Kernel.good_capture k ~v ~state)
    seq;
  emit_time (2 * Array.length seq);
  Buffer.contents buf

let write_file path c ~si ~seq =
  let oc = open_out path in
  (try output_string oc (of_scan_test c ~si ~seq)
   with e ->
     close_out oc;
     raise e);
  close_out oc
