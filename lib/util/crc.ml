(* CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) over strings.

   Used as the checkpoint-trailer integrity check: CRC-32 detects every
   single-bit error and every burst up to 32 bits, which is exactly the
   corruption class a torn or bit-rotted checkpoint file exhibits.  The
   value fits in 32 bits and is kept in a non-negative [int]. *)

let table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref n in
         for _ = 0 to 7 do
           c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
         done;
         !c))

let crc32 s =
  let t = Lazy.force table in
  let c = ref 0xFFFFFFFF in
  String.iter
    (fun ch -> c := t.((!c lxor Char.code ch) land 0xff) lxor (!c lsr 8))
    s;
  !c lxor 0xFFFFFFFF

let to_hex c = Printf.sprintf "%08x" c

(* Only the spelling [to_hex] writes parses: a trailer byte flipped to
   an uppercase digit or an underscore (both accepted by
   [int_of_string]) must not name the same checksum. *)
let of_hex s =
  if String.length s <> 8
     || not (String.for_all (function '0' .. '9' | 'a' .. 'f' -> true | _ -> false) s)
  then None
  else Some (int_of_string ("0x" ^ s))
