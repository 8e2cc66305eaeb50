(** CRC-32 (IEEE 802.3) checksums, used by the checkpoint format's
    integrity trailer.  Detects all single-bit errors and all bursts up to
    32 bits — the corruption class of torn or bit-rotted files. *)

(** [crc32 s] is the CRC-32 of [s] as a non-negative int in [0, 2^32). *)
val crc32 : string -> int

(** Fixed-width (8 lowercase hex digit, zero-padded) rendering, and its
    inverse.  [of_hex] returns [None] unless the input is exactly 8
    lowercase hex digits, as [to_hex] writes them. *)
val to_hex : int -> string

val of_hex : string -> int option
