(** Lane-masked value overrides — the generic fault-injection mechanism
    shared by the 2- and 3-valued kernels.

    An override forces a signal stuck at a value in selected lanes:
    [pin = -1] forces the gate's output; [pin = k >= 0] forces the gate's
    [k]-th fanin as seen by this gate only (fanout-branch fault; for a DFF,
    pin 0 is the captured D value). *)

type t = { gate : int; pin : int; stuck : bool; lanes : int }

val output : gate:int -> stuck:bool -> lanes:int -> t
val input : gate:int -> pin:int -> stuck:bool -> lanes:int -> t

(** Force the override's lanes of a word to the stuck value. *)
val apply : t -> int -> int
