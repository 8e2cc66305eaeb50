(* Lane-masked value overrides: the generic fault-injection mechanism.

   An override forces a signal to [stuck] in the lanes selected by [lanes]:
   - [pin = -1]: the gate's output (after evaluation);
   - [pin = k >= 0]: the gate's [k]-th fanin as seen by this gate only
     (a fanout-branch fault); for a DFF, pin 0 is the captured D value.

   The kernels index overrides by attachment point themselves (see
   [Sched.group]). *)

type t = { gate : int; pin : int; stuck : bool; lanes : int }

let output ~gate ~stuck ~lanes = { gate; pin = -1; stuck; lanes }
let input ~gate ~pin ~stuck ~lanes =
  if pin < 0 then invalid_arg "Override.input: negative pin";
  { gate; pin; stuck; lanes }

(* [apply o w] forces the override's lanes of word [w] to the stuck value. *)
let apply o w =
  if o.stuck then w lor o.lanes else w land lnot o.lanes
