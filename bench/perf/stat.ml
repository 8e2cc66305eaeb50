(* The order statistics the benchmark needs beyond [Asc_util.Stats]. *)

(* First and third quartile by Python's [statistics.quantiles(xs, n=4)]
   (the default "exclusive" method), so a spread computed here matches one
   computed from the same values in Python.  One sample is its own
   quartiles. *)
let quartiles xs =
  let a = Array.of_list (List.sort Float.compare xs) in
  let len = Array.length a in
  if len = 0 then invalid_arg "Stat.quartiles: no samples"
  else if len = 1 then (a.(0), a.(0))
  else
    let m = len + 1 in
    let cut i =
      let j = max 1 (min (len - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
      /. 4.0
    in
    (cut 1, cut 3)

(* Samples that lie above the [p]-th percentile of [n] samples. *)
let beyond ~p n = int_of_float (Float.of_int n *. (100.0 -. p) /. 100.0)

(* The [p]-th percentile, reported only when at least ten samples lie
   beyond it: a tail read from fewer samples is one or two outliers, not a
   percentile. *)
let tail ~p xs =
  if beyond ~p (List.length xs) < 10 then None
  else Some (Asc_util.Stats.percentile_f ~p xs)

(* [num / den], or 0 when nothing was attempted. *)
let ratio num den = if den = 0.0 then 0.0 else num /. den
