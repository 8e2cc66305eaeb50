(* Small numeric helpers for experiment reporting. *)

let mean = function
  | [] -> 0.0
  | l -> List.fold_left ( +. ) 0.0 (List.map float_of_int l) /. float_of_int (List.length l)

let min_max = function
  | [] -> invalid_arg "Stats.min_max: empty list"
  | x :: rest ->
      List.fold_left (fun (lo, hi) v -> (min lo v, max hi v)) (x, x) rest

(* Render "lo-hi" as in the paper's range columns. *)
let range_string l =
  let lo, hi = min_max l in
  Printf.sprintf "%d-%d" lo hi

(* Render a mean with two decimals as in the paper's "ave" columns. *)
let mean_string l = Printf.sprintf "%.2f" (mean l)

let median l =
  match List.sort compare l with
  | [] -> invalid_arg "Stats.median: empty list"
  | sorted ->
      let n = List.length sorted in
      let a = Array.of_list sorted in
      if n mod 2 = 1 then float_of_int a.(n / 2)
      else (float_of_int a.((n / 2) - 1) +. float_of_int a.(n / 2)) /. 2.0

let sum = List.fold_left ( + ) 0

(* Percentage with one decimal, guarding the empty denominator. *)
let percent ~num ~den = if den = 0 then 0.0 else 100.0 *. float_of_int num /. float_of_int den

(* --- Float-list variants (utilization / imbalance reporting) ----------- *)

let sum_f = List.fold_left ( +. ) 0.0

let mean_f = function
  | [] -> 0.0
  | l -> sum_f l /. float_of_int (List.length l)

let median_f l =
  match List.sort compare l with
  | [] -> invalid_arg "Stats.median_f: empty list"
  | sorted ->
      let a = Array.of_list sorted in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Population standard deviation (the whole set is observed, not a
   sample). *)
let stddev_f l =
  match l with
  | [] | [ _ ] -> 0.0
  | _ ->
      let m = mean_f l in
      sqrt (mean_f (List.map (fun v -> (v -. m) ** 2.0) l))

let stddev l = stddev_f (List.map float_of_int l)

(* [percentile_f ~p l]: the p-th percentile (0 <= p <= 100) with linear
   interpolation between closest ranks, the common "linear" definition
   (numpy's default).  p = 0 is the minimum, p = 100 the maximum, p = 50
   the median. *)
let percentile_f ~p l =
  if not (p >= 0.0 && p <= 100.0) then
    invalid_arg (Printf.sprintf "Stats.percentile_f: p must be in [0, 100] (got %g)" p);
  match List.sort compare l with
  | [] -> invalid_arg "Stats.percentile_f: empty list"
  | sorted ->
      let a = Array.of_list sorted in
      let n = Array.length a in
      let rank = p /. 100.0 *. float_of_int (n - 1) in
      let lo = int_of_float (Float.floor rank) in
      let hi = int_of_float (Float.ceil rank) in
      if lo = hi then a.(lo) else a.(lo) +. ((rank -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let percentile ~p l = percentile_f ~p (List.map float_of_int l)
