(** Numeric helpers for experiment reporting. *)

val mean : int list -> float

(** Raises [Invalid_argument] on the empty list. *)
val min_max : int list -> int * int

(** ["lo-hi"], as in the paper's range columns. *)
val range_string : int list -> string

(** Mean with two decimals, as in the paper's "ave" columns. *)
val mean_string : int list -> string

val median : int list -> float
val sum : int list -> int

(** [percent ~num ~den] is [100 * num / den], or [0.] when [den = 0]. *)
val percent : num:int -> den:int -> float

(** {1 Float-list variants} *)

val sum_f : float list -> float

(** 0. on the empty list, like {!mean}. *)
val mean_f : float list -> float

(** Raises [Invalid_argument] on the empty list. *)
val median_f : float list -> float

(** Population standard deviation; 0. for lists of fewer than two
    elements. *)
val stddev_f : float list -> float

val stddev : int list -> float

(** [percentile_f ~p l] is the [p]-th percentile (linear interpolation
    between closest ranks; [p = 50.] equals {!median_f}).  Raises
    [Invalid_argument] on the empty list or [p] outside [0, 100]. *)
val percentile_f : p:float -> float list -> float

val percentile : p:float -> int list -> float
