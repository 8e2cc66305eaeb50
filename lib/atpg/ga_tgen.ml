(* Genetic sequence generation, in the spirit of STRATEGATE [10].

   STRATEGATE evolves candidate vector sequences with a genetic algorithm,
   using fault detection as fitness and dynamic state traversal to escape
   plateaus.  This module follows that shape: a population of candidate
   segments evolves through tournament selection, single-point temporal
   crossover and bit mutation; fitness is the number of newly detected
   faults (incremental 3-valued co-simulation from the committed prefix),
   with the number of newly visited fault-free states as a tie-breaker —
   the state-traversal pressure that lets the search cross detection
   plateaus.  The best individual is committed when it detects new faults
   or visits new states; otherwise patience decays and segment length
   grows.

   Compared to {!Seq_tgen} (the cheaper PROPTEST-style generator), this
   one spends more simulation per committed vector and tends to find the
   deep sequential detections; the bench's T0-quality ablation compares
   the two (and plain random) end to end. *)

open Asc_util
module Circuit = Asc_netlist.Circuit
module Seq_fsim = Asc_fault.Seq_fsim
module Kernel3 = Asc_sim.Kernel3

type config = {
  budget : int;
  seg_len : int;
  max_seg_len : int;
  population : int;
  generations : int;
  mutation : float; (* per-bit flip probability *)
  patience : int;
}

let default_config =
  {
    budget = 1000;
    seg_len = 10;
    max_seg_len = 40;
    population = 8;
    generations = 4;
    mutation = 0.05;
    patience = 3;
  }

type result = { seq : bool array array; detected : Bitvec.t }

(* A compact signature of the good machine's 3-valued state, hashed over
   its splat (z, o) words. *)
let state_signature state =
  let word code i = if Bytes.get state i = code then Word.mask else 0 in
  let h = ref 17 in
  for i = 0 to Bytes.length state - 1 do
    h := (!h * 999983) lxor word Kernel3.zero i
  done;
  for i = 0 to Bytes.length state - 1 do
    h := (!h * 1000003) lxor word Kernel3.one i
  done;
  !h

(* Count the states a segment visits that are not in [visited], stepping
   a copy of the good state [state]. *)
let count_novel_states good state visited segment =
  let state = Bytes.copy state in
  let novel = ref 0 in
  Array.iter
    (fun pis ->
      Kernel3.good_step good ~pis ~state;
      let s = state_signature state in
      if not (Hashtbl.mem visited s) then begin
        Hashtbl.replace visited s ();
        incr novel
      end)
    segment;
  !novel

(* Record the states of a committed segment permanently. *)
let commit_states good state visited segment =
  Array.iter
    (fun pis ->
      Kernel3.good_step good ~pis ~state;
      Hashtbl.replace visited (state_signature state) ())
    segment

(* [budget] (wall-clock, distinct from [config.budget]'s length cap): a
   fired budget ends the evolution loop — unwinding out of the fitness
   co-simulation via [Budget.Exhausted] — and the committed prefix is
   returned as the sequence. *)
let generate ?pool ?(budget = Budget.unlimited) ?tel ?(config = default_config) c
    ~faults ~rng =
  Telemetry.span tel "tgen:ga"
    ~args:[ ("faults", string_of_int (Array.length faults)) ]
  @@ fun () ->
  let n_pis = Circuit.n_inputs c in
  let inc = Seq_fsim.inc3_create c faults in
  (* A fault-free mirror for state-novelty accounting. *)
  let good = Kernel3.create c in
  let good_state = Kernel3.x_state c in
  let visited = Hashtbl.create 1024 in
  let segments = ref [] in
  let seg_len = ref config.seg_len in
  let fruitless = ref 0 in
  let finished = ref false in
  let random_individual len =
    if Rng.int rng 100 < 25 then begin
      (* Held vectors matter for reset/enable conditions. *)
      let v = Rng.bool_array rng n_pis in
      Array.init len (fun _ -> Array.copy v)
    end
    else Array.init len (fun _ -> Rng.bool_array rng n_pis)
  in
  let mutate ind =
    Array.map
      (fun vec ->
        Array.map (fun b -> if Rng.float rng < config.mutation then not b else b) vec)
      ind
  in
  let crossover a b =
    let len = Array.length a in
    let point = 1 + Rng.int rng (max 1 (len - 1)) in
    Array.init len (fun i -> Array.copy (if i < point then a.(i) else b.(i)))
  in
  (* Lexicographic fitness: detections first, novel states second.  The
     novelty count is evaluated against a throwaway copy of [visited] so
     candidates don't spoil each other. *)
  let fitness ind =
    Telemetry.incr tel Telemetry.Tgen_candidates;
    let detections = Seq_fsim.inc3_peek ?pool ~budget ?tel inc ind in
    let novelty = count_novel_states good good_state (Hashtbl.copy visited) ind in
    (detections, novelty)
  in
  (try
  while not !finished do
    let remaining = config.budget - Seq_fsim.inc3_length inc in
    if remaining <= 0 || Budget.exhausted budget then finished := true
    else begin
      let len = min !seg_len remaining in
      let population = ref (Array.init config.population (fun _ -> random_individual len)) in
      let best = ref None in
      for _gen = 1 to config.generations do
        let scored =
          Array.map (fun ind -> (fitness ind, ind)) !population
        in
        Array.sort (fun (fa, _) (fb, _) -> compare fb fa) scored;
        (match (!best, scored.(0)) with
        | None, s -> best := Some s
        | Some (fb, _), (f, _ ) when f > fb -> best := Some scored.(0)
        | Some _, _ -> ());
        (* Elitism + offspring of the top half. *)
        let parents = Array.sub scored 0 (max 1 (config.population / 2)) in
        let offspring k =
          if k = 0 then snd scored.(0)
          else begin
            let pick () = snd parents.(Rng.int rng (Array.length parents)) in
            mutate (crossover (pick ()) (pick ()))
          end
        in
        population := Array.init config.population offspring
      done;
      match !best with
      | Some ((detections, novelty), ind) when detections > 0 || novelty > 0 ->
          let (_ : int) = Seq_fsim.inc3_commit ?pool ~budget ?tel inc ind in
          Telemetry.incr tel Telemetry.Tgen_commits;
          commit_states good good_state visited ind;
          segments := ind :: !segments;
          if detections > 0 then fruitless := 0
          else begin
            (* Novel states only: useful, but don't wander forever. *)
            incr fruitless;
            if !fruitless >= 3 * config.patience then finished := true
          end
      | _ ->
          incr fruitless;
          if !fruitless >= config.patience then begin
            fruitless := 0;
            if !seg_len >= config.max_seg_len then finished := true
            else seg_len := min config.max_seg_len (2 * !seg_len)
          end
    end
  done
  with Budget.Exhausted _ -> ());
  if !segments = [] then begin
    let seg = random_individual (min config.budget config.seg_len) in
    (try
       let (_ : int) = Seq_fsim.inc3_commit ?pool inc seg in
       ()
     with Budget.Exhausted _ -> ());
    segments := [ seg ]
  end;
  let seq = Array.concat (List.rev !segments) in
  { seq; detected = Seq_fsim.inc3_detections ?tel inc ~seq }
