(* Sequential fault simulation of scan tests.

   A scan test (SI, T) loads state SI, applies the PI vectors of T with the
   functional clock, and scans out the final state.  A fault is detected if
   the faulty machine differs from the fault-free machine at a primary
   output at any time unit, or in the final state (observed by scan-out).
   Faults live in the functional logic only; the scan operation itself is
   assumed fault-free (standard full-scan stuck-at assumption).

   Simulation is parallel-fault: up to 62 faulty machines run per word, one
   lane each.  Phase 1's scan-in selection instead runs one fault across 62
   *candidate initial states* per word; both modes share the same engine.

   Each faulty machine runs on the levelized kernel (Asc_sim.Kernel) as a
   cone-limited difference against the fault-free trace.

   On top of the word-level parallelism, every entry point is one
   [Sweep.run] over its fault groups (or, in [candidate_detections],
   fault indices), which takes an optional [pool]: the items are split
   into contiguous chunks, each on a private kernel; the fault-free trace
   and the packed PI words are shared read-only.  Each item reports into
   its own slot, which the submitting domain merges in index order, so
   detection bit vectors are bit-identical for any domain count.

   [profile] additionally records, per fault, the earliest PO detection
   time and the set of time units at which the faulty state differs — the
   single-pass data from which Phase 1 picks its scan-out time.
   [snapshots] records, in the same kind of pass, every faulty machine's
   state at chosen time boundaries, from which vector omission and test
   combining verify candidate suffixes without re-simulating the prefix.

   Every entry point also takes an optional [budget] (Asc_util.Budget),
   which the sweep polls once per item: a fired deadline or cancellation
   raises [Budget.Exhausted] at the next group boundary (through the
   pool's fail-fast path when domains are involved), never mid-group. *)

open Asc_util
module Circuit = Asc_netlist.Circuit
module Kernel = Asc_sim.Kernel
module Kernel3 = Asc_sim.Kernel3

type seq = bool array array (* L vectors, each of n_pis bools *)

(* Splat PI words, one array per time unit. *)
let seq_words c (seq : seq) =
  let n_pis = Circuit.n_inputs c in
  Array.map
    (fun vec ->
      if Array.length vec <> n_pis then invalid_arg "Seq_fsim: vector arity mismatch";
      Array.map Word.splat vec)
    seq

(* Fault-free trace: PO words per time unit and state words per boundary.
   [states.(t)] is the state *entering* time unit [t]; [states.(L)] is the
   final (scan-out) state. *)
type good = { po : int array array; states : int array array }

let good_run c ~si ~seq =
  let sw = seq_words c seq in
  let len = Array.length seq in
  let k = Kernel.create c in
  let v = Array.make (Circuit.n_gates c) 0 in
  let state = Array.map Word.splat si in
  let po = Array.make len [||] in
  let states = Array.make (len + 1) [||] in
  states.(0) <- Array.copy state;
  for t = 0 to len - 1 do
    Kernel.good_cycle k ~pi_words:sw.(t) ~state ~v;
    po.(t) <- Array.map (fun g -> v.(g)) (Circuit.outputs c);
    Kernel.good_capture k ~v ~state;
    states.(t + 1) <- Array.copy state
  done;
  { po; states }

let good_final_state c (good : good) =
  let words = good.states.(Array.length good.states - 1) in
  Array.init (Circuit.n_dffs c) (fun i -> words.(i) land 1 = 1)

(* Group faults 62 to a word. *)
type group = { members : int array; lanes : int; overrides : Asc_sim.Override.t list }

let make_groups faults subset =
  let total = Array.length subset in
  let n_groups = (total + Word.width - 1) / Word.width in
  Array.init n_groups (fun gi ->
      let base = gi * Word.width in
      let count = min Word.width (total - base) in
      let members = Array.sub subset base count in
      let overrides =
        List.init count (fun lane ->
            Fault.to_override faults.(members.(lane)) ~lanes:(1 lsl lane))
      in
      let lanes = if count = Word.width then Word.mask else (1 lsl count) - 1 in
      { members; lanes; overrides })

let all_indices n = Array.init n (fun i -> i)

let subset_of_only n = function
  | None -> all_indices n
  | Some mask -> Array.of_list (Bitvec.to_list mask)

(* --- Shared good-machine trace cache ----------------------------------- *)

(* Compaction re-simulates the same scan test (si, seq) many times against
   different fault subsets — detect, then profile, then verify.  The
   fault-free trace depends only on (circuit, scan-in, seq), so it is
   computed once and shared read-only: across calls through this cache,
   and across domains because only the submitting domain ever writes it.

   Each trace carries one fault-free machine, so its good words are splat
   and stored compactly (one byte per gate per cycle).  The cache is
   process-global, mutex-protected and LRU-bounded by a byte budget;
   circuits are keyed by physical identity, so a rebuilt netlist never
   aliases a stale trace, and (scan-in, seq) by a hash confirmed by exact
   equality.  Candidate traces (lanes = candidate scan-in states) stay out
   of it: no later call asks for the same packed group again.  Resumed
   runs keep their suffix rows out of it too, but share the rows of a
   cached test they rejoin (see the snapshot section). *)
module Trace_cache = struct
  type key = { si : bool array; seq : seq }

  let lock = Mutex.create ()

  let max_bytes = 32 * 1024 * 1024

  (* A hash of every scan-in bit and every vector bit: lookups compare
     hashes and confirm a match by exact equality, instead of
     structurally comparing whole sequences entry by entry. *)
  let hash { si; seq } =
    let h = ref 0 in
    let mix x = h := (!h * 1_000_003) lxor x in
    Array.iter (fun b -> mix (Bool.to_int b)) si;
    Array.iter
      (fun v ->
        mix (Array.length v);
        Array.iter (fun b -> mix (Bool.to_int b)) v)
      seq;
    !h

  (* MRU-first: (circuit, key hash, key, rows, size in bytes); the rows
     hold one byte per gate per cycle. *)
  let entries : (Circuit.t * int * key * Bytes.t array * int) list ref = ref []

  let clear () = Mutex.protect lock (fun () -> entries := [])

  (* The entry of [key] (and its hash), counting the hit or the miss. *)
  let lookup tel c key =
    let hash = hash key in
    let found =
      Mutex.protect lock (fun () ->
          let rec go acc = function
            | [] -> None
            | ((c', h, k', d, _) as e) :: rest when c' == c && h = hash && k' = key ->
                entries := e :: List.rev_append acc rest;
                Some d
            | e :: rest -> go (e :: acc) rest
          in
          go [] !entries)
    in
    Telemetry.incr tel
      (if Option.is_some found then Telemetry.Trace_cache_hits
       else Telemetry.Trace_cache_misses);
    (hash, found)

  (* Enter [rows] under a copy of [key]: the caller may mutate its own. *)
  let add c ~hash { si; seq } rows size =
    let key = { si = Array.copy si; seq = Array.map Array.copy seq } in
    Mutex.protect lock (fun () ->
        let used = ref 0 in
        entries :=
          List.filter
            (fun (_, _, _, _, sz) ->
              if !used = 0 || !used + sz <= max_bytes then begin
                used := !used + sz;
                true
              end
              else false)
            ((c, hash, key, rows, size) :: !entries))
end

let clear_trace_cache = Trace_cache.clear

(* Fault-free run recording every gate's good bit per cycle.  With
   [shared = (rows, from)], the run stops at the first time unit
   [t >= from] whose entering state is that of [rows.(t)] — the two
   machines run identical rows from there on — and takes the rest from
   [rows].  [Good_cycles] counts the computed rows. *)
let good_trace_bits ?shared tel k c ~sw ~si ~len =
  let n = Circuit.n_gates c in
  let dffs = Circuit.dffs c in
  let v = Array.make n 0 in
  let state = Array.map Word.splat si in
  let bits = Array.make len Bytes.empty in
  let rejoined t =
    match shared with
    | Some (rows, from) when t >= from ->
        let same = ref true in
        Array.iteri
          (fun i g -> if state.(i) land 1 <> Char.code (Bytes.get rows.(t) g) then same := false)
          dffs;
        !same
    | _ -> false
  in
  let t = ref 0 in
  while !t < len && not (rejoined !t) do
    Kernel.good_cycle k ~pi_words:sw.(!t) ~state ~v;
    let b = Bytes.create n in
    for g = 0 to n - 1 do
      Bytes.unsafe_set b g (if Array.unsafe_get v g land 1 = 1 then '\001' else '\000')
    done;
    bits.(!t) <- b;
    Kernel.good_capture k ~v ~state;
    incr t
  done;
  Telemetry.add tel Telemetry.Good_cycles !t;
  Option.iter (fun (rows, _) -> Array.blit rows !t bits !t (len - !t)) shared;
  bits

(* Good bits for every gate at every time unit of the scan test
   (si, seq), through the cache.  The byte rows are handed to the
   kernel's [_bits] entry points as-is — no expansion, and the whole
   trace stays cache-resident.  Only a miss builds a kernel and the PI
   words, and [Good_cycles] counts only its computed cycles. *)
let good_gb tel c ~si ~seq =
  let key = { Trace_cache.si; seq } in
  match Trace_cache.lookup tel c key with
  | _, Some bits -> bits
  | hash, None ->
      let len = Array.length seq in
      let bits = good_trace_bits tel (Kernel.create c) c ~sw:(seq_words c seq) ~si ~len in
      Trace_cache.add c ~hash key bits (len * Circuit.n_gates c);
      bits

(* Detection word of one fault group over the good rows [gb], with an
   early exit once every lane has seen a PO difference; the scan-out
   (final state) difference is folded in only when the early exit did
   not fire.  Lanes already detected are pruned from the propagation —
   their detection bit is a monotonic OR, so the result word is
   unchanged while the cone shrinks to the still-undetected faults.
   [start] sets the group's starting state difference: zero from the
   scan-in ([from_scan_in]), or one recorded in a snapshot.  The group's
   lanes and evaluated time units go to [w]. *)
let from_scan_in k (_ : group) = Kernel.reset k

let detect_group k (w : Sweep.work) ~gb ~len ~start (group : group) =
  Kernel.set_overrides k group.overrides;
  start k group;
  let det = ref 0 in
  let t = ref 0 in
  while !det <> group.lanes && !t < len do
    Kernel.cycle_bits k ~prune:!det ~gb:gb.(!t);
    det := !det lor Kernel.po_diff k;
    Kernel.finish_cycle_bits k ~gb:gb.(!t);
    incr t
  done;
  w.lanes <- w.lanes + Array.length group.members;
  w.cycles <- w.cycles + !t;
  if !t = len && !det <> group.lanes then det := !det lor Kernel.state_diff_word k;
  !det land group.lanes

(* [Sweep.run] with a private 2-valued kernel per chunk. *)
let sweep ?pool ?budget ?tel ?stop c ~init n step =
  Sweep.run ?pool ?budget ?tel ?stop
    ~engine:(fun _ -> Kernel.create c)
    ~evaluated:Kernel.take_evaluated ~init n step

(* A step's detection word [d], counted as [w]'s hits. *)
let hits (w : Sweep.work) d =
  w.hits <- w.hits + Word.popcount d;
  d

(* The fault indices of [groups] whose lanes are set in their [dets]. *)
let detected_members n groups dets =
  let result = Bitvec.create n in
  Array.iteri
    (fun gi d ->
      Word.iter_set (fun lane -> Bitvec.set result groups.(gi).members.(lane)) d)
    dets;
  result

(* Which of [faults] does the scan test (si, seq) detect?  [only] restricts
   the simulated fault indices. *)
let detect ?pool ?(budget = Budget.unlimited) ?tel ?only c ~si ~seq ~faults =
  let n = Array.length faults in
  let subset = subset_of_only n only in
  if Array.length subset = 0 then Bitvec.create n
  else
    Telemetry.span tel "fsim:detect"
      ~args:
        [
          ("faults", string_of_int (Array.length subset));
          ("len", string_of_int (Array.length seq));
        ]
      (fun () ->
        let len = Array.length seq in
        let groups = make_groups faults subset in
        let gb = good_gb tel c ~si ~seq in
        sweep ?pool ~budget ?tel c ~init:0 (Array.length groups) (fun k w gi ->
            hits w (detect_group k w ~gb ~len ~start:from_scan_in groups.(gi)))
        |> detected_members n groups)

(* Detection-time profile over a fault subset.

   [po_time.(k)] is the earliest time unit at which subset fault [k]
   differs at a PO ([max_int] if never); [state_diff_at.(k)] has bit [t]
   set when the faulty state differs from the fault-free state after the
   vector of time unit [t] — i.e. scanning out at time [t] would detect
   the fault.

   Bits are recorded only for [t <= po_time.(k)]: a PO-detected fault is
   detected by every truncation at or after its PO time anyway, so its
   lane is pruned right after the first PO detection (and the group ends
   once every lane is PO-detected). *)
type profile = {
  subset : int array;
  po_time : int array;
  state_diff_at : Bitvec.t array;
}

(* The profile loop of one group started by [start]: runs until every
   lane is PO-detected or the rows run out, and prunes each lane after
   its first PO detection.  [on_po lane t] reports a first PO detection
   at row [t]; [after t po_seen] runs after the clock edge of row [t],
   with the state difference entering [t + 1] in the kernel and
   [po_seen] the lanes PO-detected so far. *)
let profile_group k (w : Sweep.work) ~gb ~len ~start ~on_po ~after (group : group) =
  Kernel.set_overrides k group.overrides;
  start k group;
  let po_seen = ref 0 in
  let t = ref 0 in
  while !po_seen <> group.lanes && !t < len do
    (* A lane PO-detected before [t] is pruned: its state difference
       reads zero from here on. *)
    Kernel.cycle_bits k ~prune:!po_seen ~gb:gb.(!t);
    let fresh = Kernel.po_diff k land group.lanes land lnot !po_seen in
    Word.iter_set (fun lane -> on_po lane !t) fresh;
    po_seen := !po_seen lor fresh;
    Kernel.finish_cycle_bits k ~gb:gb.(!t);
    after !t !po_seen;
    incr t
  done;
  w.lanes <- w.lanes + Array.length group.members;
  w.cycles <- w.cycles + !t

let profile ?pool ?(budget = Budget.unlimited) ?tel c ~si ~seq ~faults ~subset =
  Telemetry.span tel "fsim:profile"
    ~args:
      [
        ("faults", string_of_int (Array.length subset));
        ("len", string_of_int (Array.length seq));
      ]
  @@ fun () ->
  let len = Array.length seq in
  let total = Array.length subset in
  let po_time = Array.make total max_int in
  let state_diff_at = Array.init total (fun _ -> Bitvec.create len) in
  let groups = make_groups faults subset in
  let gb = good_gb tel c ~si ~seq in
  (* Group [gi] writes only its own positions [gi*W, gi*W + lanes). *)
  ignore
    (sweep ?pool ~budget ?tel c ~init:() (Array.length groups) (fun k w gi ->
         let group = groups.(gi) in
         let base = gi * Word.width in
         profile_group k w ~gb ~len ~start:from_scan_in group
           ~on_po:(fun lane t -> po_time.(base + lane) <- t)
           ~after:(fun t _ ->
             let sd = Kernel.state_diff_word k land group.lanes in
             Word.iter_set (fun lane -> Bitvec.set state_diff_at.(base + lane) t) sd))
      : unit array);
  { subset; po_time; state_diff_at }

(* Faults detected by the test truncated to end (and scan out) at time
   [u]: PO detection at a time <= u, or state difference at u. *)
let profile_detected_at p ~u =
  let det = Bitvec.create (Array.length p.subset) in
  Array.iteri
    (fun k _ ->
      if p.po_time.(k) <= u || Bitvec.get p.state_diff_at.(k) u then Bitvec.set det k)
    p.subset;
  det

(* Candidate scan-in evaluation (Phase 1, Step 2): rows are candidate
   scan-in states, columns are fault indices; entry set when the test
   (candidate, seq) detects the fault.  One fault is simulated at a time
   across up to 62 candidate initial states per word.

   Parallel decomposition: the candidate packing and the fault-free runs
   (one per candidate group) are cheap and stay on the submitting domain;
   the sweep's items are the [subset] faults — the heavy dimension — each
   simulated against every candidate group on its chunk's kernel.  Each
   returns raw detection words; the submitter alone writes the result
   matrix, in index order. *)
let candidate_detections ?pool ?(budget = Budget.unlimited) ?tel c ~sis ~seq ~faults ~subset =
  Telemetry.span tel "fsim:candidates"
    ~args:
      [
        ("candidates", string_of_int (Array.length sis));
        ("faults", string_of_int (Array.length subset));
      ]
  @@ fun () ->
  let n_candidates = Array.length sis in
  let n_ff = Circuit.n_dffs c in
  let len = Array.length seq in
  let sw = seq_words c seq in
  let result = Bitmat.create n_candidates (Array.length faults) in
  let n_cgroups = (n_candidates + Word.width - 1) / Word.width in
  (* Pack the candidate states: lane = candidate (cbase + lane). *)
  let pack_group cg =
    let cbase = cg * Word.width in
    let count = min Word.width (n_candidates - cbase) in
    let cfull = if count = Word.width then Word.mask else (1 lsl count) - 1 in
    let init_words = Array.make n_ff 0 in
    for lane = 0 to count - 1 do
      let si = sis.(cbase + lane) in
      if Array.length si <> n_ff then invalid_arg "Seq_fsim.candidate_detections: state arity";
      for i = 0 to n_ff - 1 do
        if si.(i) then init_words.(i) <- Word.set init_words.(i) lane
      done
    done;
    (cbase, cfull, init_words)
  in
  let meta = Array.init n_cgroups pack_group in
  (* Per-group fault-free word traces (lanes = candidates), computed on
     the submitter and shared read-only with every chunk. *)
  let traces =
    let k0 = Kernel.create c in
    Array.map
      (fun (_, _, init_words) ->
        Telemetry.add tel Telemetry.Good_cycles len;
        let state = Array.copy init_words and v = Array.make (Circuit.n_gates c) 0 in
        Array.init len (fun t ->
            Kernel.good_cycle k0 ~pi_words:sw.(t) ~state ~v;
            let row = Array.copy v in
            Kernel.good_capture k0 ~v ~state;
            row))
      meta
  in
  (* One fault at a time, injected in every candidate lane. *)
  let detect_cand k (w : Sweep.work) fi cgi =
    let _, cfull, _ = meta.(cgi) in
    let gwt = traces.(cgi) in
    Kernel.set_overrides k [ Fault.to_override faults.(fi) ~lanes:Word.mask ];
    Kernel.reset k;
    let det = ref 0 in
    let t = ref 0 in
    while !det <> cfull && !t < len do
      Kernel.cycle k ~prune:!det ~gw:gwt.(!t);
      det := !det lor Kernel.po_diff k;
      Kernel.finish_cycle k ~gw:gwt.(!t);
      incr t
    done;
    w.cycles <- w.cycles + !t;
    if !t = len && !det <> cfull then det := !det lor Kernel.state_diff_word k;
    hits w (!det land cfull)
  in
  let dets =
    sweep ?pool ~budget ?tel c ~init:[||] (Array.length subset) (fun k w j ->
        w.lanes <- w.lanes + 1;
        Array.init n_cgroups (detect_cand k w subset.(j)))
  in
  Array.iteri
    (fun j per_cg ->
      Array.iteri
        (fun cgi det ->
          let cbase, _, _ = meta.(cgi) in
          Word.iter_set (fun lane -> Bitmat.set result (cbase + lane) subset.(j)) det)
        per_cg)
    dets;
  result

(* The verify loop: does every group, started by [start] and
   run over the good rows [gb], detect all its lanes?  Any failing group
   stops the sweep (its [stop] rule: sequentially no later group runs,
   across domains the other chunks stop between groups). *)
let verify_groups ?pool ~budget ?tel c ~gb ~len ~start groups =
  sweep ?pool ~budget ?tel c ~init:true ~stop:not (Array.length groups) (fun k w gi ->
      let group = groups.(gi) in
      detect_group k w ~gb ~len ~start group = group.lanes)
  |> Array.for_all Fun.id

(* Verification: does (si, seq) detect *every* fault index in [subset]?
   It is [verify_groups] from the scan-in — the time-0 snapshot: state
   [si], zero differences. *)
let verify_required ?pool ?(budget = Budget.unlimited) ?tel c ~si ~seq ~faults ~subset =
  if Array.length subset = 0 then true
  else
    Telemetry.span tel "fsim:verify"
      ~args:[ ("faults", string_of_int (Array.length subset)) ]
      (fun () ->
        let len = Array.length seq in
        let gb = good_gb tel c ~si ~seq in
        verify_groups ?pool ~budget ?tel c ~gb ~len ~start:from_scan_in
          (make_groups faults subset))

(* --- Prefix snapshots and resumed verification ------------------------ *)

(* A candidate that keeps the prefix [0, b) of a simulated test — a
   vector-omission trial (SI, T[0,p) . T[p+c,L)), a combination
   (SI_i, T_i . T_j) — need not re-simulate that prefix.  A snapshot at
   boundary [b] holds the fault-free state entering [b] and, per fault,
   either "PO-detected before [b]" (detected by any such candidate, so
   skipped) or the faulty machine's state difference at [b], from which
   the suffix resumes.

   Positions index the snapshotted fault subset; [po_time] (shared by
   the snapshots of one pass) decides "PO-detected before [b]", and
   [diffs] holds the other faults' non-zero differences only, so a pass
   with many boundaries costs memory in proportion to the faulty
   machines still diverged there.  Resumed runs compute their suffix
   rows without entering them in the trace cache: every trial suffix is
   a new sequence, so caching it would only evict the traces that do
   repeat.  They rejoin a cached trace instead ([suffix_rows]). *)
type snapshot = {
  boundary : int;
  good_state : bool array; (* fault-free state entering [boundary] *)
  index : int array; (* fault index -> position; -1 when absent *)
  po_time : int array; (* per position: first PO detection time *)
  diffs : (int, int array) Hashtbl.t; (* position -> flip-flops whose state differs *)
}

let snapshots ?pool ?(budget = Budget.unlimited) ?tel c ~si ~seq ~faults ~subset ~boundaries =
  let len = Array.length seq in
  let slot = Array.make (len + 1) (-1) in
  Array.iteri
    (fun bi b ->
      if b < 0 || b > len || slot.(b) >= 0 then invalid_arg "Seq_fsim.snapshots: boundaries";
      slot.(b) <- bi)
    boundaries;
  Telemetry.span tel "fsim:snapshot"
    ~args:
      [
        ("faults", string_of_int (Array.length subset));
        ("len", string_of_int len);
        ("boundaries", string_of_int (Array.length boundaries));
      ]
  @@ fun () ->
  let total = Array.length subset in
  let index = Array.make (Array.length faults) (-1) in
  Array.iteri (fun pos f -> index.(f) <- pos) subset;
  let po_time = Array.make total max_int in
  let diffs = Array.map (fun _ -> Hashtbl.create 64) boundaries in
  let dffs = Circuit.dffs c in
  let n_ff = Array.length dffs in
  let gb = good_gb tel c ~si ~seq in
  let good_state b =
    if b = 0 then Array.copy si
    else if b < len then Array.map (fun g -> Bytes.get gb.(b) g = '\001') dffs
    else Array.map (fun g -> Bytes.get gb.(len - 1) (Circuit.dff_input c g) = '\001') dffs
  in
  let groups = make_groups faults subset in
  (* Groups write their own positions of [po_time] directly and return
     their differences (boundary slot, position, flip-flops); the
     submitter files those. *)
  let found =
    sweep ?pool ~budget ?tel c ~init:[] (Array.length groups) (fun k w gi ->
        let group = groups.(gi) in
        let base = gi * Word.width in
        let acc = Array.make Word.width [] in
        let found = ref [] in
        profile_group k w ~gb ~len ~start:from_scan_in group
          ~on_po:(fun lane t -> po_time.(base + lane) <- t)
          ~after:(fun t po_seen ->
            let bi = slot.(t + 1) in
            if bi >= 0 then begin
              let live = group.lanes land lnot po_seen in
              for i = n_ff - 1 downto 0 do
                Word.iter_set
                  (fun lane -> acc.(lane) <- i :: acc.(lane))
                  (Kernel.state_diff k i land live)
              done;
              Word.iter_set
                (fun lane ->
                  if acc.(lane) <> [] then begin
                    found := (bi, base + lane, Array.of_list acc.(lane)) :: !found;
                    acc.(lane) <- []
                  end)
                live
            end);
        !found)
  in
  Array.iter (List.iter (fun (bi, pos, d) -> Hashtbl.replace diffs.(bi) pos d)) found;
  ( po_time,
    Array.mapi
      (fun bi b -> { boundary = b; good_state = good_state b; index; po_time; diffs = diffs.(bi) })
      boundaries )

let snapshot_covers s f = f < Array.length s.index && s.index.(f) >= 0

let position s f =
  if not (snapshot_covers s f) then invalid_arg "Seq_fsim: fault not in snapshot";
  s.index.(f)

(* Subset positions whose fault is not PO-detected before the boundary:
   the only ones a resumed run simulates. *)
let live_positions s subset =
  List.filter (fun k -> s.po_time.(position s subset.(k)) >= s.boundary)
    (List.init (Array.length subset) Fun.id)
  |> Array.of_list

(* Load a group's state differences from the snapshot, lane by lane. *)
let from_snapshot c s =
  let n_ff = Circuit.n_dffs c in
  fun k (group : group) ->
    let diff = Array.make n_ff 0 in
    Array.iteri
      (fun lane f ->
        Option.iter
          (Array.iter (fun i -> diff.(i) <- diff.(i) lor (1 lsl lane)))
          (Hashtbl.find_opt s.diffs (position s f)))
      group.members;
    Kernel.load_state_diff k ~diff

(* Fault-free rows of the suffix from the snapshot's good state.  A
   [rejoin] test (si, seq) names a trace to share: over the tail the
   suffix and [seq] have in common (aligned at their ends), once the
   suffix's good state equals the rejoin test's state at the same input
   position, both machines run identical rows from there on, so the
   rejoin test's cached rows are shared.  The rows computed before that
   stay out of the cache; without a cached rejoin trace or a common tail,
   every row is computed. *)
let suffix_rows ?rejoin tel c s suffix =
  let len = Array.length suffix in
  let shared =
    match rejoin with
    | None -> None
    | Some (si, seq) -> (
        match Trace_cache.lookup tel c { Trace_cache.si; seq } with
        | _, Some rows ->
            (* Suffix row [j] aligns with the rejoin test's row [j + shift];
               the two input sequences agree from [from] on. *)
            let shift = Array.length seq - len in
            let from = ref len in
            while
              !from > 0 && !from + shift > 0 && seq.(!from - 1 + shift) = suffix.(!from - 1)
            do
              decr from
            done;
            let aligned j = if j + shift < 0 then Bytes.empty else rows.(j + shift) in
            Some (Array.init len aligned, !from)
        | _, None -> None)
  in
  good_trace_bits ?shared tel (Kernel.create c) c ~sw:(seq_words c suffix) ~si:s.good_state
    ~len

let resume_verify ?pool ?(budget = Budget.unlimited) ?tel ?rejoin c s ~suffix ~faults ~subset =
  let live = Array.map (fun k -> subset.(k)) (live_positions s subset) in
  if Array.length live = 0 then true
  else
    Telemetry.span tel "fsim:verify"
      ~args:[ ("faults", string_of_int (Array.length live)); ("from", string_of_int s.boundary) ]
      (fun () ->
        let gb = suffix_rows ?rejoin tel c s suffix in
        verify_groups ?pool ~budget ?tel c ~gb ~len:(Array.length suffix) ~start:(from_snapshot c s)
          (make_groups faults live))

let resume_po_time ?pool ?(budget = Budget.unlimited) ?tel ?rejoin c s ~suffix ~faults ~subset =
  let result =
    Array.map
      (fun f ->
        let t = s.po_time.(position s f) in
        if t < s.boundary then t else max_int)
      subset
  in
  let live = live_positions s subset in
  if Array.length live > 0 then
    Telemetry.span tel "fsim:profile"
      ~args:[ ("faults", string_of_int (Array.length live)); ("from", string_of_int s.boundary) ]
      (fun () ->
        let len = Array.length suffix in
        let gb = suffix_rows ?rejoin tel c s suffix in
        let groups = make_groups faults (Array.map (fun k -> subset.(k)) live) in
        let start = from_snapshot c s in
        (* Groups write their own entries of [result]. *)
        ignore
          (sweep ?pool ~budget ?tel c ~init:() (Array.length groups) (fun k w gi ->
               profile_group k w ~gb ~len ~start groups.(gi)
                 ~on_po:(fun lane t ->
                   result.(live.((gi * Word.width) + lane)) <- s.boundary + t)
                 ~after:(fun _ _ -> ()))
            : unit array));
  result

(* --- 3-valued, from a partly unknown state ------------------------------ *)

(* A fault counts as detected only when the fault-free value is binary and
   the faulty value is the complementary binary value: at a PO in any time
   unit, or, at the end of the sequence, in a flip-flop of [observe] (none
   by default).  The good machine starts from [start], one Kernel3 code per
   flip-flop (all X by default) — "without scan" when both are left out,
   partial scan when [start] carries the scanned bits and [observe] marks
   the scanned flip-flops.  The fault-free run is computed once per call
   and shared read-only by the chunks; each group starts from a zero state
   difference. *)

(* Fault-free rows of [seq] from [start] on [k], and the final state. *)
let good3 tel k ~start ~seq =
  let final = Bytes.copy start in
  let gbs = Kernel3.good_trace k ~state:final ~seq in
  Telemetry.add tel Telemetry.Good_cycles (Array.length seq);
  (gbs, final)

(* [Sweep.run] with a private 3-valued kernel per chunk. *)
let sweep3 ?pool ?budget ?tel c ~init n step =
  Sweep.run ?pool ?budget ?tel
    ~engine:(fun _ -> Kernel3.create c)
    ~evaluated:Kernel3.take_evaluated ~init n step

let detect3_in ~span ?pool ?(budget = Budget.unlimited) ?tel ?only ?start ?observe c ~seq
    ~faults =
  let n = Array.length faults in
  let subset = subset_of_only n only in
  if Array.length subset = 0 then Bitvec.create n
  else
    Telemetry.span tel span
      ~args:
        [
          ("faults", string_of_int (Array.length subset));
          ("len", string_of_int (Array.length seq));
        ]
      (fun () ->
        let start = match start with Some s -> s | None -> Kernel3.x_state c in
        let gbs, final = good3 tel (Kernel3.create c) ~start ~seq in
        let groups = make_groups faults subset in
        sweep3 ?pool ~budget ?tel c ~init:0 (Array.length groups) (fun k w gi ->
            let group = groups.(gi) in
            Kernel3.set_overrides k group.overrides;
            Kernel3.reset k;
            let det, cycles = Kernel3.detect_po k ~gbs ~want:group.lanes in
            w.lanes <- w.lanes + Array.length group.members;
            w.cycles <- w.cycles + cycles;
            hits w
              (match observe with
              | Some observe when cycles = Array.length gbs && det <> group.lanes ->
                  det lor (Kernel3.state_detect ~observe k ~gs:final land group.lanes)
              | _ -> det))
        |> detected_members n groups)

let detect3 = detect3_in ~span:"fsim:detect3"

let detect_no_scan = detect3_in ~span:"fsim:detect-no-scan" ?start:None ?observe:None

(* The 3-valued profile: [profile]'s loop over the good rows from [start],
   with the [observe] flip-flops read against the good state after each
   time unit's vector.  Each lane is pruned after its first PO detection,
   so [state_diff_at] holds bits only up to the fault's PO time. *)
let profile3 ?pool ?(budget = Budget.unlimited) ?tel ~start ~observe c ~seq ~faults ~subset =
  Telemetry.span tel "fsim:profile3"
    ~args:
      [
        ("faults", string_of_int (Array.length subset));
        ("len", string_of_int (Array.length seq));
      ]
  @@ fun () ->
  let len = Array.length seq in
  let total = Array.length subset in
  let po_time = Array.make total max_int in
  let state_diff_at = Array.init total (fun _ -> Bitvec.create len) in
  let k0 = Kernel3.create c in
  let gbs, _ = good3 tel k0 ~start ~seq in
  (* Good state after each time unit's vector. *)
  let states =
    Array.map
      (fun gb ->
        let s = Kernel3.x_state c in
        Kernel3.good_capture k0 ~gb ~state:s;
        s)
      gbs
  in
  let groups = make_groups faults subset in
  (* Group [gi] writes only its own positions [gi*W, gi*W + lanes). *)
  ignore
    (sweep3 ?pool ~budget ?tel c ~init:() (Array.length groups) (fun k w gi ->
         let group = groups.(gi) in
         let base = gi * Word.width in
         Kernel3.set_overrides k group.overrides;
         Kernel3.reset k;
         let po_seen = ref 0 in
         let t = ref 0 in
         while !po_seen <> group.lanes && !t < len do
           let gb = gbs.(!t) in
           Kernel3.cycle k ~prune:!po_seen ~gb;
           let fresh = Kernel3.po_detect k ~gb land group.lanes land lnot !po_seen in
           Word.iter_set (fun lane -> po_time.(base + lane) <- !t) fresh;
           po_seen := !po_seen lor fresh;
           Kernel3.finish_cycle k ~gb;
           Word.iter_set
             (fun lane -> Bitvec.set state_diff_at.(base + lane) !t)
             (Kernel3.state_detect ~observe k ~gs:states.(!t) land group.lanes);
           incr t
         done;
         w.lanes <- w.lanes + Array.length group.members;
         w.cycles <- w.cycles + !t)
      : unit array);
  { subset; po_time; state_diff_at }

(* --- Incremental 3-valued co-simulation (for sequence generation) ------ *)

(* Keeps the fault-free 3-valued state at the end of the sequence built so
   far and, per fault group, the faulty machines' state difference against
   it; candidate extension segments can be evaluated ([peek]) or appended
   ([commit]) without re-simulating the prefix.  A lane's difference is
   meaningful only while its fault is undetected: detected lanes are
   pruned from every segment. *)
type inc3 = {
  c3 : Circuit.t;
  faults3 : Fault.t array;
  mutable groups3 : group array;
  mutable diffs : (int array * int array) array; (* per group: (z, o) state diff *)
  good_state : Bytes.t; (* fault-free state codes, per DFF *)
  good_k : Kernel3.t; (* fault-free sweeps, submitting domain only *)
  mutable kernels : Kernel3.t array; (* per sweep chunk, reused across sweeps *)
  detected3 : Bitvec.t;
  mutable length : int;
  mutable commits_since_compact : int;
  mutable intact : bool; (* no commit was cut short mid-sweep *)
}

let zero_diffs c groups =
  let n_ff = Circuit.n_dffs c in
  Array.map (fun _ -> (Array.make n_ff 0, Array.make n_ff 0)) groups

let inc3_create c faults =
  let groups3 = make_groups faults (all_indices (Array.length faults)) in
  {
    c3 = c;
    faults3 = faults;
    groups3;
    diffs = zero_diffs c groups3;
    good_state = Kernel3.x_state c;
    good_k = Kernel3.create c;
    kernels = [||];
    detected3 = Bitvec.create (Array.length faults);
    length = 0;
    commits_since_compact = 0;
    intact = true;
  }

let inc3_detected t = t.detected3

let inc3_length t = t.length


(* Repack the still-undetected faults into as few groups as possible,
   carrying each faulty machine's state difference into its new lane.
   Group count tracks the undetected population, which collapses after
   the first mass detection wave — without this, every candidate
   evaluation would keep paying for the full fault list. *)
let inc3_compact t =
  let undetected =
    Array.of_list
      (Bitvec.to_list
         (Bitvec.init (Array.length t.faults3) (fun i -> not (Bitvec.get t.detected3 i))))
  in
  let n_ff = Circuit.n_dffs t.c3 in
  (* Old lane coordinates of every fault index. *)
  let coord = Hashtbl.create 256 in
  Array.iteri
    (fun gi (g : group) ->
      Array.iteri (fun lane fi -> Hashtbl.replace coord fi (gi, lane)) g.members)
    t.groups3;
  let groups = make_groups t.faults3 undetected in
  let diffs = zero_diffs t.c3 groups in
  Array.iteri
    (fun gi (g : group) ->
      let z, o = diffs.(gi) in
      Array.iteri
        (fun lane fi ->
          let ogi, olane = Hashtbl.find coord fi in
          let oz, oo = t.diffs.(ogi) in
          for i = 0 to n_ff - 1 do
            if Word.get oz.(i) olane then z.(i) <- Word.set z.(i) lane;
            if Word.get oo.(i) olane then o.(i) <- Word.set o.(i) lane
          done)
        g.members)
    groups;
  t.groups3 <- groups;
  t.diffs <- diffs;
  t.commits_since_compact <- 0

(* Lanes of group [gi] not yet detected. *)
let undetected_lanes t gi =
  let group = t.groups3.(gi) in
  let lanes = ref 0 in
  Array.iteri
    (fun lane fi -> if not (Bitvec.get t.detected3 fi) then lanes := !lanes lor (1 lsl lane))
    group.members;
  !lanes land group.lanes

(* Run the segment with good rows [gbs] on group [gi] from its state
   difference; returns the mask of newly detected lanes.  Only
   undetected lanes are simulated, each pruned once detected, and the run
   stops when all of them are.  [store] writes the final difference back
   (a commit); a peek leaves the group untouched. *)
let run_segment k (w : Sweep.work) t gi ~gbs ~store =
  let want = undetected_lanes t gi in
  if want = 0 then 0
  else begin
    let z, o = t.diffs.(gi) in
    Kernel3.set_overrides k t.groups3.(gi).overrides;
    Kernel3.load_state_diff k ~z ~o;
    let det, n = Kernel3.detect_po k ~gbs ~want in
    w.cycles <- w.cycles + n;
    if store then Kernel3.store_state_diff k ~z ~o;
    det
  end

(* Fault-free rows of a segment from the good machine's current state,
   which is advanced only when [advance].  Also reports whether any PO is
   ever binary: while the fault-free machine is still fully unknown at the
   outputs, no fault can be detected. *)
let good_segment t segment ~advance =
  let state = if advance then t.good_state else Bytes.copy t.good_state in
  let gbs = Kernel3.good_trace t.good_k ~state ~seq:segment in
  let outputs = Circuit.outputs t.c3 in
  let any_known =
    Array.exists (fun gb -> Array.exists (fun g -> Bytes.get gb g <> Kernel3.x) outputs) gbs
  in
  (gbs, any_known)

(* [Sweep.run] of [run_segment] over the fault groups, on per-chunk
   kernels kept across sweeps (grown here, on the submitter): group
   [gi]'s difference is touched only by the task that owns [gi], and the
   good rows and [detected3] are read-only during the sweep — so peek
   counts and commit detections are bit-identical for any domain
   count. *)
let inc3_sweep ?pool ?budget ?tel t ~gbs ~store =
  let n_groups = Array.length t.groups3 in
  let chunks = Domain_pool.chunk_count pool n_groups in
  let nk = Array.length t.kernels in
  if nk < chunks then
    t.kernels <-
      Array.init chunks (fun ci ->
          if ci < nk then t.kernels.(ci) else Kernel3.create t.c3);
  Sweep.run ?pool ?budget ?tel
    ~engine:(fun ci -> t.kernels.(ci))
    ~evaluated:Kernel3.take_evaluated ~init:0 n_groups
    (fun k w gi -> run_segment k w t gi ~gbs ~store)

(* Evaluate a candidate segment without committing: number of newly
   detected faults.  No group state is written, so an exhausted budget
   never corrupts the incremental simulation. *)
let inc3_peek ?pool ?(budget = Budget.unlimited) ?tel t (segment : seq) =
  let gbs, any_known = good_segment t segment ~advance:false in
  Telemetry.add tel Telemetry.Good_cycles (Array.length segment);
  if not any_known then 0
  else
    inc3_sweep ?pool ~budget ?tel t ~gbs ~store:false
    |> Array.fold_left (fun acc d -> acc + Word.popcount d) 0

(* Append a segment: update every undetected machine, mark newly detected
   faults, return how many were newly detected.  The budget is polled only
   on entry: once the sweep starts mutating group states, the commit runs
   to completion so the incremental state stays consistent.  (A pool with
   its own budget may still abort the sweep mid-commit; callers must then
   stop using [t], which the generators do — they unwind without
   committing, and take [inc3_detections], which re-simulates then.) *)
let inc3_commit ?pool ?(budget = Budget.unlimited) ?tel t (segment : seq) =
  Budget.check budget;
  (* From here on the good state and the group differences change: a
     sweep cut short leaves them describing no committed sequence. *)
  let intact = t.intact in
  t.intact <- false;
  let gbs, _ = good_segment t segment ~advance:true in
  Telemetry.add tel Telemetry.Good_cycles (Array.length segment);
  let dets = inc3_sweep ?pool ?tel t ~gbs ~store:true in
  let newly = ref 0 in
  Array.iteri
    (fun gi group ->
      Word.iter_set
        (fun lane ->
          let fi = group.members.(lane) in
          if not (Bitvec.get t.detected3 fi) then begin
            Bitvec.set t.detected3 fi;
            incr newly
          end)
        dets.(gi))
    t.groups3;
  t.length <- t.length + Array.length segment;
  t.commits_since_compact <- t.commits_since_compact + 1;
  (* Repack once detections have shrunk the undetected set appreciably. *)
  let undetected_count = Array.length t.faults3 - Bitvec.count t.detected3 in
  let capacity = Array.length t.groups3 * Word.width in
  if
    t.commits_since_compact >= 8
    && capacity > 2 * Word.width
    && undetected_count * 2 < capacity
  then inc3_compact t;
  t.intact <- intact;
  Telemetry.add tel Telemetry.Fault_detections !newly;
  !newly

(* The committed sequence [seq]'s detections: a commit cut short leaves
   the co-simulation describing no committed sequence, so [seq] is then
   simulated once, off the pool. *)
let inc3_detections ?tel t ~seq =
  if t.intact then Bitvec.copy t.detected3
  else detect_no_scan ?tel t.c3 ~seq ~faults:t.faults3
