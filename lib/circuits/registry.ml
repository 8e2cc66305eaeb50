(* Name-based access to every circuit the experiments use: the synthetic
   benchmark stand-ins plus the embedded s27.  Generated circuits are
   memoised per (name, seed), the [memo_cap] newest only: a long-lived
   server meets a fresh seed in every cold job, and an unbounded memo
   would keep every circuit it ever built. *)

let memo_cap = 64

let cache : (string * int, Asc_netlist.Circuit.t) Hashtbl.t = Hashtbl.create 32

let order : (string * int) Queue.t = Queue.create ()

let names = "s27" :: Profile.names

let mem name = List.mem name names

let get ?(seed = 1) name =
  match Hashtbl.find_opt cache (name, seed) with
  | Some c -> c
  | None ->
      let c =
        if name = "s27" then S27.circuit ()
        else
          match Profile.find name with
          | Some p -> Generator.generate ~seed p
          | None -> invalid_arg (Printf.sprintf "Registry.get: unknown circuit %S" name)
      in
      if Queue.length order >= memo_cap then Hashtbl.remove cache (Queue.pop order);
      Hashtbl.replace cache (name, seed) c;
      Queue.add (name, seed) order;
      c

(* The directed-T0 length budget for a circuit (s27 gets a small default). *)
let t0_budget name =
  match Profile.find name with Some p -> p.t0_budget | None -> 50
