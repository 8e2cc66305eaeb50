(* Black-box tests for the `asc route` shard router (docs/SERVING.md
   "Fleet: routing, sharding and overload"): served bytes stay identical
   to the one-shot CLI through the router, a SIGKILLed shard fails its
   in-flight jobs over without losing any, a restarted shard is marked
   back up, metrics aggregate across the fleet, and a chaos-failed
   backend write triggers the same failover path.  All tests reuse the
   process harness from {!Test_serve}. *)

open Asc_util
open Test_serve

(* A fleet: [shards] `asc serve` processes plus one `asc route` in front.
   [f] gets the front socket and the shard pid array (so tests can kill
   a specific shard); the router's exit status is returned.  Shards the
   body leaves running are SIGKILLed in the cleanup. *)
let with_fleet ?router_env ?(shards = 2) ?(shard_args = fun _ -> [])
    ?(router_args = []) f =
  let dir = temp_dir "asc-fleet" in
  let shard_sock i = Filename.concat dir (Printf.sprintf "shard%d.sock" i) in
  let front = Filename.concat dir "front.sock" in
  let shard_pids =
    Array.init shards (fun i ->
        spawn_server
          ([ "serve"; "--socket"; shard_sock i; "--domains"; "1" ]
          @ shard_args i)
          (Filename.concat dir (Printf.sprintf "shard%d.log" i)))
  in
  let router_pid = ref None in
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        shard_pids;
      (match !router_pid with
      | Some pid -> (
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [ Unix.WNOHANG ] pid)
          with Unix.Unix_error _ -> ())
      | None -> ());
      rm_rf dir)
    (fun () ->
      Array.iteri (fun i _ -> wait_for_socket (shard_sock i)) shard_pids;
      let pid =
        spawn_server ?env:router_env
          ([ "route"; "--socket"; front ]
          @ List.concat_map
              (fun i -> [ "--backend"; shard_sock i ])
              (List.init shards Fun.id)
          @ router_args)
          (Filename.concat dir "route.log")
      in
      router_pid := Some pid;
      wait_for_socket front;
      (* Give the initial health probes a beat so the first submit finds
         live backends instead of racing the mark-up. *)
      Unix.sleepf 0.3;
      f ~dir ~front ~shard_pids ~shard_sock;
      let _, st = Unix.waitpid [] pid in
      router_pid := None;
      st)

let counter m name =
  match Option.bind (response_member m "counters") (Json.member name) with
  | Some v -> Option.value ~default:(-1) (Json.as_int v)
  | None -> Alcotest.failf "metrics lacks counter %s" name

let gauge m name =
  match
    Option.bind
      (Option.bind (response_member m "gauges") (Json.member name))
      Json.as_float
  with
  | Some v -> v
  | None -> Alcotest.failf "metrics lacks gauge %s" name

(* Poll the router's aggregated metrics until [pred] holds — health
   transitions (probe backoff, mark-up) take a few loop turns. *)
let await_metrics c pred what =
  let rec go n =
    if n = 0 then Alcotest.failf "timed out waiting for %s" what
    else begin
      client_request c "{\"op\":\"metrics\"}";
      let m = client_recv c in
      if pred m then m
      else begin
        Unix.sleepf 0.2;
        go (n - 1)
      end
    end
  in
  go 100

let shutdown_router c =
  client_request c "{\"op\":\"shutdown\"}";
  check_bool_member (client_recv c) "ok" true

(* Routing conformance: ping is answered locally with the protocol
   golden; pipelined submits through the router return test sets
   byte-identical to `asc save-tests`; the aggregate metrics see every
   job and both backends. *)
let test_route_basic () =
  if not (Sys.file_exists asc_exe) then Alcotest.skip ()
  else begin
    let circuits = [ "s27"; "s298"; "s344"; "s382" ] in
    let refs = Hashtbl.create 4 in
    let dir = temp_dir "asc-route-ref" in
    Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
    List.iter
      (fun circuit ->
        let path = Filename.concat dir (circuit ^ ".ref") in
        run_cli [ "save-tests"; circuit; path; "--domains"; "1" ];
        Hashtbl.replace refs circuit (read_file path))
      circuits;
    let st =
      with_fleet (fun ~dir:_ ~front ~shard_pids:_ ~shard_sock:_ ->
          let c = client_connect front in
          Fun.protect ~finally:(fun () -> client_close c) @@ fun () ->
          client_request c "{\"op\":\"ping\"}";
          Alcotest.(check string) "router answers ping locally" ping_golden
            (client_recv c);
          (* Pipeline all four submits in one write, matched by id. *)
          client_send c
            (String.concat "\n"
               (List.mapi
                  (fun i circuit ->
                    Printf.sprintf
                      "{\"op\":\"submit\",\"circuit\":%S,\"seed\":1,\"tset\":true,\"id\":%d}"
                      circuit i)
                  circuits)
            ^ "\n");
          let seen = Hashtbl.create 4 in
          List.iter
            (fun _ ->
              let r = client_recv c in
              check_bool_member r "ok" true;
              let id = int_member r "id" in
              let circuit = List.nth circuits id in
              Alcotest.(check string)
                (Printf.sprintf "routed %s = one-shot" circuit)
                (Hashtbl.find refs circuit) (str_member r "tset");
              Hashtbl.replace seen id ())
            circuits;
          Alcotest.(check int) "all four ids answered" 4 (Hashtbl.length seen);
          let m =
            await_metrics c
              (fun m -> counter m "jobs_completed" = 4)
              "aggregated jobs_completed=4"
          in
          Alcotest.(check (float 1e-9)) "both backends up" 2.0
            (gauge m "backends_up");
          Alcotest.(check (float 1e-9)) "fleet size gauge" 2.0
            (gauge m "backends_total");
          Alcotest.(check int) "no failovers on the happy path" 0
            (counter m "router_failovers");
          shutdown_router c)
    in
    Alcotest.(check bool) "clean router exit" true (st = Unix.WEXITED 0)
  end

(* Failover: SIGKILL one shard with jobs in flight — every job still
   completes (idempotent redispatch), the dead shard is marked down, and
   a replacement process on the same socket is probed back up. *)
let test_route_failover_and_markup () =
  if not (Sys.file_exists asc_exe) then Alcotest.skip ()
  else begin
    let circuits = [ "s1423"; "s641"; "s526"; "s820"; "b04"; "b11" ] in
    let st =
      with_fleet (fun ~dir ~front ~shard_pids ~shard_sock ->
          let c = client_connect front in
          Fun.protect ~finally:(fun () -> client_close c) @@ fun () ->
          client_send c
            (String.concat "\n"
               (List.mapi
                  (fun i circuit ->
                    Printf.sprintf
                      "{\"op\":\"submit\",\"circuit\":%S,\"seed\":1,\"id\":%d}"
                      circuit i)
                  circuits)
            ^ "\n");
          (* Let the router dispatch across both shards, then kill one
             mid-flight. *)
          Unix.sleepf 0.5;
          Unix.kill shard_pids.(0) Sys.sigkill;
          ignore (Unix.waitpid [] shard_pids.(0));
          let seen = Hashtbl.create 8 in
          List.iter
            (fun _ ->
              let r = client_recv c in
              check_bool_member r "ok" true;
              Alcotest.(check string) "failover job completes" "complete"
                (str_member r "status");
              Hashtbl.replace seen (int_member r "id") ())
            circuits;
          Alcotest.(check int) "every job answered exactly once"
            (List.length circuits) (Hashtbl.length seen);
          let m =
            await_metrics c
              (fun m -> gauge m "backends_up" = 1.0)
              "dead shard marked down"
          in
          Alcotest.(check bool) "mark-down counted" true
            (counter m "router_markdowns" >= 1);
          Alcotest.(check bool) "in-flight jobs failed over" true
            (counter m "router_failovers" >= 1);
          Alcotest.(check int) "no job lost" 0 (counter m "jobs_failed");
          (* A replacement shard on the same socket is probed back up. *)
          let pid =
            spawn_server
              [ "serve"; "--socket"; shard_sock 0; "--domains"; "1" ]
              (Filename.concat dir "shard0-reborn.log")
          in
          shard_pids.(0) <- pid;
          let m =
            await_metrics c
              (fun m -> gauge m "backends_up" = 2.0)
              "reborn shard marked up"
          in
          Alcotest.(check bool) "mark-up counted" true
            (counter m "router_markups" >= 1);
          shutdown_router c)
    in
    Alcotest.(check bool) "clean router exit after failover" true
      (st = Unix.WEXITED 0)
  end

(* Chaos: a failed backend write at dispatch time is indistinguishable
   from a dead shard — the router marks it down and redispatches, and the
   client sees a normal completion. *)
let test_route_chaos_backend_write () =
  if not (Sys.file_exists asc_exe) then Alcotest.skip ()
  else begin
    let st =
      with_fleet
        ~router_env:[ "ASC_CHAOS=" ^ Chaos.router_backend_write ^ "@1=fail" ]
        (fun ~dir:_ ~front ~shard_pids:_ ~shard_sock:_ ->
          let c = client_connect front in
          Fun.protect ~finally:(fun () -> client_close c) @@ fun () ->
          client_request c
            "{\"op\":\"submit\",\"circuit\":\"s298\",\"seed\":1,\"id\":7}";
          let r = client_recv c in
          check_bool_member r "ok" true;
          Alcotest.(check string) "redispatched job completes" "complete"
            (str_member r "status");
          Alcotest.(check int) "client id echoed through failover" 7
            (int_member r "id");
          let m =
            await_metrics c
              (fun m -> counter m "router_failovers" >= 1)
              "chaos write counted as failover"
          in
          Alcotest.(check bool) "victim backend marked down" true
            (counter m "router_markdowns" >= 1);
          shutdown_router c)
    in
    Alcotest.(check bool) "clean router exit after chaos write" true
      (st = Unix.WEXITED 0)
  end

(* No live backend: submits are rejected with the typed no_backend
   reason instead of queueing against a dead fleet. *)
let test_route_no_backend () =
  if not (Sys.file_exists asc_exe) then Alcotest.skip ()
  else begin
    let st =
      with_fleet ~shards:1 (fun ~dir:_ ~front ~shard_pids ~shard_sock:_ ->
          let c = client_connect front in
          Fun.protect ~finally:(fun () -> client_close c) @@ fun () ->
          Unix.kill shard_pids.(0) Sys.sigkill;
          ignore (Unix.waitpid [] shard_pids.(0));
          let m =
            await_metrics c
              (fun m -> gauge m "backends_up" = 0.0)
              "lone shard marked down"
          in
          ignore m;
          client_request c
            "{\"op\":\"submit\",\"circuit\":\"s27\",\"seed\":1,\"id\":3}";
          let r = client_recv c in
          check_bool_member r "ok" false;
          Alcotest.(check string) "typed reject" "no_backend"
            (str_member r "reason");
          Alcotest.(check int) "id echoed on the reject" 3 (int_member r "id");
          shutdown_router c)
    in
    Alcotest.(check bool) "clean router exit with a dead fleet" true
      (st = Unix.WEXITED 0)
  end

(* The router's client front frames exactly like the server's. *)
let test_route_framing () =
  if not (Sys.file_exists asc_exe) then Alcotest.skip ()
  else begin
    let st =
      with_fleet ~shards:1 (fun ~dir:_ ~front ~shard_pids:_ ~shard_sock:_ ->
          check_front_framing front;
          let c = client_connect front in
          Fun.protect ~finally:(fun () -> client_close c) @@ fun () ->
          shutdown_router c)
    in
    Alcotest.(check bool) "clean router exit" true (st = Unix.WEXITED 0)
  end

(* A backend whose host name does not resolve is just a down backend:
   the router starts, keeps re-probing it, and answers submits with the
   typed no_backend reject. *)
let test_route_unresolvable_backend () =
  if not (Sys.file_exists asc_exe) then Alcotest.skip ()
  else begin
    let dir = temp_dir "asc-route-dns" in
    Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
    let front = Filename.concat dir "front.sock" in
    let st =
      with_asc
        [ "route"; "--socket"; front; "--backend"; "nosuchhost.invalid:7000" ]
        (fun () ->
          wait_for_socket front;
          let c = client_connect front in
          Fun.protect ~finally:(fun () -> client_close c) @@ fun () ->
          client_request c "{\"op\":\"metrics\"}";
          Alcotest.(check (float 1e-9)) "backend down" 0.0
            (gauge (client_recv c) "backends_up");
          client_request c
            "{\"op\":\"submit\",\"circuit\":\"s27\",\"seed\":1,\"id\":5}";
          let r = client_recv c in
          check_bool_member r "ok" false;
          Alcotest.(check string) "typed reject" "no_backend"
            (str_member r "reason");
          shutdown_router c)
    in
    Alcotest.(check bool) "clean router exit" true (st = Unix.WEXITED 0)
  end

let suite =
  [
    ( "route",
      [
        Alcotest.test_case "routing conformance and fleet metrics" `Slow
          test_route_basic;
        Alcotest.test_case "SIGKILLed shard fails over; reborn shard marks up"
          `Slow test_route_failover_and_markup;
        Alcotest.test_case "chaos backend write triggers failover" `Slow
          test_route_chaos_backend_write;
        Alcotest.test_case "dead fleet answers typed no_backend rejects" `Slow
          test_route_no_backend;
        Alcotest.test_case "router front framing and frame cap" `Quick
          test_route_framing;
        Alcotest.test_case "an unresolvable backend is down, not fatal" `Quick
          test_route_unresolvable_backend;
      ] );
  ]
