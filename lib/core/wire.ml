(* Line transport for the serving tier: addresses, connect/listen, the
   JSON-line write, the line reader and the client front shared by
   [asc serve] and [asc route] (docs/SERVING.md "Wire protocol"). *)

module J = Asc_util.Json
module Chaos = Asc_util.Chaos

type addr = Unix_socket of string | Tcp of string * int

let addr_to_string = function
  | Unix_socket path -> path
  | Tcp (host, port) -> Printf.sprintf "%s:%d" host port

let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()

(* A failed lookup is a [Sys_error], like any other connection error the
   callers already handle — never an escaping [Not_found]. *)
let sockaddr = function
  | Unix_socket path -> Unix.ADDR_UNIX path
  | Tcp (host, port) ->
      let ip =
        try Unix.inet_addr_of_string host
        with Failure _ -> (
          match (Unix.gethostbyname host).Unix.h_addr_list with
          | addrs when Array.length addrs > 0 -> addrs.(0)
          | _ | (exception Not_found) ->
              raise (Sys_error (Printf.sprintf "cannot resolve host %S" host)))
      in
      Unix.ADDR_INET (ip, port)

(* A socket for [sa]; [setup] failing closes it before re-raising. *)
let with_socket sa setup =
  let fd = Unix.socket (Unix.domain_of_sockaddr sa) Unix.SOCK_STREAM 0 in
  (try setup fd
   with e ->
     close_quietly fd;
     raise e);
  fd

let connect addr =
  let sa = sockaddr addr in
  with_socket sa (fun fd -> Unix.connect fd sa)

(* A stale socket file is replaced; SO_REUSEADDR is a no-op for it. *)
let listen addr =
  let sa = sockaddr addr in
  (match sa with
  | Unix.ADDR_UNIX path -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
  | Unix.ADDR_INET _ -> ());
  with_socket sa (fun fd ->
      Unix.setsockopt fd Unix.SO_REUSEADDR true;
      Unix.bind fd sa;
      Unix.listen fd 16)

(* --- Frames -------------------------------------------------------------- *)

let max_frame = 8 * 1024 * 1024

let write_line fd json =
  let line = J.to_string ~compact:true json ^ "\n" in
  let n = String.length line in
  let sent = ref 0 in
  while !sent < n do
    sent := !sent + Unix.write_substring fd line !sent (n - !sent)
  done

(* Bytes [start, stop) of [buf] are not yet returned, and none of
   [start, scanned) is a newline, so each byte is scanned once.  A read
   that does not fit drops the returned prefix when it is at least as
   long as the rest, and doubles the buffer otherwise, so each byte is
   copied a bounded number of times however many reads a frame spans or
   however many frames a read holds. *)
type reader = {
  mutable buf : Bytes.t;
  mutable start : int;
  mutable stop : int;
  mutable scanned : int;
}

let reader () = { buf = Bytes.create 256; start = 0; stop = 0; scanned = 0 }

let append r chunk n =
  let size = Bytes.length r.buf and live = r.stop - r.start in
  if r.stop + n > size then begin
    let buf =
      if r.start >= live && live + n <= size then r.buf
      else Bytes.create (max (2 * size) (live + n))
    in
    Bytes.blit r.buf r.start buf 0 live;
    r.buf <- buf;
    r.scanned <- r.scanned - r.start;
    r.start <- 0;
    r.stop <- live
  end;
  Bytes.blit chunk 0 r.buf r.stop n;
  r.stop <- r.stop + n

(* The chunk is allocated per read: a shared module-level buffer stays
   resident in every serving process and shows up in peak RSS. *)
let read r fd =
  let chunk = Bytes.create 65536 in
  match Unix.read fd chunk 0 (Bytes.length chunk) with
  | 0 -> false
  | n ->
      append r chunk n;
      true
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> true
  | exception Unix.Unix_error _ -> false

(* Unchecked: [i < stop <= Bytes.length buf] always holds, and this loop
   touches every byte the serving tier receives. *)
let rec newline buf i stop =
  if i >= stop then None
  else if Bytes.unsafe_get buf i = '\n' then Some i
  else newline buf (i + 1) stop

let rec next_line r =
  match newline r.buf r.scanned r.stop with
  | None ->
      r.scanned <- r.stop;
      None
  | Some i ->
      let eol = if i > r.start && Bytes.get r.buf (i - 1) = '\r' then i - 1 else i in
      let line = Bytes.sub_string r.buf r.start (eol - r.start) in
      r.start <- i + 1;
      r.scanned <- i + 1;
      if line = "" then next_line r else Some line

let rec drain r f =
  match next_line r with Some line when f line -> drain r f | _ -> ()

let buffered r = r.stop - r.start

let request ~timeout addr json =
  match connect addr with
  | exception (Unix.Unix_error _ | Sys_error _) -> None
  | fd ->
      Fun.protect ~finally:(fun () -> close_quietly fd) @@ fun () ->
      let r = reader () in
      let deadline = Unix.gettimeofday () +. timeout in
      let rec await () =
        match next_line r with
        | Some line -> Result.to_option (J.parse line)
        | None ->
            let remaining = deadline -. Unix.gettimeofday () in
            let more =
              remaining > 0.0
              &&
              match Unix.select [ fd ] [] [] remaining with
              | [], _, _ -> false
              | _ -> read r fd
              | exception Unix.Unix_error (Unix.EINTR, _, _) -> true
            in
            if more then await () else None
      in
      match write_line fd json with
      | () -> await ()
      | exception Unix.Unix_error _ -> None

(* --- Client front -------------------------------------------------------- *)

type conn = {
  fd : Unix.file_descr;
  cid : int;
  rd : reader;
  mutable alive : bool;
}

type front = {
  addr : addr;
  listener : Unix.file_descr;
  chaos : Chaos.t option;
  conns : (int, conn) Hashtbl.t;  (* open connections only *)
  mutable next_cid : int;
  mutable running : bool;
  mutable draining : bool;  (* shutdown received with work outstanding *)
  mutable drained : int;  (* jobs finished during drain *)
  mutable waiters : int list;  (* conns owed a shutdown response, newest first *)
}

let front ?chaos addr =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ | Sys_error _ -> ());
  {
    addr;
    listener = listen addr;
    chaos;
    conns = Hashtbl.create 16;
    next_cid = 0;
    running = true;
    draining = false;
    drained = 0;
    waiters = [];
  }

let fds t = t.listener :: Hashtbl.fold (fun _ c acc -> c.fd :: acc) t.conns []

let close_conn t c =
  if c.alive then begin
    c.alive <- false;
    Hashtbl.remove t.conns c.cid;
    close_quietly c.fd
  end

(* A failed write (client gone, or an injected serve.write fault) closes
   the connection; a chaos [Kill] propagates like a crash. *)
let send t c json =
  try
    Chaos.hit t.chaos Chaos.serve_write;
    write_line c.fd json
  with Unix.Unix_error _ | Sys_error _ -> close_conn t c

let reply t cid json = Option.iter (fun c -> send t c json) (Hashtbl.find_opt t.conns cid)

let frame t c on_frame line =
  (try
     Chaos.hit t.chaos Chaos.serve_read;
     on_frame c.cid line
   with Sys_error _ -> close_conn t c);
  c.alive

let service t fd on_frame =
  if fd == t.listener then begin
    (match Unix.accept t.listener with
    | fd, _ ->
        let c = { fd; cid = t.next_cid; rd = reader (); alive = true } in
        t.next_cid <- t.next_cid + 1;
        Hashtbl.replace t.conns c.cid c
    | exception Unix.Unix_error _ -> ());
    true
  end
  else
    match
      Hashtbl.fold (fun _ c acc -> if c.fd == fd then Some c else acc) t.conns None
    with
    | None -> false
    | Some c ->
        if not (read c.rd c.fd) then close_conn t c
        else begin
          drain c.rd (frame t c on_frame);
          if c.alive && buffered c.rd > max_frame then begin
            send t c
              (Protocol.error_response
                 (Printf.sprintf "frame exceeds %d bytes" max_frame));
            close_conn t c
          end
        end;
        true

let running t = t.running
let draining t = t.draining
let drained t = t.drained
let delivered t = if t.draining then t.drained <- t.drained + 1

let shutdown t cid ~idle =
  if idle && not t.draining then begin
    reply t cid (Protocol.shutdown_response ~drained:t.drained);
    t.running <- false
  end
  else begin
    t.draining <- true;
    t.waiters <- cid :: t.waiters
  end

let finish_drain t ~idle =
  if t.draining && idle then begin
    List.iter
      (fun cid -> reply t cid (Protocol.shutdown_response ~drained:t.drained))
      (List.rev t.waiters);
    t.waiters <- [];
    t.running <- false
  end

let close t =
  Hashtbl.iter (fun _ c -> close_conn t c) (Hashtbl.copy t.conns);
  close_quietly t.listener;
  match t.addr with
  | Unix_socket path -> (
      try Unix.unlink path with Unix.Unix_error _ | Sys_error _ -> ())
  | Tcp _ -> ()
