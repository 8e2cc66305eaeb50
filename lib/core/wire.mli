(** The serving tier's transport (docs/SERVING.md "Wire protocol"): one
    JSON object per ['\n']-terminated line over a stream socket or pipe.

    {!Server} and {!Router} put their client side behind one {!front};
    the router's backend channels, the supervisor's pipes and
    [asc client] use the primitives directly.  Nothing here reads a job
    or a result, so the transport cannot change what is served. *)

type addr =
  | Unix_socket of string  (** Path; a stale socket file is replaced on listen. *)
  | Tcp of string * int  (** Host (name or dotted quad) and port. *)

(** The path, or [host:port]. *)
val addr_to_string : addr -> string

(** Raises [Unix.Unix_error] when the connect fails and [Sys_error] when
    the host name does not resolve: both are connection errors. *)
val connect : addr -> Unix.file_descr

(** The per-frame byte cap on a {!front}: 8 MiB. *)
val max_frame : int

(** [write_line fd json] writes [json] compactly plus ['\n'], looping
    until every byte is out.  Raises [Unix.Unix_error]. *)
val write_line : Unix.file_descr -> Asc_util.Json.t -> unit

(** Line splitting for one stream: a trailing ['\r'] is dropped and
    blank lines are skipped. *)
type reader

val reader : unit -> reader

(** One [read(2)] into the reader.  [false] means the stream ended: end
    of file, or any read error except [EINTR]. *)
val read : reader -> Unix.file_descr -> bool

(** [drain r f] hands each complete line to [f] in order, stopping early
    when [f] returns [false]; a partial last line stays buffered. *)
val drain : reader -> (string -> bool) -> unit

(** Bytes buffered and not yet returned as a line. *)
val buffered : reader -> int

(** [request ~timeout addr json]: one round trip on a fresh connection,
    returning the first reply line parsed.  [None] on a connection
    error, an unparseable reply, or silence for [timeout] seconds. *)
val request : timeout:float -> addr -> Asc_util.Json.t -> Asc_util.Json.t option

(** {1 Client front}

    A listening socket and its connections, each known by an integer
    id that stays valid for deferred replies.  A frame over {!max_frame}
    bytes without a newline draws an error response and a close; a
    failed write closes the connection; replies to a closed one are
    dropped.  The front also owns drain-mode shutdown: a shutdown that
    arrives with work outstanding is parked until {!finish_drain} finds
    the owner idle, then every parked request is answered in arrival
    order with the number of jobs finished meanwhile. *)

type front

(** [front ?chaos addr] listens on [addr] and ignores [SIGPIPE].  With
    [chaos], [serve.read] fires before each frame is handled and
    [serve.write] before each reply; a [Fail] closes that connection. *)
val front : ?chaos:Asc_util.Chaos.t -> addr -> front

(** The listener and every open connection, for a select set. *)
val fds : front -> Unix.file_descr list

(** [service t fd on_frame] handles [fd] if it is [t]'s — accepting, or
    reading and calling [on_frame cid line] per complete frame — and
    returns whether it was. *)
val service : front -> Unix.file_descr -> (int -> string -> unit) -> bool

(** One response to connection [cid], if it is still open. *)
val reply : front -> int -> Asc_util.Json.t -> unit

(** [false] once a shutdown has been answered. *)
val running : front -> bool

(** A shutdown is parked: refuse new work. *)
val draining : front -> bool

(** Jobs finished while draining. *)
val drained : front -> int

(** A shutdown request from [cid]: answered at once when [idle] and not
    draining, parked otherwise. *)
val shutdown : front -> int -> idle:bool -> unit

(** Count one finished job toward {!drained} (only while draining). *)
val delivered : front -> unit

(** Once draining and [idle]: answer every parked shutdown and stop. *)
val finish_drain : front -> idle:bool -> unit

(** Close every connection and the listener; remove a socket file. *)
val close : front -> unit
