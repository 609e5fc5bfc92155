(** Blocking protocol client, used by [magic client], the SERVE bench
    workers and the tests. *)

type t

val connect : ?retries:int -> ?timeout:float -> Unix.sockaddr -> t
(** Connect to a daemon.  [retries] (default 50) spaced 20ms apart
    cover the race against a daemon still binding its socket.
    [timeout] (seconds, default 60) is the read deadline of every
    {!request}: a daemon that accepts but never answers fails the
    request instead of blocking the caller.
    @raise Unix.Unix_error when the daemon never comes up. *)

val unix : ?retries:int -> ?timeout:float -> string -> t
val tcp : ?retries:int -> ?timeout:float -> int -> t
(** Convenience wrappers: Unix-domain path / TCP port on localhost. *)

val request : t -> Protocol.request -> Protocol.response
(** Send one request line and block for its response line, at most the
    connection's [timeout].
    @raise Failure on a closed connection, a reply that missed the
    deadline (the connection is then unusable: close it) or an
    unparseable reply. *)

val close : t -> unit
