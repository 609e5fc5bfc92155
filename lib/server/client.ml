type t = { ic : in_channel; oc : out_channel; timeout : float }

let connect ?(retries = 50) ?(timeout = 60.) addr =
  let rec go n =
    let fd = Unix.socket (Unix.domain_of_sockaddr addr) Unix.SOCK_STREAM 0 in
    match Unix.connect fd addr with
    | () ->
      (* a reply that does not come within [timeout] fails the read
         (EAGAIN) instead of blocking forever *)
      Unix.setsockopt_float fd Unix.SO_RCVTIMEO timeout;
      { ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd; timeout }
    | exception Unix.Unix_error ((ECONNREFUSED | ENOENT), _, _) when n > 0 ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Unix.sleepf 0.02;
      go (n - 1)
    | exception e ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      raise e
  in
  go retries

let unix ?retries ?timeout path = connect ?retries ?timeout (Unix.ADDR_UNIX path)

let tcp ?retries ?timeout port =
  connect ?retries ?timeout (Unix.ADDR_INET (Unix.inet_addr_loopback, port))

let request t req =
  output_string t.oc (Protocol.encode_request req);
  output_char t.oc '\n';
  flush t.oc;
  match In_channel.input_line t.ic with
  | exception (Sys_blocked_io | Sys_error _) ->
    failwith (Printf.sprintf "no reply from the server within %gs" t.timeout)
  | None -> failwith "server closed the connection"
  | Some line -> (
    match Protocol.decode_response line with
    | Ok resp -> resp
    | Error msg -> failwith msg)

(* closing the channel closes the socket: closing its descriptor number
   again could hit one reused by another domain in between *)
let close t = close_out_noerr t.oc
