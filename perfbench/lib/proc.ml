(* The [ppredict serve] process under test, and the client side of its
   two transports: stdio (the Pool stack) and TCP (the Fleet stack). Both
   are driven the same way: one request in flight, the client blocked in
   [read] until the answer comes.

   For set-up and the timed phase, the client and every server it starts
   share one CPU ([pin_first_cpu]). A request's path is then a chain of
   context switches on that CPU. Spread over two CPUs, each hand-off
   between client, reader thread and worker domain could wake an idle
   virtual CPU, and how long the host takes to run it again varies with
   the host's load (perfbench/README.md has the figures). *)

external pin_first_cpu : unit -> unit = "perfbench_pin_first_cpu"
external unpin : unit -> unit = "perfbench_unpin"

type t = {
  pid : int;
  send : out_channel;
  recv : Unix.file_descr;
  buf : Buffer.t;  (** bytes read past the last complete line *)
}

let now = Unix.gettimeofday

let devnull () = Unix.openfile "/dev/null" [ Unix.O_RDWR; Unix.O_CLOEXEC ] 0

let client pid ~send ~recv =
  { pid; send = Unix.out_channel_of_descr send; recv; buf = Buffer.create 4096 }

let spawn_stdio ~ppredict ~jobs =
  let in_r, in_w = Unix.pipe ~cloexec:true () in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process ppredict [| ppredict; "serve"; "--jobs"; string_of_int jobs |] in_r out_w Unix.stderr
  in
  Unix.close in_r;
  Unix.close out_w;
  client pid ~send:in_w ~recv:out_r

let read_port path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error _ -> None
  | s -> int_of_string_opt (String.trim s)

let spawn_tcp ~ppredict ~jobs ~port_file =
  (try Sys.remove port_file with Sys_error _ -> ());
  let null = devnull () in
  let pid =
    Unix.create_process ppredict
      [| ppredict; "serve"; "--tcp"; "127.0.0.1:0"; "--port-file"; port_file; "--jobs"; string_of_int jobs |]
      null null Unix.stderr
  in
  Unix.close null;
  let deadline = now () +. 30.0 in
  let rec wait () =
    match read_port port_file with
    | Some p -> p
    | None ->
      if now () > deadline then failwith "the server wrote no port file";
      (match Unix.waitpid [ Unix.WNOHANG ] pid with
       | 0, _ -> ()
       | _ -> failwith "the server exited before listening");
      Unix.sleepf 0.0005;
      wait ()
  in
  let port = wait () in
  (try Sys.remove port_file with Sys_error _ -> ());
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  client pid ~send:(Unix.dup ~cloexec:true fd) ~recv:fd

let chunk = Bytes.create 65536

(* The one response to the one request in flight. *)
let rec await_line t =
  match Unix.read t.recv chunk 0 (Bytes.length chunk) with
  | 0 -> failwith "the server closed the connection"
  | k -> (
    Buffer.add_subbytes t.buf chunk 0 k;
    let s = Buffer.contents t.buf in
    match String.index_opt s '\n' with
    | None -> await_line t
    | Some i when i = String.length s - 1 ->
      Buffer.clear t.buf;
      String.sub s 0 i
    | Some _ -> failwith "unexpected responses")

(* Send one request line and wait for its response line. *)
let roundtrip t line =
  output_string t.send line;
  output_char t.send '\n';
  flush t.send;
  await_line t

(* Closed loop: [next ()] gives the next request index and line, or
   [None] when the phase is over; [on_response i latency line] receives
   each answer. *)
let rec drive t ~next ~on_response =
  match next () with
  | None -> ()
  | Some (i, line) ->
    let t0 = now () in
    let resp = roundtrip t line in
    on_response i (now () -. t0) resp;
    drive t ~next ~on_response

(* ---- the server process, read from /proc ---- *)

(* /proc counts CPU time in ticks of USER_HZ, which Linux fixes at 100
   per second whatever the kernel's own tick rate *)
let clk_tck = 100.0

(* user + system CPU time of [pid], in clock ticks *)
let cpu_ticks pid =
  let s = Corpus.read_file (Printf.sprintf "/proc/%d/stat" pid) in
  let rest = String.sub s (String.rindex s ')' + 2) (String.length s - String.rindex s ')' - 2) in
  let f = Array.of_list (String.split_on_char ' ' rest) in
  int_of_string f.(11) + int_of_string f.(12)

(* peak resident set (VmHWM) of [pid], in kB *)
let vmhwm_kb pid =
  let s = Corpus.read_file (Printf.sprintf "/proc/%d/status" pid) in
  let line = List.find (fun l -> String.length l > 6 && String.sub l 0 6 = "VmHWM:") (String.split_on_char '\n' s) in
  Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" Fun.id

(* ---- shutdown ---- *)

let wait_exit pid ~timeout =
  let deadline = now () +. timeout in
  let rec go () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ ->
      if now () > deadline then (
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] pid))
      else (
        Unix.sleepf 0.001;
        go ())
    | _ -> ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  go ()

let stop t =
  (try ignore (roundtrip t {|{"id":"bye","verb":"shutdown"}|}) with _ -> ());
  close_out_noerr t.send;
  (try Unix.close t.recv with Unix.Unix_error _ -> ());
  wait_exit t.pid ~timeout:10.0

(* last resort, from a signal handler or an error path *)
let kill t =
  (try Unix.kill t.pid Sys.sigkill with Unix.Unix_error _ -> ());
  wait_exit t.pid ~timeout:5.0
