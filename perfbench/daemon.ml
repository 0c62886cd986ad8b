(* A real [chlsc serve] process and one pipelined client connection to
   it: spawn, wait until it answers, drive a closed loop with a fixed
   window of requests in flight, read the process's CPU time and peak
   RSS from /proc, shut it down and reap it. *)

type t = {
  pid : int;
  fd : Unix.file_descr;
  ic : in_channel;
  oc : out_channel;
  mutable next_id : int;
}

(* every daemon still running, so an exit on any path reaps it *)
let live : int list ref = ref []

let kill_all () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
    !live;
  live := []

let () = at_exit kill_all

let now = Unix.gettimeofday

(* Start [exe serve] with one worker domain and return once a client
   connection to it is open. *)
let start ~exe ~socket ?cache_dir () =
  (try Unix.unlink socket with Unix.Unix_error _ -> ());
  let argv =
    [ exe; "serve"; "--socket"; socket; "--domains"; "1" ]
    @ match cache_dir with Some d -> [ "--cache-dir"; d ] | None -> []
  in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let pid =
    Unix.create_process exe (Array.of_list argv) devnull Unix.stderr
      Unix.stderr
  in
  Unix.close devnull;
  live := pid :: !live;
  let deadline = now () +. 20. in
  let rec connect () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX socket) with
    | () -> fd
    | exception Unix.Unix_error _ when now () < deadline ->
      Unix.close fd;
      Unix.sleepf 0.001;
      connect ()
  in
  let fd = connect () in
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 30.;
  { pid; fd; ic = Unix.in_channel_of_descr fd;
    oc = Unix.out_channel_of_descr fd; next_id = 0 }

let send d payload = Serve.Frame.write d.oc payload

(* one request, one answer: only used outside measured phases *)
let rpc d json =
  send d (Metrics.render_compact json);
  match Serve.Frame.read d.ic with
  | Some frame -> (
    match Serve.Json.parse frame with
    | Ok j -> j
    | Error msg -> failwith ("unparseable response: " ^ msg))
  | None -> failwith "daemon closed the connection"

let stats d =
  rpc d (Metrics.Obj [ ("op", Metrics.String "stats"); ("id", Metrics.String "stats") ])

let stop d =
  (match rpc d (Metrics.Obj [ ("op", Metrics.String "shutdown"); ("id", Metrics.String "bye") ]) with
  | _ -> ()
  | exception _ -> ());
  (try Unix.close d.fd with Unix.Unix_error _ -> ());
  let deadline = now () +. 10. in
  let rec reap () =
    match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ when now () < deadline ->
      Unix.sleepf 0.005;
      reap ()
    | 0, _ ->
      (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] d.pid)
    | _ -> ()
  in
  reap ();
  live := List.filter (fun p -> p <> d.pid) !live

(* --- /proc readings --- *)

let read_proc path = In_channel.with_open_bin path In_channel.input_all

(* user + system CPU of the whole process, all threads, in ms: utime and
   stime are fields 14 and 15 of /proc/<pid>/stat, in 10 ms clock ticks *)
let cpu_ms pid =
  let s = read_proc (Printf.sprintf "/proc/%d/stat" pid) in
  (* field 3 starts two characters after the parenthesised command name *)
  let rest = String.rindex s ')' + 2 in
  let fields =
    String.split_on_char ' ' (String.sub s rest (String.length s - rest))
  in
  let field n = float_of_string (List.nth fields (n - 3)) in
  (field 14 +. field 15) *. 10.

let peak_rss_mb pid =
  let s = read_proc (Printf.sprintf "/proc/%d/status" pid) in
  let line =
    List.find
      (fun l -> String.length l > 6 && String.sub l 0 6 = "VmHWM:")
      (String.split_on_char '\n' s)
  in
  Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)

(* --- the closed loop --- *)

type sample = {
  seq : int;  (** position in the phase's send order *)
  index : int;  (** the traffic request that was sent *)
  sent : float;
  received : float;
  frame : string;  (** the raw response, parsed after the phase *)
}

let parse frame =
  match Serve.Json.parse frame with
  | Ok j -> j
  | Error msg -> failwith ("unparseable response: " ^ msg)

(* The correlating id without a full parse: responses render their
   ["id"] member first. *)
let id_of_frame f =
  let prefix = "{\"id\":" in
  let p = String.length prefix in
  let rec digits i =
    if i < String.length f && f.[i] >= '0' && f.[i] <= '9' then digits (i + 1)
    else i
  in
  if String.length f > p && String.sub f 0 p = prefix then
    let b = if f.[p] = ' ' then p + 1 else p in
    let e = digits b in
    if e > b then int_of_string_opt (String.sub f b (e - b)) else None
  else
    match Traffic.field "id" (parse f) with
    | Some (Metrics.Int id) -> Some id
    | _ -> None

(* Keep [window] requests in flight, sending traffic request
   [next seq] for send number [seq] until [next] runs dry or [deadline]
   passes, then collect what is still in flight.  Every response is
   handed to [on_sample] as it arrives, stamped when its frame was read;
   parsing it is left to the caller, after the phase. *)
let drive d ~(traffic : Traffic.request array) ~window ~next ~deadline
    ~on_sample =
  let inflight = Hashtbl.create 16 in
  let seq = ref 0 in
  let send_next () =
    match next !seq with
    | None -> false
    | Some index ->
      let id = d.next_id in
      d.next_id <- id + 1;
      Hashtbl.replace inflight id (!seq, index, now ());
      incr seq;
      send d (Traffic.payload traffic.(index) id);
      true
  in
  let rec fill k = if k > 0 && send_next () then fill (k - 1) in
  fill window;
  let sending = ref true in
  while Hashtbl.length inflight > 0 do
    let frame =
      match Serve.Frame.read d.ic with
      | Some f -> f
      | None -> failwith "daemon closed the connection"
    in
    let received = now () in
    match id_of_frame frame with
    | Some id when Hashtbl.mem inflight id ->
      let seq, index, sent = Hashtbl.find inflight id in
      Hashtbl.remove inflight id;
      on_sample { seq; index; sent; received; frame };
      if !sending then
        sending := received < deadline && send_next ()
    | _ -> failwith "response with an unknown id"
  done
