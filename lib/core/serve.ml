(* chlsc serve: length-prefixed JSON protocol + Domain pool.  See
   serve.mli for the wire-protocol reference.

   Layering: Frame is the pure codec (unit-testable without a socket;
   the JSON inside a frame is Metrics.parse/render_compact),
   [parse_request] is the typed decode, [Pool] owns the worker
   domains and the bounded job queue, and [run] is the accept loop that
   glues a Unix-domain socket to the pool.  Every failure mode a peer
   can trigger — malformed JSON, unknown ops, oversized frames, compile
   errors, even handler bugs — comes back as a typed error response;
   nothing a client sends can kill the daemon. *)

(* --- JSON: parsing and rendering live in Metrics; this alias keeps
   [Serve.Json.parse] working for code outside the library --- *)

module Json = struct
  let parse = Metrics.parse
end

(* --- framing --- *)

module Frame = struct
  let max_frame = 16 * 1024 * 1024

  exception Protocol_error of string

  let write oc payload =
    let len = String.length payload in
    if len > max_frame then
      raise
        (Protocol_error
           (Printf.sprintf "frame of %d bytes exceeds the %d-byte limit" len
              max_frame));
    let hdr = Bytes.create 4 in
    Bytes.set hdr 0 (Char.chr ((len lsr 24) land 0xff));
    Bytes.set hdr 1 (Char.chr ((len lsr 16) land 0xff));
    Bytes.set hdr 2 (Char.chr ((len lsr 8) land 0xff));
    Bytes.set hdr 3 (Char.chr (len land 0xff));
    output_bytes oc hdr;
    output_string oc payload;
    flush oc

  let read ic =
    match input_char ic with
    | exception End_of_file -> None (* clean EOF at a frame boundary *)
    | c0 ->
      let next () =
        match input_char ic with
        | c -> Char.code c
        | exception End_of_file ->
          raise (Protocol_error "truncated frame length")
      in
      (* bind in sequence: operand order inside one expression would be
         unspecified, and these reads must happen big-endian first *)
      let b1 = next () in
      let b2 = next () in
      let b3 = next () in
      let len = (Char.code c0 lsl 24) lor (b1 lsl 16) lor (b2 lsl 8) lor b3 in
      if len > max_frame then
        raise
          (Protocol_error
             (Printf.sprintf "frame length %d exceeds the %d-byte limit" len
                max_frame));
      let buf = Bytes.create len in
      (match really_input ic buf 0 len with
      | () -> ()
      | exception End_of_file ->
        raise (Protocol_error "truncated frame payload"));
      Some (Bytes.to_string buf)
end

(* --- typed requests --- *)

type request =
  | Compile of {
      id : Metrics.json;
      source : string;
      entry : string;
      backend : string;
      args : int list option;
      config : Config.t option;
    }
  | Compare of {
      id : Metrics.json;
      source : string;
      entry : string;
      backends : string list option;
      vectors : int list list;
      config : Config.t option;
    }
  | Check of { id : Metrics.json; source : string; dialect : string }
  | Stats of { id : Metrics.json }
  | Shutdown of { id : Metrics.json }

let request_id = function
  | Compile { id; _ } | Compare { id; _ } | Check { id; _ } | Stats { id }
  | Shutdown { id } ->
    id

let op_name = function
  | Compile _ -> "compile"
  | Compare _ -> "compare"
  | Check _ -> "check"
  | Stats _ -> "stats"
  | Shutdown _ -> "shutdown"

let error_response ?(id = Metrics.Null) ~kind message =
  Metrics.Obj
    [ ("id", id);
      ("ok", Metrics.Bool false);
      ( "error",
        Metrics.Obj
          [ ("kind", Metrics.String kind);
            ("message", Metrics.String message) ] ) ]

let shutdown_response id =
  Metrics.Obj
    [ ("id", id);
      ("ok", Metrics.Bool true);
      ("shutting_down", Metrics.Bool true) ]

let parse_request (j : Metrics.json) : (request, string * Metrics.json) result
    =
  let id = Option.value (Metrics.member "id" j) ~default:Metrics.Null in
  let err msg = Error (msg, id) in
  let str_field ?default name =
    match Metrics.member name j with
    | Some (Metrics.String s) -> Ok s
    | Some _ -> err (Printf.sprintf "%S must be a string" name)
    | None -> (
      match default with
      | Some d -> Ok d
      | None -> err (Printf.sprintf "missing %S" name))
  in
  let int_list name = function
    | Metrics.List items ->
      let rec go acc = function
        | [] -> Ok (List.rev acc)
        | Metrics.Int i :: rest -> go (i :: acc) rest
        | _ -> err (Printf.sprintf "%S must contain integers" name)
      in
      go [] items
    | _ -> err (Printf.sprintf "%S must be a list" name)
  in
  let ( let* ) = Result.bind in
  (* per-request synthesis configuration: an optional "config" object
     parsed by Config.of_json, so sweeps can ride the Domain pool with a
     distinct design point per request *)
  let config () =
    match Metrics.member "config" j with
    | None | Some Metrics.Null -> Ok None
    | Some v -> (
      match Config.of_json v with
      | Ok c -> Ok (Some c)
      | Error msg -> err msg)
  in
  match Metrics.member "op" j with
  | None -> err "missing \"op\""
  | Some (Metrics.String op) -> (
    match op with
    | "compile" ->
      let* source = str_field "source" in
      let* entry = str_field ~default:"main" "entry" in
      let* backend = str_field ~default:"bachc" "backend" in
      let* args =
        match Metrics.member "args" j with
        | None | Some Metrics.Null -> Ok None
        | Some v -> Result.map Option.some (int_list "args" v)
      in
      let* config = config () in
      Ok (Compile { id; source; entry; backend; args; config })
    | "compare" ->
      let* source = str_field "source" in
      let* entry = str_field ~default:"main" "entry" in
      let* backends =
        match Metrics.member "backends" j with
        | None | Some Metrics.Null -> Ok None
        | Some (Metrics.List items) ->
          let rec go acc = function
            | [] -> Ok (Some (List.rev acc))
            | Metrics.String s :: rest -> go (s :: acc) rest
            | _ -> err "\"backends\" must contain strings"
          in
          go [] items
        | Some _ -> err "\"backends\" must be a list"
      in
      let* vectors =
        match Metrics.member "args" j with
        | None | Some Metrics.Null | Some (Metrics.List []) -> Ok []
        | Some (Metrics.List (Metrics.List _ :: _ as vecs)) ->
          let rec go acc = function
            | [] -> Ok (List.rev acc)
            | v :: rest ->
              let* ints = int_list "args" v in
              go (ints :: acc) rest
          in
          go [] vecs
        | Some (Metrics.List _ as flat) ->
          (* a single flat vector is accepted as one-vector shorthand *)
          Result.map (fun v -> [ v ]) (int_list "args" flat)
        | Some _ -> err "\"args\" must be a list of integer vectors"
      in
      let* config = config () in
      Ok (Compare { id; source; entry; backends; vectors; config })
    | "check" ->
      let* source = str_field "source" in
      let* dialect = str_field ~default:"handelc" "dialect" in
      Ok (Check { id; source; dialect })
    | "stats" -> Ok (Stats { id })
    | "shutdown" -> Ok (Shutdown { id })
    | op -> err (Printf.sprintf "unknown op %S" op))
  | Some _ -> err "\"op\" must be a string"

(* --- handlers --- *)

let driver_error ~id e =
  error_response ~id ~kind:(Driver.error_kind e) (Driver.render_error e)

let session_counter s key =
  match Metrics.find (Driver.metrics s) key with
  | Some (Metrics.Int n) -> n
  | _ -> 0

(* One session per (source, entry) per worker domain: the frontend runs
   once per distinct program per domain, designs are shared across
   domains through the process-wide content-hash cache.  The table is
   keyed by the source text itself, so a lookup hashes and compares it
   and never digests it; a source asked under several entries holds one
   binding per entry. *)
let session_for sessions source entry =
  match
    List.find_opt
      (fun s -> String.equal (Driver.entry s) entry)
      (Hashtbl.find_all sessions source)
  with
  | Some s -> s
  | None ->
    if Hashtbl.length sessions > 128 then Hashtbl.reset sessions;
    let s = Driver.create ~entry source in
    Hashtbl.add sessions source s;
    s

let handle_compile sessions ~ctx ~id ~source ~entry ~backend ~args ~config =
  match Registry.resolve backend with
  | Error msg -> error_response ~id ~kind:"protocol" msg
  | Ok b -> (
    let s = session_for sessions source entry in
    let front0 = session_counter s "driver.cache.design_hits"
    and store0 = session_counter s "driver.cache.design_store_hits" in
    match Driver.compile ~ctx ?config s b with
    | Error e -> driver_error ~id e
    | Ok design -> (
      let cached =
        if session_counter s "driver.cache.design_hits" > front0 then "front"
        else if session_counter s "driver.cache.design_store_hits" > store0
        then "store"
        else "miss"
      in
      let base =
        [ ("id", id);
          ("ok", Metrics.Bool true);
          ("backend", Metrics.String (Registry.name b));
          ("cached", Metrics.String cached) ]
        @
        (* echo the config digest so sweep clients can correlate cache
           provenance with their design points *)
        match config with
        | Some c ->
          [ ("config_digest", Metrics.String (Driver.config_digest s c)) ]
        | None -> []
      in
      match args with
      | None -> Metrics.Obj (base @ [ ("status", Metrics.String "compiled") ])
      | Some args ->
        (* every served design is checked against the interpreter
           oracle on the request's vector *)
        match
          Driver.check ~ctx
            ?sim:(Option.map (fun c -> c.Config.sim) config)
            s design ~args
        with
        | Error e -> driver_error ~id e
        | Ok v -> Metrics.Obj (base @ Driver.run_members v)))

let handle_compare sessions ~ctx ~id ~source ~entry ~backends ~vectors
    ~config =
  let backends =
    match backends with
    | None -> Ok (Registry.all ())
    | Some names -> Registry.resolve_backends names
  in
  match backends with
  | Error msg -> error_response ~id ~kind:"protocol" msg
  | Ok backends -> (
    let s = session_for sessions source entry in
    match Driver.compare ~ctx ?config ~backends s ~vectors with
    | Error e -> driver_error ~id e
    | Ok table ->
      let rows =
        List.map
          (fun (b, compared) ->
            Metrics.Obj
              (("backend", Metrics.String (Registry.name b))
              :: Driver.compare_row compared))
          table
      in
      Metrics.Obj
        [ ("id", id);
          ("ok", Metrics.Bool true);
          ("entry", Metrics.String entry);
          ("vectors", Metrics.Int (List.length vectors));
          ("backends", Metrics.List rows);
          ("mismatch", Metrics.Bool (Driver.mismatch table)) ])

let handle_check sessions ~ctx ~id ~source ~dialect =
  match Registry.resolve_dialect dialect with
  | Error msg -> error_response ~id ~kind:"protocol" msg
  | Ok d -> (
    let s = session_for sessions source "main" in
    match Driver.program ~ctx s with
    | Error e -> driver_error ~id e
    | Ok program ->
      let diags =
        Span.span ctx "conc-check"
          ~attrs:[ ("dialect", Metrics.String d.Dialect.name) ]
          (fun _ -> Conc_check.check_program ~dialect:d program)
      in
      let errors = Conc_check.errors diags
      and warnings = Conc_check.warnings diags in
      Metrics.Obj
        [ ("id", id);
          ("ok", Metrics.Bool true);
          ("dialect", Metrics.String d.Dialect.name);
          ("errors", Metrics.Int (List.length errors));
          ("warnings", Metrics.Int (List.length warnings));
          ( "diagnostics",
            Metrics.List
              (List.map
                 (fun diag ->
                   Metrics.String (Conc_check.render ?file:None diag))
                 diags) ) ])

(* --- the Domain pool --- *)

module Pool = struct
  (* A queued job may carry a live trace: the request root span plus the
     queue-wait span opened at submit time (on the accept loop's side of
     the Domain boundary) and closed by the worker that dequeues it. *)
  type job = {
    req : request;
    respond : Metrics.json -> unit;
    jtrace : (Span.trace * Span.ctx * Span.ctx) option;
        (* (trace, request ctx, queue-wait ctx) *)
  }

  type t = {
    lock : Mutex.t;
    not_empty : Condition.t;
    not_full : Condition.t;
    idle : Condition.t;
    queue : job Queue.t;
    capacity : int;
    n_domains : int;
    on_trace : (pid:int -> tid:int -> Span.trace -> unit) option;
    mutable active : int;
    mutable total_jobs : int;
    mutable stopping : bool;
    mutable joined : bool;
    mutable workers : unit Domain.t list;
    pmetrics : Metrics.t;
    mlock : Mutex.t;
  }

  let domains t = t.n_domains

  let metrics t = t.pmetrics

  let snapshot_metrics t =
    Mutex.lock t.mlock;
    let pairs = Metrics.pairs t.pmetrics in
    Mutex.unlock t.mlock;
    pairs

  (* each op's request counter and latency histogram *)
  let op_metrics = function
    | Compile _ -> ("serve.requests.compile", "serve.latency.compile_ms")
    | Compare _ -> ("serve.requests.compare", "serve.latency.compare_ms")
    | Check _ -> ("serve.requests.check", "serve.latency.check_ms")
    | Stats _ -> ("serve.requests.stats", "serve.latency.stats_ms")
    | Shutdown _ -> ("serve.requests.shutdown", "serve.latency.shutdown_ms")

  let record t req ok dt_ms =
    let requests, latency = op_metrics req in
    Mutex.lock t.mlock;
    Metrics.incr t.pmetrics "serve.requests.total";
    Metrics.incr t.pmetrics requests;
    if not ok then Metrics.incr t.pmetrics "serve.errors";
    Metrics.observe_ms t.pmetrics latency dt_ms;
    Mutex.unlock t.mlock

  let stats t =
    Mutex.lock t.lock;
    let queue_depth = Queue.length t.queue
    and active = t.active
    and total = t.total_jobs in
    Mutex.unlock t.lock;
    [ ("domains", t.n_domains);
      ("queue_capacity", t.capacity);
      ("queue_depth", queue_depth);
      ("active", active);
      ("total_jobs", total) ]

  let response_ok resp = Metrics.member "ok" resp = Some (Metrics.Bool true)

  let dispatch t sessions ~ctx req =
    match req with
    | Compile { id; source; entry; backend; args; config } ->
      handle_compile sessions ~ctx ~id ~source ~entry ~backend ~args ~config
    | Compare { id; source; entry; backends; vectors; config } ->
      handle_compare sessions ~ctx ~id ~source ~entry ~backends ~vectors
        ~config
    | Check { id; source; dialect } ->
      handle_check sessions ~ctx ~id ~source ~dialect
    | Stats { id } ->
      let m = Metrics.create () in
      Metrics.set_string m "schema" "chls.metrics/3";
      List.iter
        (fun (k, v) -> Metrics.set_int m ("serve.pool." ^ k) v)
        (stats t);
      Metrics.set_int m "serve.trace.flight_capacity"
        (Span.Flight.capacity ());
      Metrics.set_int m "serve.trace.flight_occupancy"
        (Span.Flight.occupancy ());
      Metrics.set_int m "serve.trace.flight_recorded"
        (Span.Flight.recorded ());
      Metrics.set_int m "serve.trace.flight_dropped"
        (Span.Flight.dropped ());
      List.iter
        (fun (k, v) -> Metrics.set m k v)
        (snapshot_metrics t);
      List.iter
        (fun (k, v) -> Metrics.set_int m k v)
        (Driver.cache_metrics ());
      List.iter
        (fun (k, v) -> Metrics.set_fixed m k ~decimals:1 v)
        (Driver.cache_hit_rates ());
      (match Metrics.to_json m with
      | Metrics.Obj members ->
        Metrics.Obj
          (("id", id) :: ("ok", Metrics.Bool true) :: members)
      | other -> other)
    | Shutdown { id } -> shutdown_response id

  (* The trace id rides next to the caller's own id; a failing answer
     additionally carries the flight recorder's last-N finished spans,
     so every dialect-reject/verification-error/internal response is
     its own crash report. *)
  let decorate_response tr resp =
    match resp with
    | Metrics.Obj members ->
      let tid = ("trace_id", Metrics.String (Span.trace_id tr)) in
      let rec ins = function
        | (("id", _) as m) :: rest -> m :: tid :: rest
        | m :: rest -> m :: ins rest
        | [] -> [ tid ]
      in
      let members = ins members in
      Metrics.Obj
        (if response_ok resp then members
         else members @ [ ("flight_recorder", Span.Flight.dump ()) ])
    | other -> other

  let handle_traced t sessions ?jtrace ?(pid = 0) ?(tid = 0) req =
    let sessions =
      match sessions with Some s -> s | None -> Hashtbl.create 4
    in
    let t0 = Unix.gettimeofday () in
    let id = request_id req in
    let jtrace =
      match jtrace with
      | Some _ as tr -> tr
      | None ->
        if Span.enabled () then begin
          let tr, ctx = Span.start ~kind:"request" () in
          Span.add_attr ctx "op" (Metrics.String (op_name req));
          Some (tr, ctx)
        end
        else None
    in
    let ctx = match jtrace with Some (_, c) -> c | None -> Span.null in
    let resp =
      try dispatch t sessions ~ctx req
      with e ->
        (* a handler bug must not kill the worker domain *)
        error_response ~id ~kind:"internal" (Printexc.to_string e)
    in
    record t req (response_ok resp) ((Unix.gettimeofday () -. t0) *. 1000.);
    match jtrace with
    | None -> resp
    | Some (tr, _) ->
      Span.finish tr;
      let resp = decorate_response tr resp in
      (match t.on_trace with
      | Some f -> ( try f ~pid ~tid tr with _ -> ())
      | None -> ());
      resp

  let handle t sessions req = handle_traced t sessions req

  let rec worker_loop t ~widx sessions =
    Mutex.lock t.lock;
    while Queue.is_empty t.queue && not t.stopping do
      Condition.wait t.not_empty t.lock
    done;
    match Queue.take_opt t.queue with
    | None ->
      (* stopping and nothing left *)
      Mutex.unlock t.lock
    | Some job ->
      t.active <- t.active + 1;
      Condition.broadcast t.not_full;
      Mutex.unlock t.lock;
      (* the queue-wait span ends the instant a worker owns the job *)
      let jtrace =
        Option.map
          (fun (tr, ctx, q) ->
            Span.exit q;
            (tr, ctx))
          job.jtrace
      in
      let resp =
        handle_traced t (Some sessions) ?jtrace ~pid:widx
          ~tid:(Domain.self () :> int)
          job.req
      in
      (try job.respond resp with _ -> ());
      Mutex.lock t.lock;
      t.active <- t.active - 1;
      if t.active = 0 && Queue.is_empty t.queue then
        Condition.broadcast t.idle;
      Mutex.unlock t.lock;
      worker_loop t ~widx sessions

  let create ?domains:n ?queue_capacity ?on_trace () =
    let n_domains =
      max 1 (Option.value n ~default:(Domain.recommended_domain_count ()))
    in
    let capacity =
      max 1 (Option.value queue_capacity ~default:(4 * n_domains))
    in
    let t =
      { lock = Mutex.create ();
        not_empty = Condition.create ();
        not_full = Condition.create ();
        idle = Condition.create ();
        queue = Queue.create ();
        capacity;
        n_domains;
        on_trace;
        active = 0;
        total_jobs = 0;
        stopping = false;
        joined = false;
        workers = [];
        pmetrics = Metrics.create ();
        mlock = Mutex.create () }
    in
    t.workers <-
      List.init n_domains (fun widx ->
          Domain.spawn (fun () -> worker_loop t ~widx (Hashtbl.create 16)));
    t

  let submit t req ~respond =
    Mutex.lock t.lock;
    while Queue.length t.queue >= t.capacity && not t.stopping do
      Condition.wait t.not_full t.lock
    done;
    if t.stopping then begin
      Mutex.unlock t.lock;
      try
        respond
          (error_response ~id:(request_id req) ~kind:"protocol"
             "server is shutting down")
      with _ -> ()
    end
    else begin
      let jtrace =
        if Span.enabled () then begin
          let tr, ctx = Span.start ~kind:"request" () in
          Span.add_attr ctx "op" (Metrics.String (op_name req));
          Some (tr, ctx, Span.enter ctx "queue-wait")
        end
        else None
      in
      Queue.push { req; respond; jtrace } t.queue;
      t.total_jobs <- t.total_jobs + 1;
      Condition.signal t.not_empty;
      Mutex.unlock t.lock
    end

  let drain t =
    Mutex.lock t.lock;
    while t.active > 0 || not (Queue.is_empty t.queue) do
      Condition.wait t.idle t.lock
    done;
    Mutex.unlock t.lock

  let shutdown t =
    drain t;
    Mutex.lock t.lock;
    t.stopping <- true;
    Condition.broadcast t.not_empty;
    Condition.broadcast t.not_full;
    let join_now = not t.joined in
    t.joined <- true;
    Mutex.unlock t.lock;
    if join_now then begin
      List.iter Domain.join t.workers;
      t.workers <- []
    end
end

(* --- the daemon --- *)

let run ?domains ?queue_capacity ?trace_json ?(log = fun _ -> ()) ~socket ()
    =
  (match Sys.signal Sys.sigpipe Sys.Signal_ignore with
  | _ -> ()
  | exception _ -> ());
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.unlink socket with _ -> ());
  match
    Unix.bind fd (Unix.ADDR_UNIX socket);
    Unix.listen fd 16
  with
  | exception e ->
    (try Unix.close fd with _ -> ());
    Error
      (Printf.sprintf "cannot bind %s: %s" socket (Printexc.to_string e))
  | () ->
    let sink = Option.map (fun _ -> Span.Chrome.create ()) trace_json in
    let on_trace =
      Option.map
        (fun sink ~pid ~tid tr -> Span.Chrome.add sink ~pid ~tid tr)
        sink
    in
    let pool = Pool.create ?domains ?queue_capacity ?on_trace () in
    let stop = ref false in
    let on_signal _ = stop := true in
    let prev_int = Sys.signal Sys.sigint (Sys.Signal_handle on_signal) in
    let prev_term = Sys.signal Sys.sigterm (Sys.Signal_handle on_signal) in
    log
      (Printf.sprintf
         "chlsc serve: listening on %s (%d domain(s), queue %s)" socket
         (Pool.domains pool)
         (match queue_capacity with
         | Some c -> string_of_int c
         | None -> string_of_int (4 * Pool.domains pool)));
    let handle_connection cfd =
      let ic = Unix.in_channel_of_descr cfd in
      let oc = Unix.out_channel_of_descr cfd in
      let wlock = Mutex.create () in
      let send json =
        Mutex.lock wlock;
        (try Frame.write oc (Metrics.render_compact json) with _ -> ());
        Mutex.unlock wlock
      in
      let rec loop () =
        if !stop then ()
        else
          match Frame.read ic with
          | None -> ()
          | exception Frame.Protocol_error msg ->
            send (error_response ~kind:"protocol" msg)
          | exception _ -> ()
          | Some payload -> (
            match Metrics.parse payload with
            | Error msg ->
              send (error_response ~kind:"protocol" msg);
              loop ()
            | Ok j -> (
              match parse_request j with
              | Error (msg, id) ->
                send (error_response ~id ~kind:"protocol" msg);
                loop ()
              | Ok (Shutdown { id }) ->
                (* answer only after in-flight work has responded, so
                   a pipelined client sees every reply before the
                   goodbye *)
                Pool.drain pool;
                send (shutdown_response id);
                stop := true
              | Ok req ->
                Pool.submit pool req ~respond:send;
                loop ()))
      in
      loop ();
      (* pending responses still target this socket *)
      Pool.drain pool;
      (try flush oc with _ -> ());
      try Unix.close cfd with _ -> ()
    in
    let rec accept_loop () =
      if !stop then ()
      else begin
        (match Unix.select [ fd ] [] [] 0.25 with
        | [], _, _ -> ()
        | _ -> (
          match Unix.accept fd with
          | cfd, _ -> handle_connection cfd
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> ())
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
        accept_loop ()
      end
    in
    accept_loop ();
    Pool.shutdown pool;
    (try Unix.close fd with _ -> ());
    (try Unix.unlink socket with _ -> ());
    Sys.set_signal Sys.sigint prev_int;
    Sys.set_signal Sys.sigterm prev_term;
    (match (trace_json, sink) with
    | Some path, Some sink ->
      (try
         Span.Chrome.write_file sink path;
         log
           (Printf.sprintf "chlsc serve: wrote %d trace event(s) to %s"
              (Span.Chrome.events sink) path)
       with e ->
         log
           (Printf.sprintf "chlsc serve: cannot write trace %s: %s" path
              (Printexc.to_string e)))
    | _ -> ());
    log "chlsc serve: shut down cleanly";
    Ok ()

(* --- client --- *)

module Client = struct
  type t = { fd : Unix.file_descr; ic : in_channel; oc : out_channel }

  let connect ?timeout_ms ~socket () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    (match timeout_ms with
    | Some ms when ms > 0 ->
      let s = float_of_int ms /. 1000. in
      (try Unix.setsockopt_float fd Unix.SO_RCVTIMEO s with _ -> ());
      (try Unix.setsockopt_float fd Unix.SO_SNDTIMEO s with _ -> ())
    | _ -> ());
    match Unix.connect fd (Unix.ADDR_UNIX socket) with
    | () ->
      Ok
        { fd;
          ic = Unix.in_channel_of_descr fd;
          oc = Unix.out_channel_of_descr fd }
    | exception e ->
      (try Unix.close fd with _ -> ());
      Error
        (Printf.sprintf "cannot connect to %s: %s" socket
           (Printexc.to_string e))

  (* SO_RCVTIMEO surfaces through channel reads as EAGAIN-flavoured
     failures; name them for what they are so a wedged daemon produces
     "timed out", not an errno spelling. *)
  let is_timeout = function
    | Unix.Unix_error
        ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.ETIMEDOUT), _, _)
    | Sys_blocked_io ->
      true
    | Sys_error m ->
      let has needle =
        let nl = String.length needle and ml = String.length m in
        let rec go i =
          i + nl <= ml && (String.sub m i nl = needle || go (i + 1))
        in
        go 0
      in
      has "emporarily unavailable" || has "imed out"
    | _ -> false

  let rpc t payload =
    match
      Frame.write t.oc payload;
      Frame.read t.ic
    with
    | Some resp -> Ok resp
    | None -> Error "connection closed by server"
    | exception Frame.Protocol_error msg -> Error msg
    | exception e when is_timeout e ->
      Error "timed out waiting for a response"
    | exception e -> Error (Printexc.to_string e)

  let close t = try Unix.close t.fd with _ -> ()
end
