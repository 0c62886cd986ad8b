(* Obs.Span: request-scoped trace trees with three sinks (in-memory,
   Chrome trace_event, flight recorder).  See span.mli for the model.

   Clocking: spans use wall time (Unix.gettimeofday), not Sys.time —
   queue-wait in the serve daemon is real time spent blocked, which CPU
   time would erase.  All stored times are offsets in milliseconds from
   the trace's epoch, so a trace is position-independent and the Chrome
   sink can re-anchor many traces onto one shared timeline. *)

type record = {
  span_id : int;
  parent : int option;
  kind : string;
  seq : int;
  start_ms : float;
  mutable dur_ms : float;
  mutable attrs : (string * Metrics.json) list;
}

type trace = {
  id : string;
  epoch_us : float;  (* absolute, microseconds *)
  root : record;
  mutable spans : record list;  (* reverse emission order *)
  mutable next_id : int;
  mutable n : int;
}

type ctx = Null | Ctx of trace * record

let null = Null
let enabled_flag = Atomic.make true
let set_enabled b = Atomic.set enabled_flag b
let enabled () = Atomic.get enabled_flag
let now_us () = Unix.gettimeofday () *. 1e6

(* Trace ids: unique within the process, stable-format for greps. *)
let trace_counter = Atomic.make 0

let mint_trace_id () =
  Printf.sprintf "t%04x-%06d"
    (Unix.getpid () land 0xffff)
    (Atomic.fetch_and_add trace_counter 1)

let trace_id t = t.id

(* The flight recorder lives below [close] so finished spans can be
   offered to it; the public module is re-exposed at the bottom. *)
module Flight_impl = struct
  type snap = {
    f_trace : string;
    f_kind : string;
    f_start : float;
    f_dur : float;
    f_attrs : (string * Metrics.json) list;  (* insertion order *)
  }

  let lock = Mutex.create ()
  let default_capacity = 64
  let ring = ref (Array.make default_capacity None)
  let total = ref 0

  let with_lock f =
    Mutex.lock lock;
    Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

  let set_capacity n =
    let n = max 1 n in
    with_lock (fun () ->
        ring := Array.make n None;
        total := 0)

  let capacity () = with_lock (fun () -> Array.length !ring)
  let occupancy () = with_lock (fun () -> min !total (Array.length !ring))
  let recorded () = with_lock (fun () -> !total)

  let dropped () =
    with_lock (fun () -> max 0 (!total - Array.length !ring))

  let record snap =
    with_lock (fun () ->
        let cap = Array.length !ring in
        !ring.(!total mod cap) <- Some snap;
        incr total)

  let json_of_snap s =
    Metrics.Obj
      [
        ("trace_id", Metrics.String s.f_trace);
        ("kind", Metrics.String s.f_kind);
        ("start_ms", Metrics.Fixed (3, s.f_start));
        ("dur_ms", Metrics.Fixed (3, s.f_dur));
        ("attrs", Metrics.Obj s.f_attrs);
      ]

  let dump () =
    with_lock (fun () ->
        let cap = Array.length !ring in
        let held = min !total cap in
        (* Oldest first: the ring's logical start is total - held. *)
        let spans =
          List.init held (fun i ->
              match !ring.((!total - held + i) mod cap) with
              | Some s -> json_of_snap s
              | None -> Metrics.Null)
        in
        Metrics.Obj
          [
            ("capacity", Metrics.Int cap);
            ("recorded", Metrics.Int !total);
            ("dropped", Metrics.Int (max 0 (!total - cap)));
            ("spans", Metrics.List spans);
          ])
end

let elapsed_of t = (now_us () -. t.epoch_us) /. 1000.
let elapsed_ms = function Null -> 0. | Ctx (t, _) -> elapsed_of t

let offer_to_flight t r =
  Flight_impl.record
    {
      Flight_impl.f_trace = t.id;
      f_kind = r.kind;
      f_start = r.start_ms;
      f_dur = r.dur_ms;
      f_attrs = List.rev r.attrs;
    }

let open_record t ~parent ~start_ms kind attrs =
  let r =
    {
      span_id = t.next_id;
      parent;
      kind;
      seq = t.n;
      start_ms;
      dur_ms = -1.;
      attrs = List.rev attrs;
    }
  in
  t.next_id <- t.next_id + 1;
  t.n <- t.n + 1;
  t.spans <- r :: t.spans;
  r

let close t r =
  if r.dur_ms < 0. then begin
    r.dur_ms <- Float.max 0. (elapsed_of t -. r.start_ms);
    offer_to_flight t r
  end

let start ?trace_id:pinned ~kind () =
  let id = match pinned with Some id -> id | None -> mint_trace_id () in
  let root =
    { span_id = 0; parent = None; kind; seq = 0; start_ms = 0.; dur_ms = -1.; attrs = [] }
  in
  let t = { id; epoch_us = now_us (); root; spans = [ root ]; next_id = 1; n = 1 } in
  if enabled () then (t, Ctx (t, root)) else (t, Null)

let enter ctx ?(attrs = []) kind =
  match ctx with
  | Null -> Null
  | Ctx (t, parent) ->
      let r = open_record t ~parent:(Some parent.span_id) ~start_ms:(elapsed_of t) kind attrs in
      Ctx (t, r)

let exit = function Null -> () | Ctx (t, r) -> close t r

let add_attr ctx k v =
  match ctx with Null -> () | Ctx (_, r) -> r.attrs <- (k, v) :: r.attrs

let span ctx ?attrs kind f =
  match enter ctx ?attrs kind with
  | Null -> f Null
  | Ctx (t, r) as child -> (
      match f child with
      | v ->
          close t r;
          v
      | exception e ->
          r.attrs <- ("error", Metrics.String (Printexc.to_string e)) :: r.attrs;
          close t r;
          raise e)

let emit ctx ?(attrs = []) ?start_ms ~dur_ms kind =
  match ctx with
  | Null -> ()
  | Ctx (t, parent) ->
      let dur_ms = Float.max 0. dur_ms in
      let start_ms =
        match start_ms with Some s -> s | None -> Float.max 0. (elapsed_of t -. dur_ms)
      in
      let r = open_record t ~parent:(Some parent.span_id) ~start_ms kind attrs in
      r.dur_ms <- dur_ms;
      offer_to_flight t r

let finish t =
  (* Close stragglers children-first (spans list is reverse emission
     order, so later spans — the deeper ones — close first). *)
  List.iter (fun r -> close t r) t.spans

let records t = List.rev t.spans

let skeleton t =
  let rs = records t in
  let children r = List.filter (fun c -> c.parent = Some r.span_id) rs in
  let buf = Buffer.create 128 in
  let rec go r =
    Buffer.add_string buf r.kind;
    match children r with
    | [] -> ()
    | cs ->
        Buffer.add_char buf '(';
        List.iteri
          (fun i c ->
            if i > 0 then Buffer.add_char buf ' ';
            go c)
          cs;
        Buffer.add_char buf ')'
  in
  (match rs with root :: _ -> go root | [] -> ());
  Buffer.contents buf

let json_of_record r =
  Metrics.Obj
    [
      ("span_id", Metrics.Int r.span_id);
      ("parent", (match r.parent with Some p -> Metrics.Int p | None -> Metrics.Null));
      ("kind", Metrics.String r.kind);
      ("start_ms", Metrics.Fixed (3, r.start_ms));
      ("dur_ms", Metrics.Fixed (3, r.dur_ms));
      ("attrs", Metrics.Obj (List.rev r.attrs));
    ]

let to_json t =
  Metrics.Obj
    [
      ("trace_id", Metrics.String t.id);
      ("spans", Metrics.List (List.map json_of_record (records t)));
    ]

module Flight = struct
  let set_capacity = Flight_impl.set_capacity
  let capacity = Flight_impl.capacity
  let occupancy = Flight_impl.occupancy
  let recorded = Flight_impl.recorded
  let dropped = Flight_impl.dropped
  let dump = Flight_impl.dump
end

module Chrome = struct
  type event = {
    e_pid : int;
    e_tid : int;
    e_name : string;
    e_ts_us : float;  (* absolute; re-anchored at render time *)
    e_dur_us : float;
    e_args : (string * Metrics.json) list;
  }

  type sink = {
    s_lock : Mutex.t;
    mutable s_events : event list;  (* reverse order *)
    mutable s_n : int;
    mutable s_min_us : float;  (* earliest event start seen *)
  }

  let create () =
    { s_lock = Mutex.create (); s_events = []; s_n = 0; s_min_us = infinity }

  let add sink ?(pid = 0) ?(tid = 0) t =
    let evs =
      List.filter_map
        (fun r ->
          if r.dur_ms < 0. then None
          else
            Some
              {
                e_pid = pid;
                e_tid = tid;
                e_name = r.kind;
                e_ts_us = t.epoch_us +. (r.start_ms *. 1000.);
                e_dur_us = r.dur_ms *. 1000.;
                e_args =
                  (("trace_id", Metrics.String t.id)
                  :: ("span_id", Metrics.Int r.span_id)
                  ::
                  (match r.parent with
                  | Some p -> [ ("parent", Metrics.Int p) ]
                  | None -> [])
                  )
                  @ List.rev r.attrs;
              })
        (records t)
    in
    Mutex.lock sink.s_lock;
    sink.s_events <- List.rev_append evs sink.s_events;
    sink.s_n <- sink.s_n + List.length evs;
    List.iter
      (fun e -> if e.e_ts_us < sink.s_min_us then sink.s_min_us <- e.e_ts_us)
      evs;
    Mutex.unlock sink.s_lock

  let events sink =
    Mutex.lock sink.s_lock;
    let n = sink.s_n in
    Mutex.unlock sink.s_lock;
    n

  let json_of_event ~base e =
    Metrics.Obj
      [
        ("name", Metrics.String e.e_name);
        ("cat", Metrics.String "chlsc");
        ("ph", Metrics.String "X");
        ("pid", Metrics.Int e.e_pid);
        ("tid", Metrics.Int e.e_tid);
        ("ts", Metrics.Fixed (1, Float.max 0. (e.e_ts_us -. base)));
        ("dur", Metrics.Fixed (1, e.e_dur_us));
        ("args", Metrics.Obj e.e_args);
      ]

  let to_json ?(extra = []) sink =
    Mutex.lock sink.s_lock;
    let evs = List.rev sink.s_events in
    let base = if sink.s_min_us = infinity then 0. else sink.s_min_us in
    Mutex.unlock sink.s_lock;
    Metrics.Obj
      ([
         ("traceEvents", Metrics.List (List.map (json_of_event ~base) evs));
         ("displayTimeUnit", Metrics.String "ms");
       ]
      @ extra)

  let write_file ?extra sink path =
    let oc = open_out path in
    output_string oc (Metrics.render (to_json ?extra sink));
    output_char oc '\n';
    close_out oc
end
