(* The traced run: the workload's set-up and its fingerprint stretch
   replayed in this process, timing the calls into each layer's public
   functions from here.  Nothing inside the program is instrumented for
   it; the only program-side timings read are the pass records a fresh
   compile already carries ([Design.pass_trace]) and the pool's existing
   queue-wait spans.

   Every pass starts from the state the workload's daemon would be in —
   an empty front tier, and the store the workload prescribes — so
   passes are comparable:

   - mirror, traced: the handler's calls made one by one ([Driver.program],
     [Driver.compile], [Design.run], [Driver.reference]), each timed and
     attributed to its layer by the cache tier that answered;
   - mirror, untraced: the same calls with no clock reads, for the
     benchmark's own instrumentation cost;
   - handler: [Serve.Json.parse] + [Serve.parse_request], [Pool.handle],
     [Metrics.render_compact], timed, with spans on and off alternately;
   - queue: the same requests through [Pool.submit] with the end-to-end
     window, reading each request's queue-wait span via [on_trace]. *)

let now = Unix.gettimeofday

(* --- per-layer accumulators --- *)

type acc = {
  mutable requests : int;
  mutable front_calls : int;
  mutable front_ms : float;
  mutable ir_ms : float;
  mutable ir_passes : int;
  mutable ir_instrs : int;
  mutable back_ms : float;
  mutable back_designs : int;
  mutable back_rejects : int;
  mutable hit_ms : float;
  mutable reject_ms : float;
  mutable front_hits : int;
  mutable misses : int;
  mutable store_hits : int;
  mutable revive_ms : float;
  mutable sim_runs : int;
  mutable sim_ms : float;
  mutable first_runs : int;
  mutable first_run_ms : float;
  mutable sim_cycles : int;
  mutable interp_calls : int;
  mutable interp_ms : float;
  mutable failed : int;
}

let acc () =
  { requests = 0; front_calls = 0; front_ms = 0.; ir_ms = 0.; ir_passes = 0;
    ir_instrs = 0; back_ms = 0.; back_designs = 0; back_rejects = 0;
    hit_ms = 0.; reject_ms = 0.; front_hits = 0; misses = 0; store_hits = 0;
    revive_ms = 0.; sim_runs = 0; sim_ms = 0.; first_runs = 0;
    first_run_ms = 0.; sim_cycles = 0; interp_calls = 0; interp_ms = 0.;
    failed = 0 }

(* the handler's layers, as the mirror attributes its time *)
let layer_rows =
  [ ("front", fun a -> a.front_ms);
    ("ir", fun a -> a.ir_ms);
    ("back", fun a -> a.back_ms);
    ("driver.hit", fun a -> a.hit_ms);
    ("driver.reject", fun a -> a.reject_ms);
    ("cache.revive", fun a -> a.revive_ms);
    ("sim", fun a -> a.sim_ms);
    ("interp", fun a -> a.interp_ms) ]

let layer_ms a = List.fold_left (fun t (_, f) -> t +. f a) 0. layer_rows

(* --- the mirror: the serve handler's calls, made from here --- *)

type mirror = {
  traced : bool;
  sessions : (string, Driver.session) Hashtbl.t;
  run_before : (string, unit) Hashtbl.t;  (** designs already simulated *)
}

let counter s key =
  match Metrics.find (Driver.metrics s) key with
  | Some (Metrics.Int n) -> n
  | _ -> 0

let session m source entry =
  let key = Digest.to_hex (Digest.string source) ^ "|" ^ entry in
  match Hashtbl.find_opt m.sessions key with
  | Some s -> s
  | None ->
    let s = Driver.create ~entry source in
    Hashtbl.add m.sessions key s;
    s

(* [f ()] and its wall time in ms; no clock reads when untraced *)
let timed m f =
  if m.traced then begin
    let t0 = now () in
    let r = f () in
    (r, (now () -. t0) *. 1000.)
  end
  else (f (), 0.)

let front m a s =
  let r, dt = timed m (fun () -> Driver.program s) in
  a.front_calls <- a.front_calls + 1;
  a.front_ms <- a.front_ms +. dt;
  r

let compile m a ?config s b =
  let h0 = counter s "driver.cache.design_hits"
  and s0 = counter s "driver.cache.design_store_hits" in
  let r, dt = timed m (fun () -> Driver.compile ?config s b) in
  (match r with
  | Error _ ->
    a.back_rejects <- a.back_rejects + 1;
    a.reject_ms <- a.reject_ms +. dt
  | Ok _ when counter s "driver.cache.design_hits" > h0 ->
    a.front_hits <- a.front_hits + 1;
    a.hit_ms <- a.hit_ms +. dt
  | Ok _ when counter s "driver.cache.design_store_hits" > s0 ->
    a.store_hits <- a.store_hits + 1;
    a.revive_ms <- a.revive_ms +. dt
  | Ok d ->
    let trace = d.Design.pass_trace in
    let ir =
      List.fold_left (fun acc r -> acc +. r.Passes.wall_ms) 0. trace
    in
    a.misses <- a.misses + 1;
    a.back_designs <- a.back_designs + 1;
    a.ir_passes <- a.ir_passes + List.length trace;
    (match List.rev trace with
    | last :: _ -> a.ir_instrs <- a.ir_instrs + last.Passes.after.Passes.instrs
    | [] -> ());
    if m.traced then begin
      a.ir_ms <- a.ir_ms +. ir;
      a.back_ms <- a.back_ms +. (dt -. ir)
    end);
  r

let simulate m a ~key ?sim (d : Design.t) args =
  let r, dt = timed m (fun () -> d.Design.run ?sim (Design.int_args args)) in
  a.sim_runs <- a.sim_runs + 1;
  a.sim_ms <- a.sim_ms +. dt;
  if not (Hashtbl.mem m.run_before key) then begin
    Hashtbl.add m.run_before key ();
    a.first_runs <- a.first_runs + 1;
    a.first_run_ms <- a.first_run_ms +. dt
  end;
  a.sim_cycles <- a.sim_cycles + Option.value r.Design.cycles ~default:0;
  Option.map Bitvec.to_int r.Design.result

let reference m a s args =
  let r, dt = timed m (fun () -> Driver.reference s ~args) in
  a.interp_calls <- a.interp_calls + 1;
  a.interp_ms <- a.interp_ms +. dt;
  Result.to_option r

let design_key s b config =
  String.concat "|"
    [ Driver.source_digest s; Registry.name b;
      Config.digest (Option.value config ~default:Config.default) ]

(* One request through the mirror, checked against its expectation. *)
let mirror_request m a (r : Traffic.request) =
  a.requests <- a.requests + 1;
  let ok =
    try
    match Serve.parse_request (Traffic.with_id r 0), r.Traffic.expect with
    | Ok (Serve.Compile { source; entry; backend; args = Some args; config; _ }),
      Traffic.Compiled { result; _ } -> (
      let s = session m source entry in
      let b = Registry.get backend in
      ignore (front m a s);
      match compile m a ?config s b with
      | Error _ -> false
      | Ok d ->
        let got =
          simulate m a ~key:(design_key s b config)
            ?sim:(Option.map (fun c -> c.Config.sim) config)
            d args
        in
        let oracle = reference m a s args in
        got = Some result && oracle = Some result)
    | Ok (Serve.Compare { source; entry; backends = Some names; vectors; config; _ }),
      Traffic.Compared { rows } ->
      let s = session m source entry in
      ignore (front m a s);
      let oracle = List.map (reference m a s) vectors in
      List.for_all2
        (fun name (_, want) ->
          let b = Registry.get name in
          match (compile m a ?config s b, want) with
          | Error _, None -> true
          | Ok d, Some results ->
            let got =
              List.map
                (simulate m a ~key:(design_key s b config) d)
                vectors
            in
            got = List.map Option.some results
            && oracle = List.map Option.some results
          | _ -> false)
        names rows
    | _ -> false
    with _ -> false
  in
  if not ok then a.failed <- a.failed + 1

(* --- pass state --- *)

(* Reset to what a fresh daemon of this workload would see: an empty
   front tier, and no store, a fresh empty one, or the one written by the
   cold pass. *)
let reset (wl : Traffic.workload) ~dir ~pass =
  Driver.clear_cache ();
  (match wl.Traffic.replay_store with
  | `None -> Driver.set_cache_store None
  | `Fresh ->
    let d = Filename.concat dir (Printf.sprintf "store-%d" pass) in
    Endtoend.rm_rf d;
    ignore (Result.get_ok (Driver.attach_disk_cache ~dir:d ()))
  | `Prewritten ->
    ignore
      (Result.get_ok
         (Driver.attach_disk_cache ~dir:(Filename.concat dir "store") ())));
  (* the previous pass's garbage is collected here, not during this pass *)
  Gc.full_major ()

let store_counters () =
  match Driver.cache_store () with
  | Some s ->
    let c = Cache.store_counters s in
    (c.Cache.puts, c.Cache.bytes)
  | None -> (0, 0)

(* A mirror pass over set-up then replay: the two phases' accumulators,
   the store puts and bytes it caused, and its wall time. *)
let mirror_pass ~traced wl ~dir ~pass ~setup ~replay =
  reset wl ~dir ~pass;
  let m =
    { traced; sessions = Hashtbl.create 32; run_before = Hashtbl.create 64 }
  in
  let p0, b0 = store_counters () in
  let sa = acc () and ra = acc () in
  let t0 = now () in
  Array.iter (mirror_request m sa) setup;
  Array.iter (mirror_request m ra) replay;
  let wall = (now () -. t0) *. 1000. in
  let p1, b1 = store_counters () in
  (sa, ra, p1 - p0, b1 - b0, wall)

(* --- the handler: parse, Pool.handle, render --- *)

type handled = {
  parse_ms : float;
  handle_ms : float;
  render_ms : float;
  frame_bytes : int;
  responses : Metrics.json list;  (** in request order *)
  bad : int;
}

let handler_pass pool wl ~dir ~pass ~spans (reqs : Traffic.request array) =
  reset wl ~dir ~pass;
  Span.set_enabled spans;
  let sessions = Some (Hashtbl.create 32) in
  let parse = ref 0. and handle = ref 0. and render = ref 0. in
  let bytes = ref 0 and bad = ref 0 in
  let responses =
    Array.to_list
      (Array.mapi
         (fun i (r : Traffic.request) ->
           let frame = Traffic.payload r i in
           let t0 = now () in
           let req =
             match Serve.Json.parse frame with
             | Ok j -> Serve.parse_request j
             | Error msg -> Error (msg, Metrics.Null)
           in
           let t1 = now () in
           match req with
           | Error _ ->
             incr bad;
             Metrics.Null
           | Ok req ->
             let resp = Serve.Pool.handle pool sessions req in
             let t2 = now () in
             let wire = Metrics.render_compact resp in
             let t3 = now () in
             parse := !parse +. (t1 -. t0);
             handle := !handle +. (t2 -. t1);
             render := !render +. (t3 -. t2);
             bytes := !bytes + 8 + String.length frame + String.length wire;
             if Traffic.check r.Traffic.expect resp <> Ok () then incr bad;
             resp)
         reqs)
  in
  Span.set_enabled true;
  { parse_ms = !parse *. 1000.; handle_ms = !handle *. 1000.;
    render_ms = !render *. 1000.; frame_bytes = !bytes; responses; bad = !bad }

(* --- the queue: Pool.submit with the end-to-end window --- *)

let queue_pass wl ~dir ~pass ~window (reqs : Traffic.request array) =
  reset wl ~dir ~pass;
  let lock = Mutex.create () and freed = Condition.create () in
  let waits = ref [] and inflight = ref 0 in
  let on_trace ~pid:_ ~tid:_ tr =
    List.iter
      (fun (r : Span.record) ->
        if r.Span.kind = "queue-wait" then begin
          Mutex.lock lock;
          waits := r.Span.dur_ms :: !waits;
          Mutex.unlock lock
        end)
      (Span.records tr)
  in
  let pool = Serve.Pool.create ~domains:1 ~on_trace () in
  Array.iteri
    (fun i (r : Traffic.request) ->
      match Serve.Json.parse (Traffic.payload r i) with
      | Error _ -> ()
      | Ok j -> (
        match Serve.parse_request j with
        | Error _ -> ()
        | Ok req ->
          Mutex.lock lock;
          while !inflight >= window do
            Condition.wait freed lock
          done;
          incr inflight;
          Mutex.unlock lock;
          Serve.Pool.submit pool req ~respond:(fun _ ->
              Mutex.lock lock;
              decr inflight;
              Condition.signal freed;
              Mutex.unlock lock)))
    reqs;
  Serve.Pool.drain pool;
  Serve.Pool.shutdown pool;
  List.fold_left ( +. ) 0. !waits

(* --- the run --- *)

type result = {
  attempted : int;
  failed : int;
  metrics : (string * float * string) list;
  fingerprint : Traffic.fingerprint;
  lines : string list;
}

let handler_reps = 3

let run ~dir ~(wl : Traffic.workload) ~window =
  let setup = wl.Traffic.setup in
  let replay = Array.sub wl.Traffic.traffic 0 wl.Traffic.fingerprint_len in
  let all = Array.append setup replay in
  let n = float_of_int (Array.length all) in
  let lines = ref [] in
  let line fmt = Printf.ksprintf (fun s -> lines := s :: !lines) fmt in
  (* warm-repeat: the cold pass writes the store the daemon restarts over,
     and is the cold column of the cold-vs-warm comparison *)
  let cold =
    if wl.Traffic.replay_store = `Prewritten then begin
      Endtoend.rm_rf (Filename.concat dir "store");
      let cold_setup = Array.map (Traffic.expect_tier "miss") setup in
      let _, ca, _, _, _ =
        mirror_pass ~traced:true wl ~dir
          ~pass:0 ~setup:[||] ~replay:cold_setup
      in
      Some ca
    end
    else None
  in
  (* untraced and traced mirror passes alternate; each side keeps its
     fastest wall, so one-off process warm-up lands on neither *)
  let untraced_wall = ref infinity and traced_wall = ref infinity in
  let last = ref None in
  for _ = 1 to 2 do
    let _, _, _, _, w = mirror_pass ~traced:false wl ~dir ~pass:1 ~setup ~replay in
    untraced_wall := Float.min !untraced_wall w;
    let (_, _, _, _, w) as p = mirror_pass ~traced:true wl ~dir ~pass:2 ~setup ~replay in
    traced_wall := Float.min !traced_wall w;
    last := Some p
  done;
  let untraced_wall = !untraced_wall and traced_wall = !traced_wall in
  let sa, ra, puts, bytes, _ = Option.get !last in
  (* metrics cover set-up and replay together *)
  let sum f = f sa +. f ra and count f = float_of_int (f sa + f ra) in
  let pool = Serve.Pool.create ~domains:1 () in
  let on = ref [] and off = ref [] in
  for rep = 1 to handler_reps do
    on := handler_pass pool wl ~dir ~pass:(2 + (2 * rep)) ~spans:true all :: !on;
    off := handler_pass pool wl ~dir ~pass:(3 + (2 * rep)) ~spans:false all :: !off
  done;
  Serve.Pool.shutdown pool;
  let queue_ms = queue_pass wl ~dir ~pass:99 ~window all in
  Endtoend.rm_rf dir;
  let first_on = List.nth !on (handler_reps - 1) in
  let med f l = Endtoend.median (List.map f l) in
  let handle_ms = med (fun h -> h.handle_ms) !on /. n in
  let handle_off_ms = med (fun h -> h.handle_ms) !off /. n in
  let per x = x /. n in
  (* the handler account: the layers plus the unattributed rest make up
     serve.handle_ms by construction *)
  let unattributed = handle_ms -. per (sum layer_ms) in
  let bad =
    sa.failed + ra.failed + List.fold_left (fun k h -> k + h.bad) 0 (!on @ !off)
  in
  let attempted = Array.length all * (2 + (2 * handler_reps)) in
  let skip = Array.length setup in
  let replay_responses = List.filteri (fun i _ -> i >= skip) first_on.responses in
  let fingerprint =
    Traffic.observe replay
      (List.init (Array.length replay) Fun.id)
      replay_responses
    @ [ ("layer.sim.cycles", ra.sim_cycles);
        ("layer.ir.instrs", ra.ir_instrs);
        ("layer.back.designs", ra.back_designs);
        ("layer.back.rejects", ra.back_rejects) ]
  in
  line "handler account, ms per request over %d replayed requests:" (Array.length all);
  List.iter (fun (name, f) -> line "  %-16s %9.4f" name (per (sum f))) layer_rows;
  line "  %-16s %9.4f" "unattributed" unattributed;
  line "  %-16s %9.4f  (Pool.handle, spans on, median of %d)" "= handle" handle_ms handler_reps;
  (match cold with
  | Some ca ->
    let k = float_of_int (max 1 ca.requests) and w = float_of_int (max 1 ra.requests) in
    line "cold vs warm, ms per request (cold: %d first compiles; warm: %d repeats):"
      ca.requests ra.requests;
    List.iter
      (fun (name, f) ->
        line "  %-16s cold %9.4f  warm %9.4f  gap %9.4f" name (f ca /. k) (f ra /. w)
          ((f ca /. k) -. (f ra /. w)))
      layer_rows;
    line "  %-16s cold %9.4f  warm %9.4f  ratio %.2fx" "all layers"
      (layer_ms ca /. k) (layer_ms ra /. w)
      (layer_ms ca /. k /. Float.max 1e-9 (layer_ms ra /. w))
  | None -> ());
  line "tracing cost: traced mirror %.2f ms, untraced mirror %.2f ms (%+.1f%%)"
    traced_wall untraced_wall
    ((traced_wall -. untraced_wall) /. untraced_wall *. 100.);
  let sim_s = sum (fun a -> a.sim_ms) /. 1000.
  and cycles = count (fun a -> a.sim_cycles)
  and first_runs = count (fun a -> a.first_runs) in
  { attempted;
    failed = bad;
    fingerprint;
    lines = List.rev !lines;
    metrics =
      [ ("front.calls", count (fun a -> a.front_calls), "count");
        ("front.ms", per (sum (fun a -> a.front_ms)), "ms/req");
        ("ir.ms", per (sum (fun a -> a.ir_ms)), "ms/req");
        ("ir.passes", count (fun a -> a.ir_passes), "count");
        ("ir.instrs", count (fun a -> a.ir_instrs), "count");
        ("back.ms", per (sum (fun a -> a.back_ms)), "ms/req");
        ("back.designs", count (fun a -> a.back_designs), "count");
        ("back.rejects", count (fun a -> a.back_rejects), "count");
        ("driver.hit_ms", per (sum (fun a -> a.hit_ms)), "ms/req");
        ("driver.reject_ms", per (sum (fun a -> a.reject_ms)), "ms/req");
        ("cache.front_hits", count (fun a -> a.front_hits), "count");
        ("cache.misses", count (fun a -> a.misses), "count");
        ("cache.store_hits", count (fun a -> a.store_hits), "count");
        ("cache.store_puts", float_of_int puts, "count");
        ("cache.store_bytes", float_of_int bytes, "B");
        ("cache.revive_ms", per (sum (fun a -> a.revive_ms)), "ms/req");
        ("sim.runs", count (fun a -> a.sim_runs), "count");
        ("sim.ms", per (sum (fun a -> a.sim_ms)), "ms/req");
        ( "sim.first_run_ms",
          sum (fun a -> a.first_run_ms) /. Float.max 1. first_runs, "ms" );
        ("sim.cycles", cycles, "count");
        ("sim.cycles_per_s", (if sim_s > 0. then cycles /. sim_s else 0.), "1/s");
        ("interp.calls", count (fun a -> a.interp_calls), "count");
        ("interp.ms", per (sum (fun a -> a.interp_ms)), "ms/req");
        ("serve.json_parse_ms", med (fun h -> h.parse_ms) !on /. n, "ms/req");
        ("serve.json_render_ms", med (fun h -> h.render_ms) !on /. n, "ms/req");
        ("serve.frame_bytes", float_of_int first_on.frame_bytes /. n, "B/req");
        ("serve.handle_ms", handle_ms, "ms/req");
        ("serve.queue_wait_ms", queue_ms /. n, "ms/req");
        ("serve.unattributed_ms", unattributed, "ms/req");
        ( "obs.span_overhead_pct",
          (handle_ms -. handle_off_ms) /. handle_off_ms *. 100., "%" );
        ("trace.wall_ms", traced_wall, "ms");
        ("trace.untraced_wall_ms", untraced_wall, "ms");
        ( "trace.overhead_pct",
          (traced_wall -. untraced_wall) /. untraced_wall *. 100., "%" ) ] }
