(** [chlsc serve]: the synthesis service.

    A daemon on a Unix-domain socket speaking a length-prefixed JSON
    wire protocol, dispatching requests onto an OCaml 5 Domain pool.
    [Design.t] is pure data, so the sharding story is simple: each
    worker domain owns its own {!Driver.session}s (the parsed frontend),
    while compiled designs are shared across domains — and across
    restarts and co-operating workers — through the content-hash keyed
    {!Cache} behind the driver.

    {2 Wire protocol}

    Every frame is a 4-byte big-endian payload length followed by that
    many bytes of JSON (one request or one response per frame; frames
    over 16 MiB are rejected).  Requests carry an ["op"] and
    an optional ["id"] that is echoed verbatim in the response;
    responses to pipelined requests may arrive out of order, so the
    ["id"] is the correlator.  Ops:

    - [compile]: [{"op":"compile","source":C,"backend":B,"entry":E,
      "args":[..]}] — compile through one backend; with ["args"], run
      the design and verify the result against the interpreter oracle,
      answered as {!Driver.run_members} renders the verdict ([status],
      a stop's progress or the run's [result], [matches_reference]).
    - [compare]: [{"op":"compare","source":C,"backends":[..],
      "args":[[..],..]}] — per-backend verdicts in registry order, each
      accepted backend run on every vector and checked against the
      oracle; rows render through {!Driver.compare_row}.
    - [check]: [{"op":"check","source":C,"dialect":D}] — the static
      concurrency checker under the dialect's severity rules.
    - [stats]: server counters, per-op latency histograms, queue depth,
      flight-recorder occupancy/dropped gauges and derived cache hit
      rates ([chls.metrics/3]) and the cache subsystem's state.
    - [shutdown]: drain in-flight work, answer, and stop the daemon.

    Every request is traced: a span tree rooted at a ["request"] span
    (queue-wait, frontend, dialect-check, per-pass, backend, simulate,
    oracle children) whose trace id is echoed in the response as
    ["trace_id"] next to the caller's ["id"].

    Error responses are typed, never a dropped connection:
    [{"id":..,"ok":false,"error":{"kind":K,"message":M}}] with [kind]
    [protocol], [internal], or a {!Driver.error_kind}
    ([frontend-error], [no-c-frontend], [dialect-reject],
    [backend-error], [verification-error], [constraint-infeasible]) —
    and every one carries a ["flight_recorder"] member,
    the {!Span.Flight} dump of the last finished spans before the
    failure. *)

(** {1 JSON}

    The wire JSON is parsed by {!Metrics.parse} and rendered by
    {!Metrics.render_compact}. *)

module Json : sig
  val parse : string -> (Metrics.json, string) result
  (** {!Metrics.parse}, re-exported for callers of the old name. *)
end

(** {1 Framing} *)

module Frame : sig
  exception Protocol_error of string
  (** A malformed frame from the peer (oversized or truncated length /
      payload). *)

  val write : out_channel -> string -> unit
  (** One frame: 4-byte big-endian length, then the payload; flushes. *)

  val read : in_channel -> string option
  (** The next frame's payload, or [None] on clean EOF at a frame
      boundary.  @raise Protocol_error on oversized or truncated
      frames. *)
end

(** {1 Requests} *)

type request =
  | Compile of {
      id : Metrics.json;
      source : string;
      entry : string;
      backend : string;
      args : int list option;
      config : Config.t option;
          (** per-request synthesis configuration (an optional ["config"]
              JSON object, {!Config.of_json}); [None] = {!Config.default}.
              Distinct configs are distinct cache entries, so a sweep can
              push its whole grid through one daemon. *)
    }
  | Compare of {
      id : Metrics.json;
      source : string;
      entry : string;
      backends : string list option;  (** [None]: every registered *)
      vectors : int list list;
      config : Config.t option;  (** as for [Compile] *)
    }
  | Check of { id : Metrics.json; source : string; dialect : string }
  | Stats of { id : Metrics.json }
  | Shutdown of { id : Metrics.json }

val parse_request : Metrics.json -> (request, string * Metrics.json) result
(** Typed decode of one request object; [Error (message, id)] echoes the
    request's ["id"] (or [Null]) so the error response still correlates. *)

(** {1 The Domain pool} *)

module Pool : sig
  type t

  val create : ?domains:int -> ?queue_capacity:int ->
    ?on_trace:(pid:int -> tid:int -> Span.trace -> unit) ->
    unit -> t
  (** [domains] defaults to [Domain.recommended_domain_count ()].
      [queue_capacity] (default [4 * domains]) bounds the job queue —
      {!submit} blocks when it is full, which is the backpressure that
      stops a fast client from ballooning the daemon.  A worker takes
      one job at a time, in submission order; its own session table
      runs each distinct (source, entry) through the frontend once.

      While {!Span.enabled}, every request gets a span trace; [on_trace]
      receives each finished trace from the worker that handled it —
      [pid] is the worker index, [tid] the runtime domain id — which is
      how the daemon's Chrome sink and the tests' in-memory sink
      attach. *)

  val submit : t -> request -> respond:(Metrics.json -> unit) -> unit
  (** Enqueue one job (blocking while the queue is full).  [respond] is
      called from a worker domain exactly once — callers serialize their
      own writes.  After {!shutdown}, responds immediately with a typed
      [protocol] error. *)

  val drain : t -> unit
  (** Block until every submitted job has responded. *)

  val shutdown : t -> unit
  (** {!drain}, then stop and join the worker domains.  Idempotent. *)

  val stats : t -> (string * int) list
  (** [domains], [queue_capacity], the [queue_depth] gauge, [active],
      and the total-jobs counter — for the [stats] op. *)

  val metrics : t -> Metrics.t
  (** The pool's shared registry: [serve.requests.<op>] counters and
      [serve.latency.<op>_ms] histograms.  Guarded internally. *)

  val handle :
    t -> (string, Driver.session) Hashtbl.t option -> request -> Metrics.json
  (** The request handler itself (exposed for tests and direct, socketless
      use): compile/compare/check against the given session table (or a
      throwaway one), stats/shutdown answered from pool state.  Never
      raises — internal failures come back as typed [internal] errors.
      Traced like a socket request (minus the queue-wait span, since no
      queue is crossed): the response carries [trace_id], failures carry
      the flight dump, and [on_trace] fires with pid/tid 0. *)
end

(** {1 The daemon} *)

val run :
  ?domains:int ->
  ?queue_capacity:int ->
  ?trace_json:string ->
  ?log:(string -> unit) ->
  socket:string ->
  unit ->
  (unit, string) result
(** Bind [socket] (unlinking any stale one), serve connections until a
    [shutdown] request (or SIGINT/SIGTERM), drain the pool and clean up.
    Workers compile through {!Driver}, so a persistent design store
    attached beforehand ({!Driver.attach_disk_cache}) is shared by every
    worker — and by the next daemon.
    With [trace_json], every request's span tree is collected into a
    Chrome [trace_event] sink (pid = worker index, tid = domain id) and
    written to that file at shutdown — load it in [about://tracing] or
    Perfetto.  [Error message] when the socket cannot be bound. *)

(** {1 A minimal client} *)

module Client : sig
  type t

  val connect : ?timeout_ms:int -> socket:string -> unit -> (t, string) result
  (** [timeout_ms] (when positive) bounds every send and receive on the
      connection — {!rpc} against a wedged daemon then fails with a
      "timed out" [Error] instead of hanging the script. *)

  val rpc : t -> string -> (string, string) result
  (** Send one raw-JSON request frame, read one response frame (this
      client keeps one request in flight, so ordering is trivial). *)

  val close : t -> unit
end
