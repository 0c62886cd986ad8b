(** Obs.Span: request-scoped structured tracing.

    Every unit of work — a frontend parse, one optimisation pass, a
    backend compile, a simulation run, an oracle check, a whole serve
    request — opens a {e span}: a named interval with a monotonic start
    offset, a duration, a parent, and key→value attributes.  Spans of
    one request form a {e trace tree} rooted at the request span.

    Three sinks consume finished traces:

    - the deterministic in-memory tree ({!records}, {!skeleton}) that
      tests assert against;
    - the Chrome [trace_event] JSON exporter ({!Chrome}) behind
      [chlsc … --trace-json FILE], loadable in [about://tracing] and
      Perfetto — one pid per serve domain, tid per worker;
    - the global bounded flight recorder ({!Flight}), a ring buffer of
      the last N finished spans that is dumped alongside every typed
      error a failing compile/verify/serve request produces.

    Contexts are explicit values threaded through call sites, never
    ambient state, so the serve daemon's Domain pool can carry many
    concurrent traces without interference.  A disabled tracer
    ({!set_enabled}[ false]) hands out {!null} contexts and every
    operation degenerates to a no-op. *)

(** {1 Contexts and traces} *)

type trace
(** One request's span tree.  Mutated in place while spans open and
    close; safe to share across domains only through {!Flight} and
    {!Chrome}, which lock — a [trace] itself belongs to one request. *)

type ctx
(** A position in a trace: "the currently open span".  Child spans
    opened through a [ctx] attach under it.  The {!null} context (and
    every context handed out while tracing is disabled) ignores all
    operations. *)

type record = {
  span_id : int;  (** unique within the trace, root is 0 *)
  parent : int option;  (** [None] only for the root *)
  kind : string;  (** stable name: "frontend", "pass:cse", … *)
  seq : int;  (** emission order: parents always precede children *)
  start_ms : float;  (** offset from the trace epoch *)
  mutable dur_ms : float;  (** [< 0.] while the span is still open *)
  mutable attrs : (string * Metrics.json) list;  (** reverse order *)
}

val null : ctx
(** The inert context: spans opened under it vanish. *)

val set_enabled : bool -> unit
(** Globally enable/disable tracing (default on).  While disabled,
    {!start} returns a {!null} context and mints no spans, so the only
    residual cost at an instrumented call site is one closure call. *)

val enabled : unit -> bool

val start : ?trace_id:string -> kind:string -> unit -> trace * ctx
(** Open a new trace whose root span has the given [kind].  A fresh
    trace id ([t<pid>-<counter>], unique within the process) is minted
    unless [trace_id] pins one.  The returned context sits on the root
    span.  While tracing is disabled the trace is an empty husk and the
    context is {!null}. *)

val trace_id : trace -> string

val span : ctx -> ?attrs:(string * Metrics.json) list -> string -> (ctx -> 'a) -> 'a
(** [span ctx kind f] opens a child span of [ctx], runs [f] with the
    child's context, and closes the span when [f] returns — or when it
    raises, in which case an ["error"] attribute records the exception
    and the exception propagates.  Finished spans are offered to the
    {!Flight} recorder. *)

val enter : ctx -> ?attrs:(string * Metrics.json) list -> string -> ctx
(** Non-scoped variant of {!span} for intervals that cross function
    boundaries (the serve queue-wait span opens in the accept loop and
    closes in a worker domain).  Pair with {!exit}. *)

val exit : ctx -> unit
(** Close the span [ctx] sits on (idempotent; no-op for {!null}). *)

val add_attr : ctx -> string -> Metrics.json -> unit
(** Attach an attribute to the currently open span. *)

val emit :
  ctx -> ?attrs:(string * Metrics.json) list -> ?start_ms:float -> dur_ms:float -> string -> unit
(** Record an already-finished child span post hoc — how per-pass
    timings measured below the observability layer (Passes records)
    become spans.  [start_ms] is an offset from the trace epoch and
    defaults to [elapsed - dur_ms]. *)

val elapsed_ms : ctx -> float
(** Milliseconds since the trace epoch ([0.] for {!null}). *)

val finish : trace -> unit
(** Close the root span (and any spans left open, children first). *)

(** {1 The in-memory tree} *)

val records : trace -> record list
(** All spans in emission ([seq]) order — every parent before any of
    its children.  Includes the root. *)

val skeleton : trace -> string
(** The tree shape as a stable string, e.g.
    ["request(queue-wait frontend backend(pass:cse pass:dce))"] —
    kinds only, children in emission order.  Deterministic across runs
    of the same pinned compile, which is what tests pin down. *)

val to_json : trace -> Metrics.json
(** [{"trace_id": …, "spans": [{"span_id", "parent", "kind",
    "start_ms", "dur_ms", "attrs"} …]}] in emission order, times as
    fixed 3-decimal values. *)

(** {1 The flight recorder}

    One global, mutex-guarded ring buffer of the last [capacity]
    finished spans across all traces and domains.  When a request
    fails, {!Flight.dump} is attached to the error response so the
    answer carries its own context. *)

module Flight : sig
  val set_capacity : int -> unit
  (** Resize (min 1) and clear the ring. *)

  val capacity : unit -> int

  val occupancy : unit -> int
  (** Spans currently held (≤ capacity). *)

  val recorded : unit -> int
  (** Total spans ever offered while enabled. *)

  val dropped : unit -> int
  (** Spans overwritten by newer ones ([recorded - occupancy]). *)

  val dump : unit -> Metrics.json
  (** [{"capacity", "recorded", "dropped", "spans": [oldest … newest]}]
      where each span carries its [trace_id], [kind], [start_ms],
      [dur_ms] and [attrs]. *)
end

(** {1 Chrome trace_event export} *)

module Chrome : sig
  type sink

  val create : unit -> sink
  (** An empty sink; its epoch is the creation instant, so events from
      traces added later line up on one global timeline. *)

  val add : sink -> ?pid:int -> ?tid:int -> trace -> unit
  (** Append every {e finished} span of the trace as a complete ["X"]
      event.  Thread-safe: serve workers add from their own domains. *)

  val events : sink -> int

  val to_json : ?extra:(string * Metrics.json) list -> sink -> Metrics.json
  (** [{"traceEvents": […], "displayTimeUnit": "ms"}] plus any [extra]
      top-level members (the CLI attaches a ["flight_recorder"] dump to
      the trace file of a failed compile). *)

  val write_file : ?extra:(string * Metrics.json) list -> sink -> string -> unit
end
