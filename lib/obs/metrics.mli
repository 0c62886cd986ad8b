(** Obs.Metrics: the unified metrics registry.

    One registry holds every named counter, gauge and timer a compile or
    simulation run produces — the netlist evaluator's activity counters,
    the FSMD simulator's cycle and state-visit counts, the async token
    simulator's firings, per-pass wall times — and renders them as one
    stable JSON document.  The CLI ([chlsc compile --metrics-json]) and
    the bench harness ([BENCH_neteval.json]) both emit through this
    module, so machine-readable run reports share a single schema.

    Determinism: rendering is byte-stable for a given registry content —
    keys keep insertion order, floats print with an explicit fixed number
    of decimals ({!Fixed}) wherever a value must reproduce exactly. *)

(** {1 JSON values} *)

type json =
  | Null
  | Bool of bool
  | Int of int
  | Float of float  (** rendered with ["%.6g"] *)
  | Fixed of int * float  (** fixed decimal places: deterministic floats *)
  | String of string
  | List of json list
  | Obj of (string * json) list

val render : json -> string
(** Deterministic pretty rendering: objects one member per line, lists of
    scalars inline, nested structures indented two spaces.  No trailing
    newline. *)

val render_compact : json -> string
(** One-line rendering (the wire format [chlsc serve] frames use); same
    determinism guarantees as {!render}. *)

val parse : string -> (json, string) result
(** Strict JSON to the {!json} shape ([Int] for integral literals,
    [Float] otherwise, never [Fixed]).  It inverts {!render_compact} on
    every value without [Float] or [Fixed].  [Error message] carries the
    byte offset of the fault. *)

val member : string -> json -> json option
(** Object member lookup; [None] on non-objects too. *)

(** {1 Latency histograms}

    Fixed geometric buckets (0.001 ms doubling to ~537 s, plus overflow),
    so the JSON rendering — counts, sum and the bucket-upper-bound
    percentile readouts — is deterministic for a given observation set.
    This is the [chls.metrics/2] addition: a registry value may now be a
    histogram object ([count], [sum_ms], [min_ms]/[max_ms],
    [p50_ms]/[p90_ms]/[p99_ms], non-empty [buckets]). *)

module Histogram : sig
  type h

  val percentile : h -> float -> float
  (** [percentile h q] for [q] in [0..100]: the upper bound of the
      smallest bucket reaching rank [ceil (q/100 * count)], clamped to
      the largest observation; [0.] when empty. *)
end

(** {1 The registry} *)

type t

val create : unit -> t

val set : t -> string -> json -> unit
(** Set (or replace) a named value.  A name already present is updated
    in place and keeps the place of its first write; the registry is
    never rebuilt.  Dotted names ("sim.cycles") become nested objects in
    {!to_json}. *)

val set_int : t -> string -> int -> unit
val set_bool : t -> string -> bool -> unit
val set_string : t -> string -> string -> unit

val set_fixed : t -> string -> decimals:int -> float -> unit
(** A float gauge with a fixed, deterministic rendering precision. *)

val incr : t -> ?by:int -> string -> unit
(** Counter: add [by] (default 1) to the named [Int], creating it at 0. *)

val add_ms : t -> string -> float -> unit
(** Timer: accumulate milliseconds into the named [Fixed (3, _)] value. *)

val observe_ms : t -> string -> float -> unit
(** Record one latency sample into the named histogram, creating it on
    first observation.  The histogram stays live in the registry and
    materializes through {!find}/{!pairs}/{!to_json} as its summary
    object.  @raise Invalid_argument if the name holds a non-histogram. *)

val histogram : t -> string -> Histogram.h option
(** The live histogram registered under this name, if any. *)

val find : t -> string -> json option

val pairs : t -> (string * json) list
(** All entries in insertion order, dotted names unexpanded. *)

val merge : into:t -> ?prefix:string -> t -> unit
(** Copy every entry of the source registry into [into], prepending
    ["<prefix>."] to each name when a prefix is given. *)

(** {1 Rendering} *)

val to_json : t -> json
(** The registry as a JSON object: dotted names are folded into nested
    objects ("sim.cycles" and "sim.events" share one "sim" object),
    preserving first-appearance order at every level. *)

val render_flat : t -> (string * string) list
(** Flat key/value view (dotted names kept) for terminal printing; scalar
    values render bare (no quotes), structured values as compact JSON. *)

val write_file : t -> string -> unit
(** Render {!to_json} to the file, with a trailing newline. *)
