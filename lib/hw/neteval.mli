(** Netlist evaluator: combinational settling plus a cycle-accurate
    sequential stepper.  Registers and memories update between cycles with
    read-before-write semantics.

    The evaluator is event-driven by default: a dirty worklist seeded by
    changed primary inputs and by register/memory updates means a node is
    re-evaluated only when one of its inputs actually changed.  The
    original full in-order sweep is kept as a selectable strategy and
    serves as the differential-testing oracle (both strategies are
    bit-exact against each other; see test/test_random.ml). *)

type strategy =
  | Full_sweep  (** re-evaluate every node on every settle (the oracle) *)
  | Event_driven  (** re-evaluate only nodes whose inputs changed *)

type probe = { on_value : cycle:int -> Netlist.signal -> Bitvec.t -> unit }
(** Observation hook, fired whenever a signal's settled value actually
    changes (the event worklist is exactly the VCD change list, so
    waveform tracing is near-free).  Probes observe only: they receive
    values after they are committed and cannot perturb the simulation —
    outcomes with a probe installed are bit-identical to outcomes
    without (tested by qcheck in test/test_obs.ml). *)

type stats = {
  mutable cycles : int;  (** clock edges ([tick]s) taken *)
  mutable settles : int;  (** settle passes (full or incremental) *)
  mutable nodes_evaluated : int;  (** node evaluations across all settles *)
  mutable events : int;  (** evaluations whose value actually changed *)
  mutable wall_time : float;  (** seconds spent inside [run_until_done] *)
}

type t

val create : ?strategy:strategy -> Netlist.t -> t
(** Default strategy is [Event_driven]. *)

val reset : t -> unit
(** Back to the state [create] gives: power-on registers and memories,
    zero inputs, counters cleared, no probe, and the next settle a full
    sweep.  A reset evaluator answers and counts as a fresh one does. *)

val set_probe : t -> probe -> unit
(** Install an observation hook on this evaluator instance. *)

val eval_counts : t -> int array
(** Per-signal evaluation counts (a copy): the hot-node histogram behind
    [chlsc compile --profile]. *)

val settle : t -> inputs:(string * Bitvec.t) list -> unit
(** Settle all combinational values for the current cycle; missing inputs
    read as zero. *)

val value : t -> Netlist.signal -> Bitvec.t

val output : t -> string -> Bitvec.t
(** @raise Invalid_argument on unknown output names. *)

val stats : t -> stats
(** Live performance counters for this evaluator instance. *)

val tick : t -> unit
(** Clock edge: commit register and memory updates. *)

val eval_combinational :
  Netlist.t -> inputs:(string * Bitvec.t) list ->
  (string * Bitvec.t) list * stats
(** Evaluate a purely combinational netlist once; returns the outputs and
    the evaluator counters. *)

val drive :
  t -> inputs:(string * Bitvec.t) list -> done_name:string ->
  max_cycles:int -> ((string * Bitvec.t) list * int, [ `Timeout ]) result
(** Clock an existing evaluator until the 1-bit output [done_name] is
    set; for callers that need the evaluator afterwards (probes,
    [eval_counts]).  [run_until_done] is this plus [create]. *)

val run_until_done :
  ?strategy:strategy ->
  Netlist.t -> inputs:(string * Bitvec.t) list -> done_name:string ->
  max_cycles:int ->
  ((string * Bitvec.t) list * int * stats, [ `Timeout ]) result
(** Clock a sequential netlist until the 1-bit output [done_name] is set;
    returns the outputs, the cycle count and the evaluator counters.  The
    done output and the primary inputs are resolved to signal ids once,
    before the loop. *)
