(** [chlsc explore]: design-space sweep over synthesis configurations.

    The paper's comparison is a fixed table; an HLS user's real question
    is a sweep — how do area, cycle count and clock period trade as the
    knobs move?  This module enumerates a grid of
    (resource bound x chaining budget x unroll factor x backend) points,
    pushes each through {!Driver.compile} under its own {!Config.t}
    (distinct digests, so the artifact cache memoizes per point and a
    warm re-run is all hits), verifies every produced design against the
    interpreter oracle, and computes the Pareto front minimizing
    (area, cycles, period).

    Points run on a small pool of OCaml 5 domains; constraint-infeasible
    points (HardwareC's [constrain] lattice exhausted — backends whose
    {!Backend.capabilities} advertise [constraint_reports]) are typed
    {!Infeasible} cells, not errors. *)

(** {1 The grid} *)

type grid = {
  adders : int option list;
      (** adder bound per point; [None] = unconstrained *)
  chains : float list;  (** chaining (cycle-time) budgets *)
  unrolls : int list;  (** partial unroll factors; 1 disables *)
}

val default_grid : grid
(** [adders=1,2; chain=10,200; unroll=1,2] — 8 points per backend; the
    chain budgets straddle the chaining knee (10 schedules one op per
    state, 200 chains whole blocks). *)

val parse_grid : string -> (grid, string) result
(** ["adders=1,2;chain=10,200;unroll=1,2"].  Unset axes keep
    {!default_grid}'s values; an adder bound of [*] means
    unconstrained; unknown axes are rejected. *)

val grid_size : grid -> backends:int -> int

val points : grid -> Registry.t list -> (Registry.t * Config.t) list
(** The enumerated design points, backend-major then adders, chains,
    unrolls — the order is contractual: cell indices in {!sweep},
    {!metrics} and {!table} are positions in this list. *)

(** {1 Point outcomes} *)

type measurement = {
  m_area : float option;  (** {!Area.report}[.total_area] *)
  m_registers : int option;
  m_cycles : int option;  (** simulated cycles on the sweep's args *)
  m_period : float option;  (** achieved clock-period estimate *)
  m_latency : float option;  (** cycles x period, when both known *)
  m_verified : bool;  (** simulation matched the interpreter oracle *)
}

type status =
  | Measured of measurement
  | Infeasible of string
      (** no allocation meets the program's timing constraints — a
          property of the design point, not an error *)
  | Rejected of string  (** dialect restriction / no C frontend *)
  | Failed of string
      (** a compile error, or a simulation that stopped or crashed *)

type cell = {
  cell_backend : string;
  cell_config : Config.t;
  cell_digest : string;  (** {!Config.digest} — the cache-key half *)
  cell_status : status;
  cell_wall_ms : float;
}

(** {1 Running a sweep} *)

type sweep = {
  sw_entry : string;
  sw_args : int list;
  sw_cells : cell list;  (** in {!points} enumeration order *)
  sw_pareto : int list;  (** ascending indices into [sw_cells] *)
  sw_wall_ms : float;
}

val run :
  ?domains:int ->
  ?base:Config.t ->
  source:string ->
  entry:string ->
  args:int list ->
  grid ->
  Registry.t list ->
  sweep
(** Evaluate every grid point.  [domains] (default: up to 4, bounded by
    the machine and the point count) sets the worker-domain pool; each
    worker owns its own {!Driver.session} while compiled designs share
    the process-wide cache.  [base] (default {!Config.default}) supplies
    every non-grid knob — verify vectors, dump sinks, sim engine — so a
    sweep can, e.g., run all points under pass verification. *)

val dominates : measurement -> measurement -> bool
(** [dominates a b]: [a] is no worse on (area, cycles, period) and
    strictly better on at least one.  [false] when either side is
    missing an axis. *)

val pareto_front : cell list -> int list
(** Indices of the non-dominated cells among the oracle-verified,
    fully-measured ones, ascending; cells equal on all three axes
    collapse to the lowest index. *)

(** {1 Reporting} *)

val status_name : status -> string
(** [ok], [unverified], [infeasible], [rejected] or [failed]. *)

val count_status : sweep -> string -> int
(** Cells whose {!status_name} is the given one. *)

val verified_count : sweep -> int

val metrics : sweep -> Metrics.t
(** The [chls.explore/1] report: sweep totals, per-cell
    backend/config-digest/knobs/status/measurements, Pareto indices,
    and the driver cache counters ([driver.cache.*]) so a warm re-run's
    hits are visible in the report. *)

val table : sweep -> string list * string list list
(** A Table-1-style text table (header + rows): one row per point with
    its knobs, status, measurements and a [*] marking Pareto
    membership. *)
