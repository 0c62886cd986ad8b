(** The compilation driver: parse once, compile many, cache by content.

    The paper's argument is comparative — the same C program pushed
    through many surveyed compilers — and before this module every
    consumer re-parsed and re-typechecked the source once per backend.  A
    {!session} owns one source: the frontend runs exactly once (memoized,
    timed), every backend compiles through {!compile} which memoizes the
    resulting {!Design.t} in a process-wide artifact cache keyed by a
    content hash of (source digest, backend, entry, {!Config.digest}),
    and {!compile_all} runs dialect legality first and returns
    per-backend accept/reject values instead of raising.

    Per-stage timings and cache activity land in the session's
    {!Metrics.t} registry ([driver.frontend_ms],
    [driver.compile.<backend>_ms], [driver.cache.hits/misses]), which
    [chlsc compare --metrics-json] and [BENCH_driver.json] render.  The
    oracle counts apart from the caches: [driver.oracle.runs] interpreter
    runs and [driver.oracle.memo_hits] answers from {!reference}'s
    memo. *)

type session

val create : ?entry:string -> string -> session
(** A session over a source string; [entry] defaults to ["main"].  The
    frontend has not run yet — it runs (once) on first demand.  The
    session's memos take no lock: a session belongs to one domain
    (serve keeps a session table per worker, explore a session per
    worker domain). *)

val entry : session -> string

val source_digest : session -> string
(** Hex content digest of the source — the frontend half of the cache
    key. *)

val metrics : session -> Metrics.t
(** The session's live metrics registry (timings, cache counters). *)

val config_digest : session -> Config.t -> string
(** {!Config.digest} of the config, as the session's design keys use
    it.  A config is digested once per value: {!Config.default}'s once
    per process, any other config when the session first meets that
    value (the session keeps the last one, compared by address).  So a
    serve request's compile and its [config_digest] echo, and a
    compare's backends, share one digest. *)

(** {1 Typed rejection} *)

(** Why the reference interpreter gave no answer. *)
type oracle_failure =
  | Timeout  (** the step budget ran out *)
  | Deadlock  (** no thread can make progress *)
  | Void_entry  (** the entry returned no value *)
  | Runtime_error of string  (** a wild pointer, an out-of-bounds index... *)
  | Internal_error of string * Ast.loc
      (** an invariant the frontend should have established *)

type error =
  | Frontend_error of { message : string; loc : Ast.loc }
      (** parse or typecheck failure — poisons the whole session *)
  | No_c_frontend of { backend : string }
      (** structural EDSL (Ocapi): there is no C source to compile *)
  | Dialect_reject of { backend : string;
                        violations : Dialect.violation list }
      (** the dialect's published restrictions reject the program *)
  | Backend_error of { backend : string; message : string; loc : Ast.loc }
      (** the backend failed mid-compile (lowering, concurrency check,
          unsatisfiable constraints...) *)
  | Verification_error of { backend : string; message : string }
      (** a semantics-preserving pass diverged under the config's
          [verify] vectors *)
  | Constraint_infeasible of { backend : string; message : string }
      (** no allocation meets the program's timing constraints
          (HardwareC's [constrain] walk exhausted the lattice) — a
          property of the design point, not a failure; explore sweeps
          render these as typed [infeasible] cells *)
  | Arity_mismatch of { entry : string; expected : int; given : int }
      (** an argument vector — a run's, or one of the config's [verify]
          vectors — whose length is not the entry's parameter count;
          refused before any pass check, simulator or oracle runs *)
  | Oracle_error of oracle_failure
      (** {!reference} gave no answer *)

val error_kind : error -> string
(** The error's one name on every surface — [frontend-error],
    [no-c-frontend], [dialect-reject], [backend-error],
    [verification-error], [constraint-infeasible], [arity-mismatch], and
    [oracle-timeout], [oracle-deadlock], [oracle-void-entry],
    [oracle-runtime-error], [oracle-internal-error]: serve's error
    [kind], a compare row's [status], fuzz's failure class. *)

val render_error : ?file:string -> error -> string
(** One-line diagnostic; locations render as [file:line:col] when a file
    name is given and the location is known.  An {!Oracle_error} renders
    as an error of backend ["reference"]. *)

(** {1 Compiling} *)

val program : ?ctx:Span.ctx -> session -> (Ast.program, error) result
(** The parsed, type-checked program.  Runs the frontend on first call
    (recording [driver.frontend_ms]); later calls are cache hits.
    Under a span context, every call opens a ["frontend"] span whose
    [memo] attribute says whether the session memo answered. *)

val compile :
  ?ctx:Span.ctx -> ?config:Config.t -> session -> Registry.t ->
  (Design.t, error) result
(** Compile through one backend: dialect legality first, then the
    content-hashed design cache, then the backend itself (under
    [config]'s knobs, default {!Config.default}) with every backend
    exception converted to a typed {!error}.  Never raises on bad
    input; a repeated call with identical (source, backend, entry,
    config digest) is a cache hit returning the same design, and two
    calls differing only in config compile and cache independently.  A
    [verify] vector of the wrong length is an {!Arity_mismatch}, before
    the dialect check.

    Under a span context the stages become spans: ["frontend"],
    ["dialect-check"], and a ["backend"] span whose [cache] attribute
    records provenance ([front]/[store]/[miss]); a fresh compile
    additionally replays its {!Passes} trace as one ["pass:<name>"]
    child span per declared pass, reusing the engine's own timings and
    IR-size deltas as attributes. *)

val compile_all :
  ?ctx:Span.ctx -> ?config:Config.t -> ?backends:Registry.t list -> session ->
  (Registry.t * (Design.t, error) result) list
(** {!compile} across [backends] — the frontend runs once, each backend
    gets its own accept/reject verdict.  Verdict order is contractual:
    exactly the order of [backends], defaulting to registry declaration
    (Table 1) order — never the iteration order of any hash table — so
    compare tables, metrics reports and the serve protocol are
    byte-stable across runs. *)

val reference : ?ctx:Span.ctx -> session -> args:int list -> (int, error) result
(** The software oracle on the session's (already parsed) program — the
    frontend is amortized here too.  A vector of the wrong length is an
    {!Arity_mismatch}, and no interpreter runs; runtime errors, timeouts,
    deadlocks and void entries are typed {!Oracle_error}s.

    The interpreter runs under {!Interp.run}'s fixed budget of 10M
    steps, so its answer depends only on (source, entry, args); the
    session fixes the first two and memoises answers keyed by the
    argument vector.  Errors are memoised too: a vector that timed out
    answers its second ask at once, with the same error.  The memo holds
    at most {!oracle_memo_cap} vectors and is emptied when full.  Each
    call counts one [driver.oracle.runs] or one
    [driver.oracle.memo_hits].  Under a span context every call, memo
    hit or not, is an ["oracle"] span whose [memo] attribute says
    which. *)

val oracle_memo_cap : int
(** 64: the most argument vectors one session's oracle memo holds. *)

(** {1 One verdict}

    Whether a run computed what the interpreter computes is judged here
    only; chlsc, the serve handlers, explore, fuzz and the examples
    render verdicts.  A {!Design.Stopped} run is the verdict's [Error]
    run, never an exception. *)

type verdict = {
  vector : int list;
  run : (Design.run_result, Design.stop) result;
  oracle : (int, error) result option;
      (** [None] when the run stopped before {!check} asked the oracle *)
  agrees : bool;  (** the run completed with the oracle's answer *)
}

val observed : verdict -> int option
(** The run's result; [None] for a stop or a void result. *)

val agree : verdict list -> bool
(** At least one verdict, and every one agrees. *)

val judge :
  ?ctx:Span.ctx -> ?vcd:Vcd.t -> ?sim:Design.engine -> Design.t ->
  args:int list -> oracle:(int, error) result -> verdict
(** Run one design on one vector (in {!Design.run_traced}'s
    ["simulate"] span) against an oracle answer the caller holds. *)

val check :
  ?ctx:Span.ctx -> ?vcd:Vcd.t -> ?sim:Design.engine -> session ->
  Design.t -> args:int list -> (verdict, error) result
(** {!judge} against {!reference}, asked only once the run completed.
    A vector of the wrong length is an {!Arity_mismatch}: nothing runs
    and no ["simulate"] span opens. *)

val compare :
  ?ctx:Span.ctx -> ?config:Config.t -> ?backends:Registry.t list ->
  session -> vectors:int list list ->
  ((Registry.t * (Design.t * verdict list, error) result) list, error) result
(** {!program} (an [Error] poisons the table, as does a vector of the
    wrong length), {!reference} once per vector, {!compile_all}, then
    every accepted design judged on every vector under [config]'s
    engine. *)

val engine_mismatches : Design.t -> args:int list -> string list option
(** The surfaces — ["result"], ["globals"], ["memories"], ["cycles"] (or
    ["stop"]) and the ["vcd"] change stream — on which the compiled
    engine and the event-driven one differ for one vector; [Some []]
    when they are bit-identical.  [None] when the cross-check does not
    apply: the compiled run's own ["sim.engine"] says no compiled engine
    ran it (CASH, the statement machine, a design above 62 bits,
    C2Verilog arguments that do not fit), so only the oracle ran.  A run
    that stops records no engine; its stop is compared with the
    event-driven run's. *)

(** {2 Rendering}

    The one answer vocabulary: serve's [compile] and [compare] responses
    and [chlsc compile]/[compare --metrics-json] render verdicts through
    these, each adding only its own extras. *)

val run_members : verdict -> (string * Metrics.json) list
(** [status] ([ok], or the stop reason), then a fault's message as
    [detail] and a stop's progress ([cycles]/[state] or
    [tokens_fired]/[time_units]), or a completed
    run's [result] ([null] when void), [cycles] and [time_units], then
    [matches_reference] — or [reference_error] when the oracle itself
    failed; neither when no oracle was asked. *)

val compare_row :
  (Design.t * verdict list, error) result -> (string * Metrics.json) list
(** One backend's row of a {!compare} table: [status] ({!error_kind},
    or [ok]), then the rendered error as [detail], or [results] (one
    per vector, [null] for a stop or a void result) and, when there
    were vectors, [agrees]. *)

val mismatch :
  (Registry.t * (Design.t * verdict list, error) result) list -> bool
(** Some accepted backend ran vectors and did not {!agree} on all of
    them; rejections never count. *)

(** {1 The process-wide artifact cache}

    The driver's memo is a {!Cache.t}: an in-process front tier (always
    on) over an optional cache directory ({!Cache.store}).  Attaching
    one makes warm-cache state survive restarts — {!Cache} encodes each
    design's data part, versions entries by executable digest and
    checksums them, and every failure mode degrades to a miss plus a
    recompile. *)

val cache_size : unit -> int
(** Designs currently memoized in the front tier. *)

val clear_cache : unit -> unit
(** Drop every front-tier design (benchmarks use this to measure cold
    compiles and to simulate restarts; sessions keep their frontend
    memo).  An attached cache directory keeps its entries. *)

val attach_disk_cache :
  ?max_bytes:int -> dir:string -> unit -> (Cache.store, string) result
(** Open (creating if needed) a cache directory under [dir] and attach
    it behind the front tier.  [Error message] if the directory is
    unusable — the caller decides whether that is fatal. *)

val set_cache_store : Cache.store option -> unit
(** Attach an open cache directory behind the front tier, or detach it
    with [None]. *)

val cache_store : unit -> Cache.store option

val cache_metrics : unit -> (string * int) list
(** Cache-subsystem gauges and counters ([driver.cache.front_entries],
    [driver.cache.front_hits/front_misses],
    [driver.store.hits/misses/puts/evictions/corrupt/version_skew/...])
    for metrics reports and [chlsc cache stats]. *)

val cache_hit_rates : unit -> (string * float) list
(** Derived hit-rate percentages — [driver.cache.front_hit_rate_pct]
    over the front tier, [driver.store.hit_rate_pct] over the cache
    directory — each present only once that tier has seen at least one
    lookup, so a fresh process reports nothing rather than 0%. *)
