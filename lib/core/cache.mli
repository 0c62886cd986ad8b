(** Cache: the design cache behind the compile driver.

    Compiled designs live in a front table of live {!Design.t} values
    ({!t}), over an optional cache directory ({!store}) that makes them
    survive restarts and lets co-operating workers share them.

    - {!store}: one digest-named file per entry under the cache
      directory, every entry versioned and checksummed so corruption,
      truncation or version skew (a different binary wrote it) degrades
      to a miss instead of an error, with LRU eviction by byte budget
      and atomic (write-temp-then-rename) puts so concurrent workers can
      share one directory;
    - {!t}: the table the driver talks to.  A front miss revives the
      design from the attached store; an added design is written through
      to it.

    A stored design is its {!Design.data} (plain data, no closures)
    encoded with [Marshal], and {!Design.of_data} revives it.  [Marshal]
    is untyped, which is why the entry version pins the binary identity.

    Every operation is mutex-guarded, so one cache can back a whole
    Domain pool ([chlsc serve]). *)

(** {1 The cache directory} *)

type counters = {
  hits : int;
  misses : int;
  puts : int;
  evictions : int;  (** entries dropped to fit the byte budget *)
  corrupt : int;
      (** checksum / truncation / malformed-header failures, each
          degraded to a miss (the entry is deleted) *)
  version_skew : int;
      (** entries written under a different store version (for the
          default version: by a different binary), dropped at open *)
  entries : int;
  bytes : int;  (** payload bytes currently resident *)
}

type store

val open_store :
  ?max_bytes:int -> ?version:string -> string -> (store, string) result
(** Open (creating if needed) a cache directory and index its entries.
    Entries written under a different [version] (default: the running
    executable's digest) or failing validation are deleted and counted
    ([version_skew] / [corrupt]).  Default [max_bytes]: 256 MiB.
    [Error message] only when the directory cannot be created or
    listed. *)

val store_dir : store -> string

val store_find : store -> string -> string option
(** [None] on miss — including every degraded failure mode, and an
    entry whose file another handle removed (a plain miss that drops the
    key from this handle's index). *)

val store_put : store -> string -> string -> unit
val store_clear : store -> unit

val store_keys : store -> string list
(** Resident keys in LRU order, least recently used first. *)

val store_counters : store -> counters

(** {1 The design table} *)

type t

val create : unit -> t
(** An empty table with no store attached. *)

val set_store : t -> store option -> unit
val store : t -> store option

val find : t -> string -> (Design.t * [ `Front | `Store ]) option
(** Where the hit came from: [`Front] is the in-process table, [`Store]
    was revived from the cache directory (and is now front-resident). *)

val add : t -> string -> Design.t -> unit
(** Insert into the front table and, when a store is attached, write
    the encoded design through. *)

val size : t -> int
(** Designs currently front-resident. *)

val decode_failures : t -> int
(** Store payloads that validated at the byte level but were no design
    (each deleted and degraded to a miss). *)

val front_hits : t -> int
(** Lookups answered from the front table. *)

val front_misses : t -> int
(** Lookups that fell past the front table — whether or not the store
    then revived them.  [front_hits + front_misses] is the total lookup
    count, which is how derived hit rates are computed. *)

val clear : t -> unit
(** Drop the front table only — the store keeps its entries
    (benchmarks use this to simulate a restart). *)
