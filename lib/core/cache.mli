(** Cache: the artifact-cache subsystem behind the compile driver.

    PR 5's driver memoized designs in an ad-hoc [Hashtbl] that died with
    the process.  This module makes the cache an explicit subsystem with
    a pluggable byte-store interface:

    - {!Memory}: the in-process store — a byte table with optional LRU
      eviction by byte budget (also the reference implementation of
      {!STORE} for tests);
    - {!Disk}: the persistent store — one digest-named file per entry
      under a cache directory, every entry versioned and checksummed so
      corruption, truncation or version skew (a different binary wrote
      it) degrades to a miss instead of an error, with LRU eviction by
      byte budget and atomic (write-temp-then-rename) puts so concurrent
      workers can share one directory;
    - {!t}: the decoded front cache the driver actually talks to — a
      table of live values backed by an optional byte store through an
      [encode]/[decode] codec (for designs: [Marshal] of plain data;
      [Marshal] is untyped, which is why the entry version pins the
      binary identity).

    Every operation is mutex-guarded, so one cache can back a whole
    Domain pool ([chlsc serve]). *)

(** {1 Byte stores} *)

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
          default disk version: by a different binary), dropped at open *)
  entries : int;
  bytes : int;  (** payload bytes currently resident *)
}

module type STORE = sig
  type t

  val name : t -> string
  val find : t -> string -> string option
  (** [None] on miss — including every degraded failure mode. *)

  val put : t -> string -> string -> unit
  val delete : t -> string -> unit
  val clear : t -> unit

  val keys : t -> string list
  (** Resident keys in LRU order, least recently used first. *)

  val counters : t -> counters
end

type store = Store : (module STORE with type t = 'a) * 'a -> store
(** A packed store: what {!t} and the driver plug in. *)

val store_find : store -> string -> string option
val store_put : store -> string -> string -> unit
val store_clear : store -> unit
val store_keys : store -> string list
val store_counters : store -> counters

module Memory : sig
  type t

  val create : ?max_bytes:int -> unit -> t
  (** No [max_bytes]: unbounded (the pre-PR-7 behaviour). *)

  val store : t -> store
end

module Disk : sig
  type t

  val open_dir :
    ?max_bytes:int -> ?version:string -> string -> (t, string) result
  (** Open (creating if needed) a cache directory and index its entries.
      Entries written under a different [version] (default: the running
      executable's digest) or failing validation are deleted and counted
      ([version_skew] / [corrupt]).  Default [max_bytes]: 256 MiB.
      [Error message] only when the directory cannot be created or
      listed. *)

  val store : t -> store
  val dir : t -> string
end

(** {1 The decoded front cache} *)

type 'a t

val create :
  name:string ->
  encode:('a -> string option) ->
  decode:(string -> 'a option) ->
  ?store:store ->
  unit ->
  'a t
(** A front cache of decoded values over an optional byte store.  The
    codec is total-by-construction: [encode] returning [None] keeps the
    value front-only; [decode] returning [None] deletes the undecodable
    entry and degrades to a miss. *)

val set_store : 'a t -> store option -> unit
val store : 'a t -> store option

val find : 'a t -> string -> ('a * [ `Front | `Store ]) option
(** Where the hit came from: [`Front] is the in-process decoded table,
    [`Store] was revived from the byte store (and is now front-resident). *)

val add : 'a t -> string -> 'a -> unit
(** Insert into the front table and (when the codec and a store allow)
    write through. *)

val size : 'a t -> int
(** Decoded values currently front-resident. *)

val decode_failures : 'a t -> int
(** Store payloads that validated at the byte level but failed [decode]
    (each deleted and degraded to a miss). *)

val front_hits : 'a t -> int
(** Lookups answered from the decoded front table. *)

val front_misses : 'a t -> int
(** Lookups that fell past the front table — whether or not the byte
    store then revived them.  [front_hits + front_misses] is the total
    lookup count, which is how derived hit rates are computed. *)

val clear : 'a t -> unit
(** Drop the decoded front table only — the byte store keeps its
    entries (benchmarks use this to simulate a restart). *)
