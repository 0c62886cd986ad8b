(* The artifact-cache subsystem.  See cache.mli.

   Entry file format (Disk):

     chlsc-cache/1 <version> <payload-md5> <payload-len> <key-len>\n
     <key bytes><payload bytes>

   The header is one ASCII line so `head -1` on an entry is meaningful;
   everything after it is raw bytes.  A reader validates the magic, the
   store version, the key (digest-named files could collide across keys)
   and the payload checksum; any failure deletes the entry and counts as
   a miss.  Writes go to a temp file in the same directory and rename
   into place, so a concurrently reading worker only ever sees complete
   entries. *)

type counters = {
  hits : int;
  misses : int;
  puts : int;
  evictions : int;
  corrupt : int;
  version_skew : int;
  entries : int;
  bytes : int;
}

module type STORE = sig
  type t

  val name : t -> string
  val find : t -> string -> string option
  val put : t -> string -> string -> unit
  val delete : t -> string -> unit
  val clear : t -> unit
  val keys : t -> string list
  val counters : t -> counters
end

type store = Store : (module STORE with type t = 'a) * 'a -> store

let store_find (Store ((module S), s)) key = S.find s key
let store_put (Store ((module S), s)) key v = S.put s key v
let store_delete (Store ((module S), s)) key = S.delete s key
let store_clear (Store ((module S), s)) = S.clear s
let store_keys (Store ((module S), s)) = S.keys s
let store_counters (Store ((module S), s)) = S.counters s

(* --- shared LRU accounting ---

   Key recency as a list (most recent first) plus per-key payload sizes.
   Entry counts are small (designs, not blocks), so O(n) touch is fine
   and keeps the order directly testable. *)

module Lru = struct
  type t = {
    mutable order : string list; (* MRU first *)
    sizes : (string, int) Hashtbl.t;
    mutable total : int;
  }

  let create () = { order = []; sizes = Hashtbl.create 32; total = 0 }
  let mem t key = Hashtbl.mem t.sizes key

  let remove t key =
    match Hashtbl.find_opt t.sizes key with
    | None -> ()
    | Some sz ->
      Hashtbl.remove t.sizes key;
      t.total <- t.total - sz;
      t.order <- List.filter (fun k -> k <> key) t.order

  let add t key size =
    remove t key;
    Hashtbl.replace t.sizes key size;
    t.total <- t.total + size;
    t.order <- key :: t.order

  let touch t key =
    if mem t key then t.order <- key :: List.filter (fun k -> k <> key) t.order

  let lru t = match List.rev t.order with [] -> None | k :: _ -> Some k
  let keys_lru_first t = List.rev t.order

  let clear t =
    t.order <- [];
    Hashtbl.reset t.sizes;
    t.total <- 0
end

(* Mutable counter cell shared by both stores. *)
type counts = {
  mutable c_hits : int;
  mutable c_misses : int;
  mutable c_puts : int;
  mutable c_evictions : int;
  mutable c_corrupt : int;
  mutable c_skew : int;
}

let fresh_counts () =
  { c_hits = 0; c_misses = 0; c_puts = 0; c_evictions = 0; c_corrupt = 0;
    c_skew = 0 }

let snapshot c ~entries ~bytes =
  { hits = c.c_hits;
    misses = c.c_misses;
    puts = c.c_puts;
    evictions = c.c_evictions;
    corrupt = c.c_corrupt;
    version_skew = c.c_skew;
    entries;
    bytes }

(* --- the in-memory byte store --- *)

module Memory = struct
  type t = {
    table : (string, string) Hashtbl.t;
    lru : Lru.t;
    max_bytes : int option;
    counts : counts;
    lock : Mutex.t;
  }

  let create ?max_bytes () =
    { table = Hashtbl.create 64;
      lru = Lru.create ();
      max_bytes;
      counts = fresh_counts ();
      lock = Mutex.create () }

  let locked t f =
    Mutex.lock t.lock;
    Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

  let name _ = "memory"

  let find t key =
    locked t (fun () ->
        match Hashtbl.find_opt t.table key with
        | Some v ->
          t.counts.c_hits <- t.counts.c_hits + 1;
          Lru.touch t.lru key;
          Some v
        | None ->
          t.counts.c_misses <- t.counts.c_misses + 1;
          None)

  let evict_to_fit t =
    match t.max_bytes with
    | None -> ()
    | Some budget ->
      let rec go () =
        if t.lru.Lru.total > budget then
          match Lru.lru t.lru with
          | None -> ()
          | Some victim ->
            Hashtbl.remove t.table victim;
            Lru.remove t.lru victim;
            t.counts.c_evictions <- t.counts.c_evictions + 1;
            go ()
      in
      go ()

  let put t key v =
    locked t (fun () ->
        Hashtbl.replace t.table key v;
        Lru.add t.lru key (String.length v);
        t.counts.c_puts <- t.counts.c_puts + 1;
        evict_to_fit t)

  let delete t key =
    locked t (fun () ->
        Hashtbl.remove t.table key;
        Lru.remove t.lru key)

  let clear t =
    locked t (fun () ->
        Hashtbl.reset t.table;
        Lru.clear t.lru)

  let keys t = locked t (fun () -> Lru.keys_lru_first t.lru)

  let counters t =
    locked t (fun () ->
        snapshot t.counts ~entries:(Hashtbl.length t.table)
          ~bytes:t.lru.Lru.total)

  let store t = Store ((module struct
    type nonrec t = t

    let name = name
    let find = find
    let put = put
    let delete = delete
    let clear = clear
    let keys = keys
    let counters = counters
  end), t)
end

(* --- the persistent on-disk byte store --- *)

module Disk = struct
  let magic = "chlsc-cache/1"
  let default_max_bytes = 256 * 1024 * 1024

  (* Marshal is untyped: bytes written by a build whose types differ
     would decode to garbage, so the executable digest is the store
     version: any rebuild invalidates (degrades to a miss), never
     crashes. *)
  let default_version =
    let v = lazy (
      match Digest.to_hex (Digest.file Sys.executable_name) with
      | d -> d
      | exception _ -> "unversioned")
    in
    fun () -> Lazy.force v

  type t = {
    dir : string;
    version : string;
    max_bytes : int;
    lru : Lru.t;
    counts : counts;
    lock : Mutex.t;
  }

  let dir t = t.dir
  let name _ = "disk"

  let entry_file t key = Filename.concat t.dir (Digest.to_hex (Digest.string key) ^ ".entry")

  let header ~version ~payload ~key =
    Printf.sprintf "%s %s %s %d %d\n" magic version
      (Digest.to_hex (Digest.string payload))
      (String.length payload) (String.length key)

  (* Read and fully validate one entry file.  [`Corrupt] covers every
     malformed shape; [`Skew] is a well-formed entry from another store
     version. *)
  let read_entry ~version path =
    match In_channel.with_open_bin path In_channel.input_all with
    | exception _ -> `Corrupt
    | contents -> (
      match String.index_opt contents '\n' with
      | None -> `Corrupt
      | Some nl -> (
        let head = String.sub contents 0 nl in
        match String.split_on_char ' ' head with
        | [ m; v; md5; plen; klen ] -> (
          match (int_of_string_opt plen, int_of_string_opt klen) with
          | Some plen, Some klen ->
            if m <> magic then `Corrupt
            else if v <> version then `Skew
            else if String.length contents <> nl + 1 + klen + plen then
              `Corrupt
            else
              let key = String.sub contents (nl + 1) klen in
              let payload = String.sub contents (nl + 1 + klen) plen in
              if Digest.to_hex (Digest.string payload) <> md5 then `Corrupt
              else `Entry (key, payload)
          | _ -> `Corrupt)
        | _ -> `Corrupt))

  let try_remove path = try Sys.remove path with _ -> ()

  let open_dir ?(max_bytes = default_max_bytes) ?version dir =
    let version =
      match version with Some v -> v | None -> default_version ()
    in
    let rec mkdirs d =
      if d <> "" && d <> "/" && d <> "." && not (Sys.file_exists d) then begin
        mkdirs (Filename.dirname d);
        try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
      end
    in
    match
      mkdirs dir;
      Sys.readdir dir
    with
    | exception e ->
      Error
        (Printf.sprintf "cache dir %s: %s" dir (Printexc.to_string e))
    | files ->
      let t =
        { dir; version; max_bytes; lru = Lru.create ();
          counts = fresh_counts (); lock = Mutex.create () }
      in
      (* index resident entries, oldest mtime first so the initial
         recency order survives restarts; skewed or invalid entries are
         dead weight — delete and count them *)
      let entries =
        Array.to_list files
        |> List.filter (fun f -> Filename.check_suffix f ".entry")
        |> List.filter_map (fun f ->
               let path = Filename.concat dir f in
               match Unix.stat path with
               | { Unix.st_mtime; _ } -> Some (path, st_mtime)
               | exception _ -> None)
        |> List.sort (fun (_, a) (_, b) -> compare (a : float) b)
      in
      List.iter
        (fun (path, _) ->
          match read_entry ~version path with
          | `Entry (key, payload) -> Lru.add t.lru key (String.length payload)
          | `Skew ->
            t.counts.c_skew <- t.counts.c_skew + 1;
            try_remove path
          | `Corrupt ->
            t.counts.c_corrupt <- t.counts.c_corrupt + 1;
            try_remove path)
        entries;
      Ok t

  let locked t f =
    Mutex.lock t.lock;
    Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

  let touch_mtime path =
    (* best-effort: cross-process restarts rebuild recency from mtimes *)
    try Unix.utimes path 0. 0. with _ -> ()

  let evict_to_fit t =
    let rec go () =
      if t.lru.Lru.total > t.max_bytes then
        match Lru.lru t.lru with
        | None -> ()
        | Some victim ->
          try_remove (entry_file t victim);
          Lru.remove t.lru victim;
          t.counts.c_evictions <- t.counts.c_evictions + 1;
          go ()
    in
    go ()

  let find t key =
    locked t (fun () ->
        let path = entry_file t key in
        (* probe the file even on an index miss: another worker sharing
           the directory may have written the entry after we opened *)
        if (not (Lru.mem t.lru key)) && not (Sys.file_exists path) then begin
          t.counts.c_misses <- t.counts.c_misses + 1;
          None
        end
        else
          match read_entry ~version:t.version path with
          | `Entry (k, payload) when k = key ->
            t.counts.c_hits <- t.counts.c_hits + 1;
            Lru.add t.lru key (String.length payload);
            Lru.touch t.lru key;
            touch_mtime path;
            Some payload
          | `Entry _ (* digest collision with a different key *) | `Corrupt ->
            t.counts.c_corrupt <- t.counts.c_corrupt + 1;
            t.counts.c_misses <- t.counts.c_misses + 1;
            try_remove path;
            Lru.remove t.lru key;
            None
          | `Skew ->
            t.counts.c_skew <- t.counts.c_skew + 1;
            t.counts.c_misses <- t.counts.c_misses + 1;
            try_remove path;
            Lru.remove t.lru key;
            None)

  let put t key payload =
    locked t (fun () ->
        let path = entry_file t key in
        let tmp =
          Printf.sprintf "%s.tmp.%d" path (Unix.getpid ())
        in
        let ok =
          try
            Out_channel.with_open_bin tmp (fun oc ->
                output_string oc (header ~version:t.version ~payload ~key);
                output_string oc key;
                output_string oc payload);
            Sys.rename tmp path;
            true
          with _ ->
            try_remove tmp;
            false
        in
        if ok then begin
          Lru.add t.lru key (String.length payload);
          t.counts.c_puts <- t.counts.c_puts + 1;
          evict_to_fit t
        end)

  let delete t key =
    locked t (fun () ->
        try_remove (entry_file t key);
        Lru.remove t.lru key)

  let clear t =
    locked t (fun () ->
        List.iter
          (fun key -> try_remove (entry_file t key))
          (Lru.keys_lru_first t.lru);
        Lru.clear t.lru)

  let keys t = locked t (fun () -> Lru.keys_lru_first t.lru)

  let counters t =
    locked t (fun () ->
        snapshot t.counts
          ~entries:(List.length t.lru.Lru.order)
          ~bytes:t.lru.Lru.total)

  let store t = Store ((module struct
    type nonrec t = t

    let name = name
    let find = find
    let put = put
    let delete = delete
    let clear = clear
    let keys = keys
    let counters = counters
  end), t)
end

(* --- the decoded front cache --- *)

type 'a t = {
  f_name : string;
  encode : 'a -> string option;
  decode : string -> 'a option;
  front : (string, 'a) Hashtbl.t;
  mutable backing : store option;
  mutable undecodable : int;
  mutable f_hits : int;
  mutable f_misses : int;
  lock : Mutex.t;
}

let create ~name ~encode ~decode ?store () =
  { f_name = name;
    encode;
    decode;
    front = Hashtbl.create 64;
    backing = store;
    undecodable = 0;
    f_hits = 0;
    f_misses = 0;
    lock = Mutex.create () }

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let set_store t s = locked t (fun () -> t.backing <- s)
let store t = locked t (fun () -> t.backing)
let size t = locked t (fun () -> Hashtbl.length t.front)
let decode_failures t = locked t (fun () -> t.undecodable)
let clear t = locked t (fun () -> Hashtbl.reset t.front)

let front_hits t = locked t (fun () -> t.f_hits)
let front_misses t = locked t (fun () -> t.f_misses)

let find t key =
  locked t (fun () ->
      match Hashtbl.find_opt t.front key with
      | Some v ->
        t.f_hits <- t.f_hits + 1;
        Some (v, `Front)
      | None -> (
        t.f_misses <- t.f_misses + 1;
        match t.backing with
        | None -> None
        | Some s -> (
          match store_find s key with
          | None -> None
          | Some payload -> (
            match t.decode payload with
            | Some v ->
              Hashtbl.replace t.front key v;
              Some (v, `Store)
            | None ->
              (* validated bytes the codec cannot revive: drop the entry
                 so it never costs another decode attempt *)
              t.undecodable <- t.undecodable + 1;
              store_delete s key;
              None))))

let add t key v =
  locked t (fun () ->
      Hashtbl.replace t.front key v;
      match t.backing with
      | None -> ()
      | Some s -> (
        match t.encode v with
        | Some payload -> store_put s key payload
        | None -> ()))
