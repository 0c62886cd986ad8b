(* The design cache.  See cache.mli.

   Entry file format:

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

(* --- LRU accounting ---

   Key recency as a list (most recent first) plus per-key payload sizes.
   Entry counts are small (designs, not blocks), so an O(n) re-add on
   every hit is fine and keeps the order directly testable. *)

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

  let lru t = match List.rev t.order with [] -> None | k :: _ -> Some k
  let keys_lru_first t = List.rev t.order

  let clear t =
    t.order <- [];
    Hashtbl.reset t.sizes;
    t.total <- 0
end

(* --- the directory store --- *)

let magic = "chlsc-cache/1"
let default_max_bytes = 256 * 1024 * 1024

(* The encoding: a design's data part (plain data, no closures) through
   Marshal, revived by Design.of_data, which rebuilds the simulation
   engines and structural views.  Marshal is untyped: bytes written by a
   build whose types differ would decode to garbage, so the executable
   digest is the store version: any rebuild invalidates (degrades to a
   miss), never crashes. *)
let encode d = Marshal.to_string (Design.data d : Design.data) []
let decode payload = Design.of_data (Marshal.from_string payload 0 : Design.data)

let default_version =
  lazy (try Digest.to_hex (Digest.file Sys.executable_name) with _ -> "unversioned")

type store = {
  dir : string;
  version : string;
  max_bytes : int;
  lru : Lru.t;
  mutable hits : int;
  mutable misses : int;
  mutable puts : int;
  mutable evictions : int;
  mutable corrupt : int;
  mutable skew : int;
  lock : Mutex.t;
}

let store_dir s = s.dir

let entry_file s key = Filename.concat s.dir (Digest.to_hex (Digest.string key) ^ ".entry")

let header ~version ~payload ~key =
  Printf.sprintf "%s %s %s %d %d\n" magic version
    (Digest.to_hex (Digest.string payload))
    (String.length payload) (String.length key)

(* Read and fully validate one entry file.  [`Missing] is a file another
   handle removed (a clear or an eviction); [`Corrupt] covers every
   malformed or unreadable shape; [`Skew] is a well-formed entry from
   another store version. *)
let read_entry ~version path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception _ when not (Sys.file_exists path) -> `Missing
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

let open_store ?(max_bytes = default_max_bytes) ?version dir =
  let version =
    match version with Some v -> v | None -> Lazy.force default_version
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
    let s =
      { dir; version; max_bytes; lru = Lru.create (); hits = 0; misses = 0;
        puts = 0; evictions = 0; corrupt = 0; skew = 0;
        lock = Mutex.create () }
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
        | `Entry (key, payload) -> Lru.add s.lru key (String.length payload)
        | `Missing -> ()
        | `Skew ->
          s.skew <- s.skew + 1;
          try_remove path
        | `Corrupt ->
          s.corrupt <- s.corrupt + 1;
          try_remove path)
      entries;
    Ok s

let locked lock f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let touch_mtime path =
  (* best-effort: cross-process restarts rebuild recency from mtimes *)
  try Unix.utimes path 0. 0. with _ -> ()

let evict_to_fit s =
  let rec go () =
    if s.lru.Lru.total > s.max_bytes then
      match Lru.lru s.lru with
      | None -> ()
      | Some victim ->
        try_remove (entry_file s victim);
        Lru.remove s.lru victim;
        s.evictions <- s.evictions + 1;
        go ()
  in
  go ()

let store_find s key =
  locked s.lock (fun () ->
      let path = entry_file s key in
      let miss () =
        s.misses <- s.misses + 1;
        Lru.remove s.lru key;
        None
      in
      (* probe the file even on an index miss: another worker sharing
         the directory may have written the entry after we opened *)
      if (not (Lru.mem s.lru key)) && not (Sys.file_exists path) then miss ()
      else
        match read_entry ~version:s.version path with
        | `Entry (k, payload) when k = key ->
          s.hits <- s.hits + 1;
          Lru.add s.lru key (String.length payload);
          touch_mtime path;
          Some payload
        | `Missing -> miss ()
        | `Entry _ (* digest collision with a different key *) | `Corrupt ->
          s.corrupt <- s.corrupt + 1;
          try_remove path;
          miss ()
        | `Skew ->
          s.skew <- s.skew + 1;
          try_remove path;
          miss ())

let store_put s key payload =
  locked s.lock (fun () ->
      let path = entry_file s key in
      let tmp =
        Printf.sprintf "%s.tmp.%d" path (Unix.getpid ())
      in
      let ok =
        try
          Out_channel.with_open_bin tmp (fun oc ->
              output_string oc (header ~version:s.version ~payload ~key);
              output_string oc key;
              output_string oc payload);
          Sys.rename tmp path;
          true
        with _ ->
          try_remove tmp;
          false
      in
      if ok then begin
        Lru.add s.lru key (String.length payload);
        s.puts <- s.puts + 1;
        evict_to_fit s
      end)

let store_delete s key =
  locked s.lock (fun () ->
      try_remove (entry_file s key);
      Lru.remove s.lru key)

let store_clear s =
  locked s.lock (fun () ->
      List.iter
        (fun key -> try_remove (entry_file s key))
        (Lru.keys_lru_first s.lru);
      Lru.clear s.lru)

let store_keys s = locked s.lock (fun () -> Lru.keys_lru_first s.lru)

let store_counters s =
  locked s.lock (fun () ->
      { hits = s.hits;
        misses = s.misses;
        puts = s.puts;
        evictions = s.evictions;
        corrupt = s.corrupt;
        version_skew = s.skew;
        entries = List.length s.lru.Lru.order;
        bytes = s.lru.Lru.total })

(* --- the design table --- *)

type t = {
  front : (string, Design.t) Hashtbl.t;
  mutable backing : store option;
  mutable undecodable : int;
  mutable f_hits : int;
  mutable f_misses : int;
  lock : Mutex.t;
}

let create () =
  { front = Hashtbl.create 64;
    backing = None;
    undecodable = 0;
    f_hits = 0;
    f_misses = 0;
    lock = Mutex.create () }

let set_store t s = locked t.lock (fun () -> t.backing <- s)
let store t = locked t.lock (fun () -> t.backing)
let size t = locked t.lock (fun () -> Hashtbl.length t.front)
let decode_failures t = locked t.lock (fun () -> t.undecodable)
let clear t = locked t.lock (fun () -> Hashtbl.reset t.front)

let front_hits t = locked t.lock (fun () -> t.f_hits)
let front_misses t = locked t.lock (fun () -> t.f_misses)

let find t key =
  locked t.lock (fun () ->
      match Hashtbl.find_opt t.front key with
      | Some d ->
        t.f_hits <- t.f_hits + 1;
        Some (d, `Front)
      | None -> (
        t.f_misses <- t.f_misses + 1;
        match t.backing with
        | None -> None
        | Some s -> (
          match store_find s key with
          | None -> None
          | Some payload -> (
            match decode payload with
            | d ->
              Hashtbl.replace t.front key d;
              Some (d, `Store)
            | exception _ ->
              (* validated bytes that are no design: drop the entry so
                 it never costs another decode attempt *)
              t.undecodable <- t.undecodable + 1;
              store_delete s key;
              None))))

let add t key d =
  locked t.lock (fun () ->
      Hashtbl.replace t.front key d;
      match t.backing with
      | None -> ()
      | Some s -> (
        match encode d with
        | payload -> store_put s key payload
        | exception _ -> ()))
