(* The cache subsystem: LRU accounting in the Memory store, and the Disk
   store's whole failure-mode contract — round trips, persistence across
   handles (a simulated restart), corruption and truncation degrading to
   a miss, version skew dropped at open, byte-budget eviction — plus the
   driver plumbed over a persistent store. *)

let fresh_dir =
  let n = ref 0 in
  fun label ->
    incr n;
    let dir =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "chlsc-cache-test-%d-%s-%d" (Unix.getpid ()) label !n)
    in
    (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    Array.iter
      (fun f -> Sys.remove (Filename.concat dir f))
      (Sys.readdir dir);
    dir

let disk ?max_bytes ?version label =
  match Cache.Disk.open_dir ?max_bytes ?version (fresh_dir label) with
  | Ok d -> d
  | Error msg -> Alcotest.fail msg

let reopen ?max_bytes ?version d =
  match Cache.Disk.open_dir ?max_bytes ?version (Cache.Disk.dir d) with
  | Ok d -> d
  | Error msg -> Alcotest.fail msg

(* the one entry file a key lives in (the store's naming scheme: entries
   are digest-named so keys can hold any byte) *)
let entry_path d key =
  Filename.concat (Cache.Disk.dir d)
    (Digest.to_hex (Digest.string key) ^ ".entry")

(* --- Memory --- *)

let test_memory_lru_eviction_order () =
  let m = Cache.Memory.create ~max_bytes:10 () in
  let s = Cache.Memory.store m in
  Cache.store_put s "a" "1234";
  Cache.store_put s "b" "5678";
  (* touch "a": it becomes most recently used *)
  Alcotest.(check (option string)) "a resident" (Some "1234")
    (Cache.store_find s "a");
  Alcotest.(check (list string)) "LRU order, least recent first"
    [ "b"; "a" ] (Cache.store_keys s);
  (* 4 more bytes blow the 10-byte budget: "b" (the LRU) must go *)
  Cache.store_put s "c" "9999";
  Alcotest.(check (option string)) "b evicted" None (Cache.store_find s "b");
  Alcotest.(check (option string)) "a survived" (Some "1234")
    (Cache.store_find s "a");
  let c = Cache.store_counters s in
  Alcotest.(check int) "one eviction" 1 c.Cache.evictions;
  Alcotest.(check int) "bytes tracked" 8 c.Cache.bytes

let test_memory_oversized_value_not_resident () =
  let m = Cache.Memory.create ~max_bytes:4 () in
  let s = Cache.Memory.store m in
  Cache.store_put s "k" "way too large for the budget";
  Alcotest.(check (option string)) "never resident" None
    (Cache.store_find s "k");
  Cache.store_put s "ok" "1234";
  Alcotest.(check (option string)) "fitting value resident" (Some "1234")
    (Cache.store_find s "ok")

(* --- Disk: round trips and restart survival --- *)

let test_disk_round_trip_and_restart () =
  let d = disk "roundtrip" in
  let s = Cache.Disk.store d in
  Cache.store_put s "key|1" "payload one";
  Cache.store_put s "key|2" "payload two";
  Alcotest.(check (option string)) "immediate hit" (Some "payload one")
    (Cache.store_find s "key|1");
  (* a second handle over the same directory: the restart case *)
  let d2 = reopen d in
  let s2 = Cache.Disk.store d2 in
  Alcotest.(check (option string)) "hit after reopen" (Some "payload two")
    (Cache.store_find s2 "key|2");
  let c = Cache.store_counters s2 in
  Alcotest.(check int) "both entries indexed at open" 2 c.Cache.entries;
  Alcotest.(check int) "no corruption" 0 c.Cache.corrupt

let test_disk_cross_handle_sharing () =
  (* two live handles over one directory (two co-operating workers): a
     put through one is visible to the other via the file probe, without
     reopening *)
  let d = disk "sharing" in
  let d2 = reopen d in
  Cache.store_put (Cache.Disk.store d) "shared" "from the first worker";
  Alcotest.(check (option string)) "second worker sees it"
    (Some "from the first worker")
    (Cache.store_find (Cache.Disk.store d2) "shared")

let test_disk_corrupt_entry_degrades_to_miss () =
  let d = disk "corrupt" in
  let s = Cache.Disk.store d in
  Cache.store_put s "good" "intact payload";
  Cache.store_put s "bad" "doomed payload";
  (* flip the last payload byte behind the store's back — the payload
     sits at the end of the entry file, so the header stays well-formed
     and the checksum is what catches it *)
  let path = entry_path d "bad" in
  let content = In_channel.with_open_bin path In_channel.input_all in
  let n = String.length content in
  let corrupted =
    String.sub content 0 (n - 1)
    ^ String.make 1 (if content.[n - 1] = 'X' then 'Y' else 'X')
  in
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc corrupted);
  Alcotest.(check (option string)) "corrupt entry is a miss" None
    (Cache.store_find s "bad");
  Alcotest.(check bool) "corrupt file deleted" false (Sys.file_exists path);
  Alcotest.(check (option string)) "other entries unharmed"
    (Some "intact payload") (Cache.store_find s "good");
  Alcotest.(check bool) "corruption counted" true
    ((Cache.store_counters s).Cache.corrupt >= 1)

let test_disk_truncated_entry_degrades_to_miss () =
  let d = disk "truncated" in
  let s = Cache.Disk.store d in
  Cache.store_put s "short" "a payload that will lose its tail";
  let path = entry_path d "short" in
  let content = In_channel.with_open_bin path In_channel.input_all in
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc
        (String.sub content 0 (String.length content / 2)));
  Alcotest.(check (option string)) "truncated entry is a miss" None
    (Cache.store_find s "short");
  Alcotest.(check bool) "truncated file deleted" false (Sys.file_exists path)

let test_disk_version_skew_invalidated_at_open () =
  let d = disk "skew" ~version:"binary-A" in
  Cache.store_put (Cache.Disk.store d) "k" "written by binary A";
  (* the next binary opens the same directory under its own version *)
  let d2 = reopen d ~version:"binary-B" in
  let s2 = Cache.Disk.store d2 in
  Alcotest.(check int) "skewed entry dropped at open" 1
    (Cache.store_counters s2).Cache.version_skew;
  Alcotest.(check int) "nothing indexed" 0
    (Cache.store_counters s2).Cache.entries;
  Alcotest.(check (option string)) "miss under the new version" None
    (Cache.store_find s2 "k");
  Alcotest.(check bool) "skewed file deleted" false
    (Sys.file_exists (entry_path d2 "k"))

let test_disk_lru_eviction_by_byte_budget () =
  let d = disk "evict" ~max_bytes:30 in
  let s = Cache.Disk.store d in
  Cache.store_put s "one" (String.make 12 'x');
  Cache.store_put s "two" (String.make 12 'y');
  (* touching "one" protects it: "two" becomes the LRU *)
  ignore (Cache.store_find s "one");
  Cache.store_put s "three" (String.make 12 'z');
  Alcotest.(check (option string)) "LRU entry evicted from disk" None
    (Cache.store_find s "two");
  Alcotest.(check (option string)) "recently used entry kept"
    (Some (String.make 12 'x'))
    (Cache.store_find s "one");
  Alcotest.(check (option string)) "new entry resident"
    (Some (String.make 12 'z'))
    (Cache.store_find s "three");
  Alcotest.(check bool) "eviction counted" true
    ((Cache.store_counters s).Cache.evictions >= 1);
  Alcotest.(check bool) "budget respected" true
    ((Cache.store_counters s).Cache.bytes <= 30)

(* --- the decoded front cache over a store --- *)

let test_front_revives_from_store () =
  let mem = Cache.Memory.store (Cache.Memory.create ()) in
  let cache =
    Cache.create ~name:"test"
      ~encode:(fun v -> Some v)
      ~decode:(fun s -> Some s)
      ~store:mem ()
  in
  Cache.add cache "k" "decoded value";
  (match Cache.find cache "k" with
  | Some (_, `Front) -> ()
  | _ -> Alcotest.fail "expected a front hit");
  (* simulated restart: the front table dies, the store survives *)
  Cache.clear cache;
  Alcotest.(check int) "front emptied" 0 (Cache.size cache);
  (match Cache.find cache "k" with
  | Some (v, `Store) ->
    Alcotest.(check string) "revived payload" "decoded value" v
  | _ -> Alcotest.fail "expected a store revival");
  (* the revival re-seats the value front-side *)
  match Cache.find cache "k" with
  | Some (_, `Front) -> ()
  | _ -> Alcotest.fail "expected a front hit after revival"

let test_front_undecodable_store_entry_is_a_miss () =
  let mem = Cache.Memory.store (Cache.Memory.create ()) in
  let cache =
    Cache.create ~name:"test"
      ~encode:(fun v -> Some v)
      ~decode:(fun _ -> None)
      ~store:mem ()
  in
  Cache.store_put mem "k" "bytes the codec rejects";
  Alcotest.(check bool) "undecodable entry is a miss" true
    (Cache.find cache "k" = None);
  Alcotest.(check int) "failure counted" 1 (Cache.decode_failures cache);
  Alcotest.(check (option string)) "poisoned entry deleted" None
    (Cache.store_find mem "k")

(* --- the driver over a persistent store --- *)

(* The whole suite as a restart sees it: every sequential kernel on
   every compiling backend compiles into a fresh store, the front tier
   dies, a new Cache.Disk handle reattaches the directory, and every
   accepted design must come back from the store, run identically and
   agree with the oracle. *)
let test_driver_designs_survive_restart () =
  let dir = fresh_dir "driver" in
  let previous = Driver.cache_store () in
  let attach () =
    match Driver.attach_disk_cache ~dir () with
    | Ok _ -> ()
    | Error msg -> Alcotest.fail msg
  in
  Fun.protect
    ~finally:(fun () ->
      Driver.set_cache_store previous;
      Driver.clear_cache ();
      Array.iter
        (fun f -> Sys.remove (Filename.concat dir f))
        (Sys.readdir dir);
      Unix.rmdir dir)
    (fun () ->
      attach ();
      Driver.clear_cache ();
      let sweep () =
        List.map
          (fun (w : Workloads.t) ->
            let s =
              Driver.create ~entry:w.Workloads.entry w.Workloads.source
            in
            match
              Driver.compare ~backends:(Registry.compiling ()) s
                ~vectors:w.Workloads.arg_sets
            with
            | Ok table -> (w.Workloads.name, s, table)
            | Error e -> Alcotest.fail (Driver.render_error e))
          Workloads.sequential
      in
      let counter s key =
        match Metrics.find (Driver.metrics s) key with
        | Some (Metrics.Int n) -> n
        | _ -> 0
      in
      let accepted table =
        List.length (List.filter (fun (_, r) -> Result.is_ok r) table)
      in
      let cold = sweep () in
      List.iter
        (fun (name, s, table) ->
          Alcotest.(check int) (name ^ ": cold compiles miss")
            (accepted table)
            (counter s "driver.cache.design_misses"))
        cold;
      Alcotest.(check bool) "the suite compiles" true
        (List.exists (fun (_, _, table) -> accepted table > 0) cold);
      (* restart: drop the decoded front tier, reopen the disk store *)
      Driver.clear_cache ();
      attach ();
      let runs verdicts =
        List.map
          (fun v ->
            Metrics.render_compact (Metrics.Obj (Driver.run_members v)))
          verdicts
      in
      List.iter2
        (fun (name, _, before) (_, s, after) ->
          Alcotest.(check int) (name ^ ": every design revives")
            (accepted before)
            (counter s "driver.cache.design_store_hits");
          Alcotest.(check int) (name ^ ": nothing recompiles") 0
            (counter s "driver.cache.design_misses");
          List.iter2
            (fun (b, r1) (_, r2) ->
              let what = name ^ "/" ^ Registry.name b in
              match (r1, r2) with
              | Ok (_, v1), Ok (_, v2) ->
                Alcotest.(check (list string))
                  (what ^ " runs identically") (runs v1) (runs v2);
                Alcotest.(check bool) (what ^ " agrees with the oracle") true
                  (Driver.agree v2)
              | Error _, Error _ -> ()
              | _ -> Alcotest.failf "%s: accepted on one side only" what)
            before after)
        cold (sweep ()))

let suite =
  ( "cache",
    [ Alcotest.test_case "memory LRU eviction order" `Quick
        test_memory_lru_eviction_order;
      Alcotest.test_case "memory oversized value" `Quick
        test_memory_oversized_value_not_resident;
      Alcotest.test_case "disk round trip and restart" `Quick
        test_disk_round_trip_and_restart;
      Alcotest.test_case "disk cross-handle sharing" `Quick
        test_disk_cross_handle_sharing;
      Alcotest.test_case "corrupt entry degrades to miss" `Quick
        test_disk_corrupt_entry_degrades_to_miss;
      Alcotest.test_case "truncated entry degrades to miss" `Quick
        test_disk_truncated_entry_degrades_to_miss;
      Alcotest.test_case "version skew invalidated at open" `Quick
        test_disk_version_skew_invalidated_at_open;
      Alcotest.test_case "disk LRU eviction by byte budget" `Quick
        test_disk_lru_eviction_by_byte_budget;
      Alcotest.test_case "front revives from store" `Quick
        test_front_revives_from_store;
      Alcotest.test_case "undecodable store entry" `Quick
        test_front_undecodable_store_entry_is_a_miss;
      Alcotest.test_case "driver designs survive restart" `Quick
        test_driver_designs_survive_restart ] )
