(* Config as a first-class value: the canonical rendering is pinned
   against a golden string (changing it invalidates persisted caches —
   exactly when it should change), distinct knob points get distinct
   digests while the dump sink and the simulation engine stay out of
   them, the digest keys the design cache front-to-disk, and two
   domains compiling under different options concurrently never bleed
   into each other (the old process-wide pass-options race). *)

let gcd_w = Workloads.gcd

let golden_render =
  "chls.config/1;adders=2;multipliers=1;dividers=1;shifters=1;\
   mem_read_ports=1;mem_write_ports=1;chain_budget=20;unroll=1;\
   verify=;dump_after="

let golden_digest = "1af19bf024316c320ee08f94c5b71552"

let test_render_golden () =
  Alcotest.(check string) "default renders canonically" golden_render
    (Config.render Config.default);
  Alcotest.(check string) "digest is pinned" golden_digest
    (Config.digest Config.default);
  Alcotest.(check string) "digest = md5(render)"
    (Digest.to_hex (Digest.string (Config.render Config.default)))
    (Config.digest Config.default)

let test_digests_distinguish_knobs () =
  let d = Config.default in
  let variants =
    [ ("unroll", { d with Config.unroll_factor = 2 });
      ("verify", { d with Config.verify = [ [ 1; 2 ] ] });
      ("dump", { d with Config.dump_after = [ "simplify" ] });
      ( "adders",
        Config.with_resources
          { Schedule.default_allocation with Schedule.adders = Some 1 }
          d );
      ( "unbounded adders",
        Config.with_resources
          { Schedule.default_allocation with Schedule.adders = None }
          d );
      ( "chain",
        Config.with_resources
          { Schedule.default_allocation with Schedule.chain_budget = 10. }
          d ) ]
  in
  List.iter
    (fun (what, c) ->
      Alcotest.(check bool)
        (what ^ " changes the digest")
        true
        (Config.digest c <> Config.digest d))
    variants;
  (* every pair distinct too: the rendering separates fields *)
  let digests = List.map (fun (_, c) -> Config.digest c) variants in
  Alcotest.(check int) "all variant digests distinct"
    (List.length digests)
    (List.length (List.sort_uniq compare digests))

let test_dump_sink_is_not_identity () =
  let buf = Buffer.create 16 in
  let c = { Config.default with Config.dump_sink = Buffer.add_string buf } in
  Alcotest.(check string) "sink never renders"
    (Config.digest Config.default) (Config.digest c);
  Alcotest.(check bool) "equal modulo sink" true
    (Config.equal Config.default c)

let test_knobs_mapping () =
  let c =
    { Config.default with
      Config.verify = [ [ 4 ] ];
      dump_after = [ "simplify" ] }
  in
  let o = Config.pass_options c in
  Alcotest.(check bool) "verify vectors forwarded" true
    (o.Passes.verify = [ [ 4 ] ]);
  Alcotest.(check bool) "dump passes forwarded" true
    (o.Passes.dump_after = [ "simplify" ])

let test_json_round_trip () =
  let c =
    { Config.default with
      Config.resources =
        { Schedule.default_allocation with
          Schedule.adders = None;
          multipliers = Some 3;
          chain_budget = 7.5 };
      unroll_factor = 4;
      verify = [ [ 1; 2 ]; [ -3 ] ];
      sim = Design.Event_driven }
  in
  match Config.of_json (Config.to_json c) with
  | Error msg -> Alcotest.fail msg
  | Ok c' ->
    Alcotest.(check string) "round trip preserves the digest"
      (Config.digest c) (Config.digest c');
    Alcotest.(check bool) "round trip preserves the engine" true
      (c'.Config.sim = c.Config.sim)

let test_of_json_errors () =
  let parse s =
    match Metrics.parse s with
    | Ok j -> Config.of_json j
    | Error msg -> Alcotest.fail ("probe JSON does not parse: " ^ msg)
  in
  (match parse "{}" with
  | Ok c ->
    Alcotest.(check string) "empty object is the default"
      (Config.digest Config.default) (Config.digest c)
  | Error msg -> Alcotest.fail msg);
  (match parse "{\"adders\": null, \"unroll\": 2}" with
  | Ok c ->
    Alcotest.(check bool) "null bound is unconstrained" true
      (c.Config.resources.Schedule.adders = None);
    Alcotest.(check int) "unroll parsed" 2 c.Config.unroll_factor
  | Error msg -> Alcotest.fail msg);
  List.iter
    (fun (what, json) ->
      match parse json with
      | Ok _ -> Alcotest.fail (what ^ ": should be rejected")
      | Error _ -> ())
    [ ("typo field", "{\"addres\": 1}");
      ("zero bound", "{\"adders\": 0}");
      ("bad unroll", "{\"unroll\": \"two\"}");
      ("bad sim", "{\"sim\": \"quantum\"}");
      ("retired forwarding knob", "{\"mem_forwarding\": true}");
      ("retired II limit", "{\"ii_limit\": 8}");
      ("retired sweep engine", "{\"sim\": \"sweep\"}");
      ("non-object", "[1,2]") ]

(* --- the digest keys the design cache ---------------------------------- *)

let counter session key =
  match Metrics.find (Driver.metrics session) key with
  | Some (Metrics.Int n) -> n
  | _ -> 0

let compile_cfg session config backend =
  match Driver.compile ~config session backend with
  | Ok d -> d
  | Error e -> Alcotest.fail (Driver.render_error e)

let test_two_configs_two_front_entries () =
  Driver.clear_cache ();
  let bachc = Registry.get "bachc" in
  let s = Driver.create ~entry:gcd_w.Workloads.entry gcd_w.Workloads.source in
  let ca = Config.default in
  let cb =
    Config.with_resources
      { Schedule.default_allocation with Schedule.chain_budget = 200. }
      Config.default
  in
  let da = compile_cfg s ca bachc in
  let db = compile_cfg s cb bachc in
  Alcotest.(check int) "two distinct configs, two compiles" 2
    (counter s "driver.cache.design_misses");
  Alcotest.(check int) "two front entries" 2 (Driver.cache_size ());
  (* warm: each config digest hits its own memoized design *)
  let da' = compile_cfg s ca bachc in
  let db' = compile_cfg s cb bachc in
  Alcotest.(check int) "re-compiles are hits" 2
    (counter s "driver.cache.design_hits");
  Alcotest.(check bool) "config A memo is physical" true (da == da');
  Alcotest.(check bool) "config B memo is physical" true (db == db');
  Alcotest.(check bool) "distinct designs per config" true (not (da == db));
  (* both configs produced correct hardware *)
  List.iter
    (fun args ->
      let expected = Workloads.reference gcd_w args in
      Alcotest.(check (option int)) "config A agrees" (Some expected)
        (Design.run_int da args);
      Alcotest.(check (option int)) "config B agrees" (Some expected)
        (Design.run_int db args))
    gcd_w.Workloads.arg_sets

(* The engine picks how a design runs, not what the design is: a
   compile under the event-driven engine is a front hit on the default
   compile's design, and that design answers alike on both engines. *)
let test_sim_shares_one_design () =
  Driver.clear_cache ();
  let bachc = Registry.get "bachc" in
  let s = Driver.create ~entry:gcd_w.Workloads.entry gcd_w.Workloads.source in
  let d = compile_cfg s Config.default bachc in
  let d' =
    compile_cfg s { Config.default with Config.sim = Design.Event_driven } bachc
  in
  Alcotest.(check (pair int int)) "one compile, then a front hit" (1, 1)
    (counter s "driver.cache.design_misses",
     counter s "driver.cache.design_hits");
  Alcotest.(check bool) "one design" true (d == d');
  List.iter
    (fun args ->
      let run sim =
        let r = d.Design.run ~sim (Design.int_args args) in
        (Option.map Bitvec.to_int r.Design.result, r.Design.cycles)
      in
      let compiled = run Design.Compiled in
      Alcotest.(check (option int)) "the oracle's answer"
        (Some (Workloads.reference gcd_w args)) (fst compiled);
      Alcotest.(check (pair (option int) (option int)))
        "both engines agree" compiled (run Design.Event_driven))
    gcd_w.Workloads.arg_sets

let empty dir =
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir)

let fresh_dir =
  let n = ref 0 in
  fun () ->
    incr n;
    let dir =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "chlsc-config-test-%d-%d" (Unix.getpid ()) !n)
    in
    (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    empty dir;
    dir

let test_two_configs_two_disk_entries () =
  let dir = fresh_dir () in
  let previous = Driver.cache_store () in
  Fun.protect
    ~finally:(fun () ->
      Driver.set_cache_store previous;
      Driver.clear_cache ();
      empty dir;
      Unix.rmdir dir)
    (fun () ->
      (match Driver.attach_disk_cache ~dir () with
      | Ok _ -> ()
      | Error msg -> Alcotest.fail msg);
      Driver.clear_cache ();
      let bachc = Registry.get "bachc" in
      let ca = Config.default in
      let cb = { Config.default with Config.unroll_factor = 2 } in
      let compile config =
        let s =
          Driver.create ~entry:gcd_w.Workloads.entry gcd_w.Workloads.source
        in
        (s, compile_cfg s config bachc)
      in
      let _, da = compile ca in
      let _, db = compile cb in
      let store =
        match Driver.cache_store () with
        | Some s -> s
        | None -> Alcotest.fail "store vanished"
      in
      Alcotest.(check int) "one disk entry per config digest" 2
        (List.length (Cache.store_keys store));
      (* simulated restart: the front tier drops, the store answers one
         hit per distinct config *)
      Driver.clear_cache ();
      let s1, da' = compile ca in
      let s2, db' = compile cb in
      Alcotest.(check int) "config A revives from disk" 1
        (counter s1 "driver.cache.design_store_hits");
      Alcotest.(check int) "config B revives from disk" 1
        (counter s2 "driver.cache.design_store_hits");
      List.iter
        (fun args ->
          Alcotest.(check (option int)) "A bit-identical across restart"
            (Design.run_int da args) (Design.run_int da' args);
          Alcotest.(check (option int)) "B bit-identical across restart"
            (Design.run_int db args) (Design.run_int db' args))
        gcd_w.Workloads.arg_sets)

(* --- no options bleed across domains ----------------------------------- *)

(* Two domains compile the same source concurrently, one with dumps and
   verification on, one with everything off.  Under a process-wide
   options setting this raced; with per-compile configs the quiet
   domain's sink must never fire. *)
let test_no_options_bleed_across_domains () =
  Driver.clear_cache ();
  let bachc = Registry.get "bachc" in
  let rounds = 8 in
  let noisy_dumps = Atomic.make 0 in
  let quiet_dumps = Atomic.make 0 in
  let failures = Atomic.make 0 in
  let compile_round config i =
    (* a distinct source per round so every compile really runs the
       passes (cache hits would skip them and hide a race) *)
    let source =
      Printf.sprintf
        "int f(int a, int b) { int k = %d; while (b != 0) { int t = b; b = \
         a %% b; a = t; } return a + k; }"
        i
    in
    let s = Driver.create ~entry:"f" source in
    match Driver.compile ~config s bachc with
    | Ok _ -> ()
    | Error _ -> Atomic.incr failures
  in
  let noisy () =
    for i = 0 to rounds - 1 do
      let config =
        { Config.default with
          Config.verify = [ [ 12; 18 ] ];
          dump_after = [ "simplify" ];
          dump_sink = (fun _ -> Atomic.incr noisy_dumps) }
      in
      compile_round config i
    done
  in
  let quiet () =
    for i = 0 to rounds - 1 do
      let config =
        { Config.default with
          Config.dump_sink = (fun _ -> Atomic.incr quiet_dumps) }
      in
      compile_round config i
    done
  in
  let d = Domain.spawn noisy in
  quiet ();
  Domain.join d;
  Alcotest.(check int) "no compile failed" 0 (Atomic.get failures);
  Alcotest.(check int) "noisy domain dumped every round" rounds
    (Atomic.get noisy_dumps);
  Alcotest.(check int) "quiet domain never saw a dump" 0
    (Atomic.get quiet_dumps)

let suite =
  ( "config",
    [ Alcotest.test_case "golden render and digest" `Quick test_render_golden;
      Alcotest.test_case "digests distinguish knobs" `Quick
        test_digests_distinguish_knobs;
      Alcotest.test_case "dump sink excluded from identity" `Quick
        test_dump_sink_is_not_identity;
      Alcotest.test_case "knobs mapping" `Quick test_knobs_mapping;
      Alcotest.test_case "json round trip" `Quick test_json_round_trip;
      Alcotest.test_case "of_json rejects malformed input" `Quick
        test_of_json_errors;
      Alcotest.test_case "two configs, two front entries" `Quick
        test_two_configs_two_front_entries;
      Alcotest.test_case "one design serves both engines" `Quick
        test_sim_shares_one_design;
      Alcotest.test_case "two configs, two disk entries" `Quick
        test_two_configs_two_disk_entries;
      Alcotest.test_case "no options bleed across domains" `Quick
        test_no_options_bleed_across_domains ] )
