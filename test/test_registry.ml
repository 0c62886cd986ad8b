(* Registry completeness and round-trips: the registry replaced the
   closed backend variant, so these tests pin what the type system used
   to guarantee — every surveyed scheme is registered, every published
   alias resolves, names round-trip, and schemes sharing an
   implementation (Cyber compiles through the Bach C scheduler) are
   still distinguishable handles. *)

let test_table1_completeness () =
  (* every dialect row in the paper's Table 1 names the chls backend
     that implements it; each must be registered under that name *)
  List.iter
    (fun (d : Dialect.t) ->
      match Registry.find d.Dialect.backend with
      | Some handle ->
        Alcotest.(check string)
          (d.Dialect.name ^ " backend registered under its own name")
          d.Dialect.backend (Registry.name handle)
      | None ->
        Alcotest.fail
          (Printf.sprintf "Table 1 row %S names unregistered backend %S"
             d.Dialect.name d.Dialect.backend))
    Dialect.table1;
  Alcotest.(check int) "one registration per Table 1 row"
    (List.length Dialect.table1)
    (List.length (Registry.all ()))

let test_aliases_resolve () =
  List.iter
    (fun handle ->
      List.iter
        (fun alias ->
          match Registry.find alias with
          | Some h ->
            Alcotest.(check bool)
              (Printf.sprintf "alias %S resolves to %s" alias
                 (Registry.name handle))
              true (Registry.equal h handle)
          | None -> Alcotest.fail (Printf.sprintf "alias %S unknown" alias))
        (Registry.aliases handle))
    (Registry.all ());
  (* the published shorthands from the survey *)
  List.iter
    (fun (alias, name) ->
      Alcotest.(check string) alias name (Registry.name (Registry.get alias)))
    [ ("tmcc", "transmogrifier"); ("c2v", "c2verilog"); ("bdl", "cyber");
      ("BDL", "cyber"); ("bach", "bachc"); ("handel-c", "handelc") ]

let test_name_round_trip () =
  List.iter
    (fun name ->
      Alcotest.(check string) ("round-trip " ^ name) name
        (Registry.name (Registry.get name));
      (* lookups are case-insensitive *)
      Alcotest.(check string) ("case-insensitive " ^ name) name
        (Registry.name (Registry.get (String.uppercase_ascii name))))
    (Registry.names ());
  List.iter
    (fun h ->
      Alcotest.(check bool) ("find (name h) = h for " ^ Registry.name h) true
        (Registry.find (Registry.name h) = Some h))
    (Registry.all ())

let test_cyber_distinct_from_bachc () =
  let cyber = Registry.get "cyber" and bachc = Registry.get "bachc" in
  Alcotest.(check bool) "distinct handles" false (Registry.equal cyber bachc);
  Alcotest.(check bool) "distinct handles (structural =)" false (cyber = bachc);
  (* they share the scheduler but not the dialect: Cyber is
     process-level concurrent, Bach C statement-level *)
  Alcotest.(check bool) "distinct dialects" false
    ((Registry.dialect cyber).Dialect.name
    = (Registry.dialect bachc).Dialect.name)

(* Cyber compiles under its own name: its designs, its pipeline and its
   concurrency rules say cyber, not bachc. *)
let test_cyber_compiles_as_cyber () =
  let cyber = Registry.get "cyber" in
  Alcotest.(check (option string)) "pipeline name" (Some "cyber")
    (Option.map (fun p -> p.Passes.pl_name) (Registry.pipeline cyber));
  let w = Workloads.gcd in
  let session = Driver.create ~entry:w.Workloads.entry w.Workloads.source in
  match Driver.compile session cyber with
  | Ok d -> Alcotest.(check string) "design backend" "cyber" d.Design.backend
  | Error e -> Alcotest.fail (Driver.render_error e)

let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i =
    i + n <= h && (String.sub haystack i n = needle || go (i + 1))
  in
  go 0

let test_unknown_backend_lists_catalog () =
  (match Registry.find "vhdl" with
  | Some _ -> Alcotest.fail "vhdl should not be registered"
  | None -> ());
  match Registry.get "vhdl" with
  | exception Registry.Unknown_backend msg ->
    List.iter
      (fun name ->
        Alcotest.(check bool)
          (Printf.sprintf "error mentions %s" name)
          true (contains msg name))
      (Registry.names ())
  | _ -> Alcotest.fail "Registry.get must raise on unknown names"

let test_capabilities () =
  (* exactly one backend (the structural Ocapi EDSL) lacks a C
     frontend, and it is excluded from [compiling] *)
  let no_frontend =
    List.filter
      (fun h -> not (Registry.capabilities h).Backend.c_frontend)
      (Registry.all ())
  in
  Alcotest.(check (list string)) "only ocapi is structural" [ "ocapi" ]
    (List.map Registry.name no_frontend);
  Alcotest.(check bool) "compiling excludes ocapi" false
    (List.exists (fun h -> Registry.name h = "ocapi") (Registry.compiling ()));
  Alcotest.(check bool) "hardwarec reports constraints" true
    (Registry.capabilities (Registry.get "hardwarec"))
      .Backend.constraint_reports

let suite =
  ( "registry",
    [ Alcotest.test_case "table1 completeness" `Quick test_table1_completeness;
      Alcotest.test_case "aliases resolve" `Quick test_aliases_resolve;
      Alcotest.test_case "name round-trip" `Quick test_name_round_trip;
      Alcotest.test_case "cyber distinct from bachc" `Quick
        test_cyber_distinct_from_bachc;
      Alcotest.test_case "cyber compiles as cyber" `Quick
        test_cyber_compiles_as_cyber;
      Alcotest.test_case "unknown backend lists catalog" `Quick
        test_unknown_backend_lists_catalog;
      Alcotest.test_case "capabilities" `Quick test_capabilities ] )
