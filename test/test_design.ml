(* Design as data: a design's data part marshals with no closures, and
   rebuilding it through Design.of_data reproduces every behavioural and
   structural view — for every compiling backend on every kernel its
   dialect accepts, and for a structural Ocapi design. *)

let bv_list_eq a b =
  List.length a = List.length b
  && List.for_all2 (fun (n, x) (m, y) -> n = m && Bitvec.equal x y) a b

let mem_list_eq a b =
  List.length a = List.length b
  && List.for_all2
       (fun (n, x) (m, y) ->
         n = m
         && Array.length x = Array.length y
         && Array.for_all2 Bitvec.equal x y)
       a b

let run_eq (a : Design.run_result) (b : Design.run_result) =
  Option.equal Bitvec.equal a.Design.result b.Design.result
  && bv_list_eq a.Design.globals b.Design.globals
  && mem_list_eq a.Design.memories b.Design.memories
  && a.Design.cycles = b.Design.cycles
  && a.Design.time_units = b.Design.time_units

let round_trip (d : Design.t) =
  let bytes = Marshal.to_string (Design.data d : Design.data) [] in
  Design.of_data (Marshal.from_string bytes 0 : Design.data)

(* Compare the revived design against the original on every view. *)
let check_revived ~label (d : Design.t) ~vectors =
  let r = round_trip d in
  let check what ok = Alcotest.(check bool) (label ^ ": " ^ what) true ok in
  check "name and backend"
    (r.Design.design_name = d.Design.design_name
    && r.Design.backend = d.Design.backend);
  check "stats" (r.Design.stats = d.Design.stats);
  check "clock period" (r.Design.clock_period = d.Design.clock_period);
  check "pass trace" (r.Design.pass_trace = d.Design.pass_trace);
  check "area" (r.Design.area () = d.Design.area ());
  check "verilog" (r.Design.verilog () = d.Design.verilog ());
  check "netlist"
    (Option.map Verilog.to_string (r.Design.netlist ())
    = Option.map Verilog.to_string (d.Design.netlist ()));
  List.iter
    (fun sim ->
      List.iter
        (fun v ->
          let args = Design.int_args v in
          check
            (Printf.sprintf "run %s on [%s]" (Design.engine_name sim)
               (String.concat "," (List.map string_of_int v)))
            (run_eq (d.Design.run ~sim args) (r.Design.run ~sim args)))
        vectors)
    [ Design.Compiled; Design.Event_driven ]

let kind = function
  | Design.Fsmd _ -> "fsmd"
  | Design.Process_network _ -> "process network"
  | Design.Combinational _ -> "combinational"
  | Design.Dataflow _ -> "dataflow"
  | Design.Stack_machine _ -> "stack machine"
  | Design.Statement_machine _ -> "statement machine"

let test_every_backend_and_kernel () =
  let kinds = Hashtbl.create 8 in
  List.iter
    (fun (w : Workloads.t) ->
      let program = Workloads.parse w in
      List.iter
        (fun b ->
          if Dialect.check (Registry.dialect b) program = [] then begin
            let d = Registry.compile b program ~entry:w.Workloads.entry in
            check_revived
              ~label:(w.Workloads.name ^ "/" ^ Registry.name b)
              d ~vectors:w.Workloads.arg_sets;
            Hashtbl.replace kinds (kind d.Design.artifact) ()
          end)
        (Registry.compiling ()))
    Workloads.all;
  Alcotest.(check (list string)) "every artifact kind covered"
    [ "combinational"; "dataflow"; "fsmd"; "process network";
      "stack machine"; "statement machine" ]
    (List.sort compare (List.of_seq (Hashtbl.to_seq_keys kinds)))

(* A structural design with a register and a memory, so globals and
   memories ride the round trip too: sum a[0..n) while counting steps. *)
let test_ocapi () =
  let open Ocapi in
  let b = create ~name:"sum_edsl" in
  let k v = const ~width:32 v in
  let n = input b ~name:"n" ~width:32 in
  let i = wire b ~width:32 and acc = wire b ~width:32 in
  let steps = register b ~name:"steps" ~width:32 ~init:0 in
  let mem = memory b ~name:"a" ~width:32 ~depth:8 in
  set_result_width b 32;
  (* state 0 fills a[i] = 3i; state 1 sums a[0..n); state 2 is done *)
  ignore
    (add_state b
       [ Write (mem, reg i, reg i *: k 3); Set (i, reg i +: k 1) ]
       (Branch (reg i ==: k 8, 1, 0)));
  ignore
    (add_state b
       [ Set (acc, reg acc +: read mem (reg i -: k 8));
         Set (i, reg i +: k 1);
         Set (steps, reg steps +: k 1) ]
       (Branch (reg i ==: (reg n +: k 8), 2, 1)));
  ignore (add_state b [] (Done (Some (reg acc))));
  let d = to_design b in
  Alcotest.(check (option int)) "sum of 3i for i < 4" (Some 18)
    (Design.run_int d [ 4 ]);
  check_revived ~label:"ocapi" d ~vectors:[ [ 1 ]; [ 4 ]; [ 8 ] ]

let compile backend (w : Workloads.t) =
  Registry.compile (Registry.get backend) (Workloads.parse w)
    ~entry:w.Workloads.entry

(* A revived design is shared by every worker domain, and its engines
   are mutable: two domains running it on many vectors at once must each
   see exactly the serial results — for the compiled FSMD, the netlist
   and the C2Verilog engines alike, and for the statement machine, whose
   program is resolved by whichever domain runs it first. *)
let test_shared_engine_two_domains () =
  let vectors =
    List.concat_map
      (fun a -> List.init 12 (fun b -> Design.int_args [ (a * 37) + 1; b + 1 ]))
      (List.init 100 Fun.id)
  in
  let run_all (d : Design.t) order =
    List.map (fun args -> d.Design.run args) order
  in
  List.iter
    (fun (backend, w, artifact) ->
      let d = compile backend w in
      let label what =
        Printf.sprintf "%s/%s: %s" backend w.Workloads.name what
      in
      let shared = round_trip d in
      let serial = run_all (round_trip d) vectors in
      let other = Domain.spawn (fun () -> run_all shared vectors) in
      let mine = List.rev (run_all shared (List.rev vectors)) in
      let theirs = Domain.join other in
      Alcotest.(check string) (label "artifact") artifact
        (kind shared.Design.artifact);
      Alcotest.(check bool) (label "spawned domain matches the serial run")
        true
        (List.for_all2 run_eq serial theirs);
      Alcotest.(check bool) (label "main domain matches the serial run") true
        (List.for_all2 run_eq serial mine))
    [ ("transmogrifier", Workloads.gcd, "fsmd");
      ("cones", Workloads.fir, "combinational");
      ("c2verilog", Workloads.gcd, "stack machine");
      ("handelc", Workloads.gcd, "statement machine") ]

(* The C2Verilog program leaves something behind in every part of the
   unified memory — a global, a global array, a malloc block, a deep
   stack — and each run reads what an earlier run would have left there
   ([stale]), so an engine that does not restore memory between runs
   answers differently from a fresh one. *)
let reuse_source =
  {|
  int g;
  int hist[8];
  int deep(int n) {
    int frame[6];
    frame[n % 6] = n;
    if (n <= 0) { return frame[0]; }
    return deep(n - 1) + frame[n % 6];
  }
  int run(int n, int x) {
    int *block = malloc(4);
    int stale = block[n & 3] + g + hist[x & 7];
    block[x & 3] = x;
    g = g + x;
    hist[n & 7] = hist[n & 7] + n;
    return stale * 1000 + deep(n) + block[x & 3];
  }
  |}

(* Pooled engines serve run after run; a reused engine must answer as a
   fresh one does, down to the per-run simulator counters. *)
let test_engine_reuse () =
  let a = Design.int_args [ 5; 9 ] and b = Design.int_args [ 9; 5 ] in
  let reused ?sim (d : Design.t) =
    List.map
      (fun args ->
        (d.Design.run ?sim args, (round_trip d).Design.run ?sim args))
      [ a; b; a ]
  in
  let program = Typecheck.parse_and_check reuse_source in
  List.iteri
    (fun i (r, fresh) ->
      Alcotest.(check bool)
        (Printf.sprintf "c2verilog run %d matches a fresh design" i)
        true (run_eq r fresh))
    (reused (C2v_backend.compile program ~entry:"run"));
  let counter name (r : Design.run_result) =
    Option.map Metrics.render_compact (Metrics.find r.Design.metrics name)
  in
  let cones = compile "cones" Workloads.fir in
  List.iter
    (fun sim ->
      let engine = Design.engine_name sim in
      List.iteri
        (fun i (r, fresh) ->
          Alcotest.(check bool)
            (Printf.sprintf "cones %s run %d matches a fresh design" engine i)
            true (run_eq r fresh);
          List.iter
            (fun name ->
              Alcotest.(check (option string))
                (Printf.sprintf "cones %s run %d: %s" engine i name)
                (counter name fresh) (counter name r))
            [ "sim.engine"; "sim.nodes_evaluated"; "sim.events" ])
        (reused ~sim cones))
    [ Design.Compiled; Design.Event_driven ]

(* No run forces a minor collection.  OCaml 5 forces one, and stops
   every domain for it, when an array over 256 words is filled from a
   value still in the minor heap; it also empties every minor heap when
   a major cycle ends.  So 50 runs may take only the minor collections
   their own allocation explains: one per minor heap of words
   allocated, and one more for the heap they started in.  Each row
   starts on a finished major cycle, so a cycle that earlier rows left
   nearly done does not end inside it; a row that churns the major heap
   still ends cycles of its own. *)
let big_memory_source =
  "int a[1000]; int f(int n) { a[0] = n; a[n] = a[0] + 1; return a[n]; }"

let test_no_forced_collections () =
  let forced = ref [] in
  let runs label run =
    run ();
    Gc.full_major ();
    let words = Gc.minor_words () and before = Gc.quick_stat () in
    for _ = 1 to 50 do
      run ()
    done;
    let words = Gc.minor_words () -. words and after = Gc.quick_stat () in
    let taken = after.Gc.minor_collections - before.Gc.minor_collections in
    let explained =
      int_of_float
        (Float.ceil (words /. float_of_int (Gc.get ()).Gc.minor_heap_size))
      + 1
    in
    if taken > explained then
      forced :=
        Printf.sprintf "%s: %d minor collections, %.0f words explain %d" label
          taken words explained
        :: !forced
  in
  List.iter
    (fun (name, source, entry, args, rejects) ->
      let args = Design.int_args args in
      let session = Driver.create ~entry source in
      let program =
        match Driver.program session with
        | Ok p -> p
        | Error e -> Alcotest.fail (Driver.render_error e)
      in
      runs (name ^ " oracle") (fun () -> ignore (Interp.run program ~entry ~args));
      List.iter
        (fun b ->
          let backend = Registry.name b in
          match Driver.compile session b with
          | Error e ->
            if not (List.mem backend rejects) then
              Alcotest.failf "%s %s: %s" name backend (Driver.render_error e)
          | Ok d ->
            List.iter
              (fun sim ->
                runs
                  (Printf.sprintf "%s %s %s" name backend
                     (Design.engine_name sim))
                  (fun () -> ignore (d.Design.run ~sim args)))
              [ Design.Compiled; Design.Event_driven ])
        (Registry.compiling ()))
    [ ("gcd", Workloads.gcd.Workloads.source, "gcd", [ 1071; 462 ], [ "cones" ]);
      ("a[1000]", big_memory_source, "f", [ 7 ], []) ];
  Alcotest.(check (list string)) "runs that force a collection" []
    (List.rev !forced)

let suite =
  ( "design",
    [ Alcotest.test_case "data round trip, every backend x kernel" `Quick
        test_every_backend_and_kernel;
      Alcotest.test_case "data round trip, ocapi" `Quick test_ocapi;
      Alcotest.test_case "shared engine, two domains" `Quick
        test_shared_engine_two_domains;
      Alcotest.test_case "reused engines answer as fresh ones" `Quick
        test_engine_reuse;
      Alcotest.test_case "no run forces a minor collection" `Quick
        test_no_forced_collections ] )
