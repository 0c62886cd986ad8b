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
            let d =
              Registry.compile b ~knobs:Backend.default_knobs program
                ~entry:w.Workloads.entry
            in
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

(* A revived FSMD design is shared by every worker domain, and its
   compiled engine is mutable: two domains running it on many vectors at
   once must each see exactly the serial results. *)
let test_shared_engine_two_domains () =
  let w = Workloads.gcd in
  let d =
    Registry.compile (Registry.get "transmogrifier")
      ~knobs:Backend.default_knobs (Workloads.parse w) ~entry:w.Workloads.entry
  in
  let shared = round_trip d in
  let vectors =
    List.concat_map
      (fun a -> List.init 12 (fun b -> Design.int_args [ (a * 37) + 1; b + 1 ]))
      (List.init 100 Fun.id)
  in
  let run_all (d : Design.t) order =
    List.map (fun args -> d.Design.run args) order
  in
  let serial = run_all (round_trip d) vectors in
  let other = Domain.spawn (fun () -> run_all shared vectors) in
  let mine = List.rev (run_all shared (List.rev vectors)) in
  let theirs = Domain.join other in
  Alcotest.(check bool) "fsmd artifact" true
    (match shared.Design.artifact with Design.Fsmd _ -> true | _ -> false);
  Alcotest.(check bool) "spawned domain matches the serial run" true
    (List.for_all2 run_eq serial theirs);
  Alcotest.(check bool) "main domain matches the serial run" true
    (List.for_all2 run_eq serial mine)

let suite =
  ( "design",
    [ Alcotest.test_case "data round trip, every backend x kernel" `Quick
        test_every_backend_and_kernel;
      Alcotest.test_case "data round trip, ocapi" `Quick test_ocapi;
      Alcotest.test_case "shared engine, two domains" `Quick
        test_shared_engine_two_domains ] )
