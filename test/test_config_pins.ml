(* What each backend does with a configuration, pinned to literal
   values: every compiling backend compiles gcd, fir, dotprod, matmul
   and producer_consumer through [Driver.compile] under three configs
   (the default; one adder with a chain budget of 10; unroll 2) and runs
   the kernel's first argument vector on the default engine.  A row
   holds the result, the cycles or time units and the [states] stat
   where the design has one, or the error kind of a refusal.  A change
   to how backends read a config must leave every cell alone. *)

type timing = Cycles of int | Time of float

type outcome =
  | Ran of int * timing * int option  (** result, timing, [states] *)
  | Refused of string  (** [Driver.error_kind] *)

let configs =
  [ ("default", Config.default);
    ( "adders 1, chain 10",
      Config.with_resources
        { Schedule.default_allocation with
          Schedule.adders = Some 1;
          chain_budget = 10. }
        Config.default );
    ("unroll 2", { Config.default with Config.unroll_factor = 2 }) ]

let kernels = Workloads.[ gcd; fir; dotprod; matmul; producer_consumer ]

(* (backend, kernel, default, adders 1 + chain 10, unroll 2) *)
let rows =
  [
    ("cones", "gcd",
      Refused "dialect-reject",
      Refused "dialect-reject",
      Refused "dialect-reject");
    ("cones", "fir",
      Ran (-68, Time 101., None),
      Ran (-68, Time 101., None),
      Ran (-68, Time 101., None));
    ("cones", "dotprod",
      Ran (-1224, Time 138., None),
      Ran (-1224, Time 138., None),
      Ran (-1224, Time 138., None));
    ("cones", "matmul",
      Ran (-3312, Time 185., None),
      Ran (-3312, Time 185., None),
      Ran (-3312, Time 185., None));
    ("cones", "producer_consumer",
      Refused "dialect-reject",
      Refused "dialect-reject",
      Refused "dialect-reject");
    ("hardwarec", "gcd",
      Ran (6, Cycles 9, Some 7),
      Ran (6, Cycles 9, Some 7),
      Ran (6, Cycles 9, Some 7));
    ("hardwarec", "fir",
      Ran (-68, Cycles 77, Some 14),
      Ran (-68, Cycles 77, Some 14),
      Ran (-68, Cycles 77, Some 14));
    ("hardwarec", "dotprod",
      Ran (-1224, Cycles 133, Some 13),
      Ran (-1224, Cycles 149, Some 14),
      Ran (-1224, Cycles 133, Some 13));
    ("hardwarec", "matmul",
      Ran (-3312, Cycles 683, Some 29),
      Ran (-3312, Cycles 763, Some 31),
      Ran (-3312, Cycles 683, Some 29));
    ("hardwarec", "producer_consumer",
      Ran (112, Cycles 11, None),
      Ran (112, Cycles 11, None),
      Ran (112, Cycles 11, None));
    ("transmogrifier", "gcd",
      Ran (6, Cycles 6, Some 3),
      Ran (6, Cycles 6, Some 3),
      Ran (6, Cycles 6, Some 3));
    ("transmogrifier", "fir",
      Ran (-68, Cycles 37, Some 7),
      Ran (-68, Cycles 37, Some 7),
      Ran (-68, Cycles 21, Some 7));
    ("transmogrifier", "dotprod",
      Ran (-1224, Cycles 69, Some 7),
      Ran (-1224, Cycles 69, Some 7),
      Ran (-1224, Cycles 37, Some 7));
    ("transmogrifier", "matmul",
      Ran (-3312, Cycles 279, Some 16),
      Ran (-3312, Cycles 279, Some 16),
      Ran (-3312, Cycles 163, Some 28));
    ("transmogrifier", "producer_consumer",
      Refused "dialect-reject",
      Refused "dialect-reject",
      Refused "dialect-reject");
    ("systemc", "gcd",
      Ran (6, Cycles 8, Some 4),
      Ran (6, Cycles 8, Some 4),
      Ran (6, Cycles 8, Some 4));
    ("systemc", "fir",
      Ran (-68, Cycles 61, Some 10),
      Ran (-68, Cycles 61, Some 10),
      Ran (-68, Cycles 41, Some 12));
    ("systemc", "dotprod",
      Ran (-1224, Cycles 117, Some 10),
      Ran (-1224, Cycles 133, Some 11),
      Ran (-1224, Cycles 93, Some 14));
    ("systemc", "matmul",
      Ran (-3312, Cycles 567, Some 22),
      Ran (-3312, Cycles 663, Some 25),
      Ran (-3312, Cycles 419, Some 63));
    ("systemc", "producer_consumer",
      Ran (112, Cycles 11, None),
      Ran (112, Cycles 11, None),
      Ran (112, Cycles 11, None));
    ("c2verilog", "gcd",
      Ran (6, Cycles 101, None),
      Ran (6, Cycles 101, None),
      Ran (6, Cycles 101, None));
    ("c2verilog", "fir",
      Ran (-68, Cycles 759, None),
      Ran (-68, Cycles 759, None),
      Ran (-68, Cycles 759, None));
    ("c2verilog", "dotprod",
      Ran (-1224, Cycles 1711, None),
      Ran (-1224, Cycles 1711, None),
      Ran (-1224, Cycles 1711, None));
    ("c2verilog", "matmul",
      Ran (-3312, Cycles 6573, None),
      Ran (-3312, Cycles 6573, None),
      Ran (-3312, Cycles 6573, None));
    ("c2verilog", "producer_consumer",
      Refused "dialect-reject",
      Refused "dialect-reject",
      Refused "dialect-reject");
    ("cyber", "gcd",
      Ran (6, Cycles 8, Some 4),
      Ran (6, Cycles 8, Some 4),
      Ran (6, Cycles 8, Some 4));
    ("cyber", "fir",
      Ran (-68, Cycles 61, Some 10),
      Ran (-68, Cycles 61, Some 10),
      Ran (-68, Cycles 41, Some 12));
    ("cyber", "dotprod",
      Ran (-1224, Cycles 117, Some 10),
      Ran (-1224, Cycles 133, Some 11),
      Ran (-1224, Cycles 93, Some 14));
    ("cyber", "matmul",
      Ran (-3312, Cycles 567, Some 22),
      Ran (-3312, Cycles 663, Some 25),
      Ran (-3312, Cycles 419, Some 63));
    ("cyber", "producer_consumer",
      Ran (112, Cycles 11, None),
      Ran (112, Cycles 11, None),
      Ran (112, Cycles 11, None));
    ("handelc", "gcd",
      Ran (6, Cycles 7, None),
      Ran (6, Cycles 7, None),
      Ran (6, Cycles 7, None));
    ("handelc", "fir",
      Ran (-68, Cycles 36, None),
      Ran (-68, Cycles 36, None),
      Ran (-68, Cycles 28, None));
    ("handelc", "dotprod",
      Ran (-1224, Cycles 84, None),
      Ran (-1224, Cycles 84, None),
      Ran (-1224, Cycles 68, None));
    ("handelc", "matmul",
      Ran (-3312, Cycles 285, None),
      Ran (-3312, Cycles 285, None),
      Ran (-3312, Cycles 227, None));
    ("handelc", "producer_consumer",
      Ran (112, Cycles 29, None),
      Ran (112, Cycles 29, None),
      Ran (112, Cycles 25, None));
    ("specc", "gcd",
      Ran (6, Cycles 8, Some 4),
      Ran (6, Cycles 8, Some 4),
      Ran (6, Cycles 8, Some 4));
    ("specc", "fir",
      Ran (-68, Cycles 61, Some 10),
      Ran (-68, Cycles 61, Some 10),
      Ran (-68, Cycles 41, Some 12));
    ("specc", "dotprod",
      Ran (-1224, Cycles 117, Some 10),
      Ran (-1224, Cycles 133, Some 11),
      Ran (-1224, Cycles 93, Some 14));
    ("specc", "matmul",
      Ran (-3312, Cycles 567, Some 22),
      Ran (-3312, Cycles 663, Some 25),
      Ran (-3312, Cycles 419, Some 63));
    ("specc", "producer_consumer",
      Ran (112, Cycles 29, None),
      Ran (112, Cycles 29, None),
      Ran (112, Cycles 25, None));
    ("bachc", "gcd",
      Ran (6, Cycles 8, Some 4),
      Ran (6, Cycles 8, Some 4),
      Ran (6, Cycles 8, Some 4));
    ("bachc", "fir",
      Ran (-68, Cycles 61, Some 10),
      Ran (-68, Cycles 61, Some 10),
      Ran (-68, Cycles 41, Some 12));
    ("bachc", "dotprod",
      Ran (-1224, Cycles 117, Some 10),
      Ran (-1224, Cycles 133, Some 11),
      Ran (-1224, Cycles 93, Some 14));
    ("bachc", "matmul",
      Ran (-3312, Cycles 567, Some 22),
      Ran (-3312, Cycles 663, Some 25),
      Ran (-3312, Cycles 419, Some 63));
    ("bachc", "producer_consumer",
      Ran (112, Cycles 11, None),
      Ran (112, Cycles 11, None),
      Ran (112, Cycles 11, None));
    ("cash", "gcd",
      Ran (6, Time 436., None),
      Ran (6, Time 436., None),
      Ran (6, Time 436., None));
    ("cash", "fir",
      Ran (-68, Time 468., None),
      Ran (-68, Time 468., None),
      Ran (-68, Time 468., None));
    ("cash", "dotprod",
      Ran (-1224, Time 884., None),
      Ran (-1224, Time 884., None),
      Ran (-1224, Time 884., None));
    ("cash", "matmul",
      Ran (-3312, Time 3409., None),
      Ran (-3312, Time 3409., None),
      Ran (-3312, Time 3409., None));
    ("cash", "producer_consumer",
      Refused "dialect-reject",
      Refused "dialect-reject",
      Refused "dialect-reject") ]

let outcome backend (w : Workloads.t) config =
  let session = Driver.create ~entry:w.Workloads.entry w.Workloads.source in
  match Driver.compile ~config session backend with
  | Error e -> Refused (Driver.error_kind e)
  | Ok d ->
    let r = d.Design.run (Design.int_args (List.hd w.Workloads.arg_sets)) in
    let timing =
      match (r.Design.cycles, r.Design.time_units) with
      | Some c, None -> Cycles c
      | None, Some t -> Time t
      | _ -> Alcotest.fail (d.Design.backend ^ ": expected cycles or time")
    in
    let result =
      match r.Design.result with
      | Some v -> Bitvec.to_int v
      | None -> Alcotest.fail (d.Design.backend ^ ": void result")
    in
    Ran
      ( result,
        timing,
        Option.map int_of_string (List.assoc_opt "states" d.Design.stats) )

let pp_outcome ppf = function
  | Ran (v, Cycles c, s) ->
    Fmt.pf ppf "Ran (%d, Cycles %d, %a)" v c Fmt.(Dump.option int) s
  | Ran (v, Time t, s) ->
    Fmt.pf ppf "Ran (%d, Time %g, %a)" v t Fmt.(Dump.option int) s
  | Refused kind -> Fmt.pf ppf "Refused %S" kind

let outcome_t = Alcotest.testable pp_outcome ( = )

let test_table () =
  Alcotest.(check (list (pair string string)))
    "one row per compiling backend and kernel"
    (List.concat_map
       (fun b ->
         List.map (fun (w : Workloads.t) -> (Registry.name b, w.Workloads.name))
           kernels)
       (Registry.compiling ()))
    (List.map (fun (b, k, _, _, _) -> (b, k)) rows);
  List.iter
    (fun (b, k, a, c, u) ->
      let w = Option.get (Workloads.find k) in
      List.iter2
        (fun (label, config) expected ->
          Alcotest.check outcome_t
            (Printf.sprintf "%s %s, %s" b k label)
            expected
            (outcome (Registry.get b) w config))
        configs [ a; c; u ])
    rows

let suite =
  ( "config-pins",
    [ Alcotest.test_case "backend x kernel x config table" `Quick test_table ] )
