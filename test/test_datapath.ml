(* The CIR simulators pinned to literal values: on every sequential
   kernel and argument vector, the result and dynamic instruction count
   of Cir_interp on the function [Passes.lower_simplify] produces, the
   event-driven FSMD cycles of a buffered-store design (Bach C) and of
   the forwarding one (Transmogrifier C), the SystemC kernel's cycles,
   and CASH's tokens fired and completion time.  The Bitvec simulators
   differ only in timing, so these numbers are what a change to their
   shared datapath must leave alone. *)

(* (kernel, args, result, Cir_interp dynamic instructions, bachc cycles,
   transmogrifier cycles, systemc cycles, CASH tokens fired, CASH time
   units) *)
let rows =
  [
    ("gcd", [ 54; 24 ], 6, 20, 8, 6, 8, 23, 436.);
    ("gcd", [ 1071; 462 ], 21, 28, 11, 8, 11, 32, 646.);
    ("gcd", [ 17; 5 ], 1, 28, 11, 8, 11, 32, 646.);
    ("gcd", [ 270; 192 ], 6, 36, 14, 10, 14, 41, 856.);
    ("fib", [ 10 ], 55, 108, 23, 23, 23, 129, 279.);
    ("fib", [ 0 ], 0, 8, 3, 3, 3, 9, 19.);
    ("fib", [ 1 ], 1, 18, 5, 5, 5, 21, 45.);
    ("fib", [ 24 ], 46368, 248, 51, 51, 51, 297, 643.);
    ("fir", [ 1; 2 ], -68, 172, 61, 37, 61, 180, 468.);
    ("fir", [ 5; -3 ], 76, 172, 61, 37, 61, 180, 468.);
    ("fir", [ 100; 7 ], -624, 172, 61, 37, 61, 180, 468.);
    ("dotprod", [ 1; 1 ], -1224, 348, 117, 69, 117, 364, 884.);
    ("dotprod", [ 3; -2 ], -1936, 348, 117, 69, 117, 364, 884.);
    ("dotprod", [ 7; 11 ], 472, 348, 117, 69, 117, 364, 884.);
    ("matmul", [ 1 ], -3312, 1581, 567, 279, 567, 1677, 3409.);
    ("matmul", [ 3 ], -1328, 1581, 567, 279, 567, 1677, 3409.);
    ("matmul", [ -2 ], -4368, 1581, 567, 279, 567, 1677, 3409.);
    ("bsort", [ 7 ], 7935054, 1611, 555, 341, 555, 1579, 5173.);
    ("bsort", [ 1 ], 3351506, 1555, 534, 334, 534, 1530, 5173.);
    ("bsort", [ 13 ], 3724048, 1619, 558, 342, 558, 1586, 5173.);
    ("crc", [ 0 ], 129, 291, 60, 60, 60, 331, 755.);
    ("crc", [ 165 ], 144, 291, 60, 60, 60, 331, 755.);
    ("crc", [ 4660 ], 182, 291, 60, 60, 60, 331, 755.);
    ("popcount", [ 0 ], 0, 7, 3, 3, 3, 7, 18.);
    ("popcount", [ 43981 ], 10, 151, 35, 35, 35, 167, 402.);
    ("popcount", [ -1 ], 32, 295, 67, 67, 67, 327, 786.);
    ("checksum", [ 3 ], 23593068, 231, 54, 37, 54, 248, 504.);
    ("checksum", [ 100 ], 786435600, 231, 54, 37, 54, 248, 504.);
    ("checksum", [ -9 ], -70713668, 231, 54, 37, 54, 248, 504.);
    ("histogram", [ 1 ], -547221728, 697, 239, 103, 239, 705, 1398.);
    ("histogram", [ 5 ], -492105440, 697, 239, 103, 239, 705, 1398.);
    ("histogram", [ -3 ], 989499680, 697, 239, 103, 239, 705, 1398.);
    ("isqrt_newton", [ 123456 ], 351, 112, 62, 26, 62, 123, 5007.);
    ("isqrt_newton", [ 0 ], 0, 4, 2, 2, 2, 3, 15.);
    ("isqrt_newton", [ 17 ], 4, 40, 22, 10, 22, 43, 1679.);
    ("isqrt_newton", [ 10000 ], 100, 94, 52, 22, 52, 103, 4175.);
    ("transpose", [ 2 ], 1678033216, 499, 155, 99, 155, 515, 1377.);
    ("transpose", [ 9 ], 594449856, 499, 155, 99, 155, 515, 1377.);
    ("adpcm", [ 0; 3 ], 51292334, 615, 207, 145, 207, 715, 5741.);
    ("adpcm", [ 100; -7 ], -1243107158, 671, 224, 158, 224, 758, 5879.);
    ("adpcm", [ 512; 64 ], -1243073416, 723, 244, 172, 244, 796, 5970.);
    ("aes_sbox", [ 0 ], 99, 67, 16, 12, 16, 77, 872.);
    ("aes_sbox", [ 1 ], 124, 2805, 718, 586, 718, 3457, 27696.);
    ("aes_sbox", [ 83 ], 237, 3126, 825, 693, 825, 3671, 27696.);
    ("aes_sbox", [ 255 ], 22, 3087, 812, 680, 812, 3645, 27696.);
    ("iir", [ 16; 4 ], 174668008, 443, 163, 35, 163, 527, 3902.);
    ("iir", [ 0; 0 ], 0, 443, 163, 35, 163, 527, 3902.);
    ("iir", [ 200; -16 ], 1899680171, 443, 163, 35, 163, 527, 3902.);
    ("insertion_sort", [ 3 ], -97993177, 802, 179, 129, 179, 812, 2610.);
    ("insertion_sort", [ 11 ], -92436699, 946, 197, 147, 197, 956, 3042.);
    ("insertion_sort", [ -5 ], -82397465, 434, 133, 83, 133, 444, 1506.);
    ("odd_even_sort", [ 6 ], 99557016, 1001, 349, 213, 349, 991, 4125.);
    ("odd_even_sort", [ 1 ], 21071820, 969, 337, 209, 337, 963, 4125.);
    ("odd_even_sort", [ -9 ], -272472292, 1001, 349, 213, 349, 991, 4125.);
    ("crc32", [ 0 ], 558161692, 569, 115, 115, 115, 650, 1494.);
    ("crc32", [ 305419896 ], -1351776302, 569, 115, 115, 115, 650, 1494.);
    ("crc32", [ -1 ], -1, 521, 99, 99, 99, 618, 1494.);
    ("adler32", [ 1 ], 1054869625, 282, 148, 35, 148, 315, 3622.);
    ("adler32", [ 77 ], 1335888153, 282, 148, 35, 148, 315, 3622.);
    ("adler32", [ -4 ], 818939425, 282, 148, 35, 148, 315, 3622.) ]

let design backend (w : Workloads.t) =
  let session = Driver.create ~entry:w.Workloads.entry w.Workloads.source in
  match Driver.compile session (Registry.get backend) with
  | Ok d -> d
  | Error e -> Alcotest.fail (Driver.render_error e)

let test_sequential_kernels () =
  List.iter
    (fun (w : Workloads.t) ->
      let func =
        (fst (Passes.lower_simplify (Workloads.parse w) ~entry:w.Workloads.entry))
          .Lower.func
      in
      let bachc = design "bachc" w and transmogrifier = design "transmogrifier" w
      and systemc = design "systemc" w and cash = design "cash" w in
      let pinned =
        List.filter (fun (n, _, _, _, _, _, _, _, _) -> n = w.Workloads.name) rows
      in
      Alcotest.(check (list (list int)))
        (w.Workloads.name ^ ": one row per vector") w.Workloads.arg_sets
        (List.map (fun (_, args, _, _, _, _, _, _, _) -> args) pinned);
      List.iter
        (fun (_, args, result, instrs, bachc_cycles, tm_cycles, sc_cycles,
              tokens, time) ->
          let what =
            Printf.sprintf "%s(%s)" w.Workloads.name
              (String.concat "," (List.map string_of_int args))
          in
          let o = Cir_interp.run func ~args:(Design.int_args args) in
          Alcotest.(check (pair (option int) int))
            (what ^ ": cir result, dynamic instrs") (Some result, instrs)
            (Option.map Bitvec.to_int o.Cir_interp.return_value,
             o.Cir_interp.dynamic_instrs);
          let run ?sim d =
            let r = d.Design.run ?sim (Design.int_args args) in
            Alcotest.(check (option int))
              (what ^ ": " ^ d.Design.backend ^ " result") (Some result)
              (Option.map Bitvec.to_int r.Design.result);
            r
          in
          let cycles ?sim d = (run ?sim d).Design.cycles in
          Alcotest.(check (list (option int)))
            (what ^ ": bachc, transmogrifier, systemc cycles")
            [ Some bachc_cycles; Some tm_cycles; Some sc_cycles ]
            [ cycles ~sim:Design.Event_driven bachc;
              cycles ~sim:Design.Event_driven transmogrifier;
              cycles ~sim:Design.Event_driven systemc ];
          let r = run cash in
          Alcotest.(check (pair (option int) (option (float 0.))))
            (what ^ ": cash tokens, time units")
            (Some tokens, Some time)
            ( (match Metrics.find r.Design.metrics "sim.tokens_fired" with
              | Some (Metrics.Int n) -> Some n
              | _ -> None),
              r.Design.time_units ))
        pinned)
    Workloads.sequential;
  Alcotest.(check int) "every row is a sequential kernel's"
    (List.length rows)
    (List.length (List.concat_map (fun w -> w.Workloads.arg_sets) Workloads.sequential))

let suite =
  ( "datapath",
    [ Alcotest.test_case "sequential kernels pinned" `Quick
        test_sequential_kernels ] )
