(* The statement machine pinned to literal values: every result and
   cycle count the Handel-C machine gives on the kernel suite, on the
   concurrent kernels under the [`Scheduled] packing of Bach C,
   HardwareC and SystemC and SpecC's refinement levels, and on two small
   programs whose cycle counts depend on exactly which items cost a
   cycle.  The oracle's step counts ride along: the interpreter's thread
   machine runs every one of these programs too. *)

(* (kernel, args, result, handelc cycles, oracle steps) for every kernel
   the Handel-C dialect accepts *)
let handelc_kernels =
  [ ("gcd", [ 54; 24 ], 6, 7, 14);
    ("gcd", [ 1071; 462 ], 21, 10, 19);
    ("gcd", [ 17; 5 ], 1, 10, 19);
    ("gcd", [ 270; 192 ], 6, 13, 24);
    ("fib", [ 10 ], 55, 44, 68);
    ("fib", [ 0 ], 0, 4, 8);
    ("fib", [ 1 ], 1, 8, 14);
    ("fib", [ 24 ], 46368, 100, 152);
    ("fir", [ 1; 2 ], -68, 36, 77);
    ("fir", [ 5; -3 ], 76, 36, 77);
    ("fir", [ 100; 7 ], -624, 36, 77);
    ("dotprod", [ 1; 1 ], -1224, 84, 156);
    ("dotprod", [ 3; -2 ], -1936, 84, 156);
    ("dotprod", [ 7; 11 ], 472, 84, 156);
    ("matmul", [ 1 ], -3312, 285, 609);
    ("matmul", [ 3 ], -1328, 285, 609);
    ("matmul", [ -2 ], -4368, 285, 609);
    ("bsort", [ 7 ], 7935054, 273, 663);
    ("bsort", [ 1 ], 3351506, 252, 642);
    ("bsort", [ 13 ], 3724048, 276, 666);
    ("crc", [ 0 ], 129, 77, 145);
    ("crc", [ 165 ], 144, 77, 145);
    ("crc", [ 4660 ], 182, 77, 145);
    ("popcount", [ 0 ], 0, 3, 6);
    ("popcount", [ 43981 ], 10, 35, 70);
    ("popcount", [ -1 ], 32, 67, 134);
    ("checksum", [ 3 ], 23593068, 85, 125);
    ("checksum", [ 100 ], 786435600, 85, 125);
    ("checksum", [ -9 ], -70713668, 85, 125);
    ("histogram", [ 1 ], -547221728, 133, 241);
    ("histogram", [ 5 ], -492105440, 133, 241);
    ("histogram", [ -3 ], 989499680, 133, 241);
    ("isqrt_newton", [ 123456 ], 351, 25, 52);
    ("isqrt_newton", [ 0 ], 0, 1, 2);
    ("isqrt_newton", [ 17 ], 4, 9, 20);
    ("isqrt_newton", [ 10000 ], 100, 21, 44);
    ("transpose", [ 2 ], 1678033216, 101, 213);
    ("transpose", [ 9 ], 594449856, 101, 213);
    ("adpcm", [ 0; 3 ], 51292334, 114, 310);
    ("adpcm", [ 100; -7 ], -1243107158, 133, 329);
    ("adpcm", [ 512; 64 ], -1243073416, 150, 346);
    ("aes_sbox", [ 0 ], 99, 18, 32);
    ("aes_sbox", [ 1 ], 124, 624, 1454);
    ("aes_sbox", [ 83 ], 237, 731, 1561);
    ("aes_sbox", [ 255 ], 22, 718, 1548);
    ("iir", [ 16; 4 ], 174668008, 135, 171);
    ("iir", [ 0; 0 ], 0, 135, 171);
    ("iir", [ 200; -16 ], 1899680171, 135, 171);
    ("insertion_sort", [ 3 ], -97993177, 127, 270);
    ("insertion_sort", [ 11 ], -92436699, 145, 306);
    ("insertion_sort", [ -5 ], -82397465, 81, 178);
    ("odd_even_sort", [ 6 ], 99557016, 171, 447);
    ("odd_even_sort", [ 1 ], 21071820, 159, 435);
    ("odd_even_sort", [ -9 ], -272472292, 171, 447);
    ("crc32", [ 0 ], 558161692, 148, 280);
    ("crc32", [ 305419896 ], -1351776302, 148, 280);
    ("crc32", [ -1 ], -1, 132, 264);
    ("adler32", [ 1 ], 1054869625, 68, 104);
    ("adler32", [ 77 ], 1335888153, 68, 104);
    ("adler32", [ -4 ], 818939425, 68, 104);
    ("producer_consumer", [ 4 ], 112, 29, 87);
    ("producer_consumer", [ 9 ], 252, 29, 87);
    ("adler32_par", [ 1 ], 1054869625, 70, 176);
    ("adler32_par", [ 77 ], 1335888153, 70, 176) ]

(* the kernels the Handel-C dialect rejects (pointers, recursion) *)
let handelc_rejects = [ "pointer_sum"; "recursion"; "dynamic_list"; "fir_ptr" ]

(* (kernel, args, result, oracle steps) for every vector of the
   rejects: the oracle's pointer, call and heap paths *)
let reject_oracle =
  [ ("pointer_sum", [ 5 ], 335, 93);
    ("pointer_sum", [ -2 ], 265, 93);
    ("recursion", [ 6 ], 2108, 65);
    ("recursion", [ 10 ], 5555, 377);
    ("dynamic_list", [ 5 ], 30, 66);
    ("dynamic_list", [ 9 ], 204, 110);
    ("fir_ptr", [ 1; 2 ], -68, 78);
    ("fir_ptr", [ 5; -3 ], 76, 78) ]

(* (backend, kernel, args, result, cycles) on the concurrent kernels:
   Bach C, HardwareC and SystemC run them under [`Scheduled]; the specc
   design is the one-cycle-per-assignment communication level *)
let concurrent_kernels =
  [ ("bachc", "producer_consumer", [ 4 ], 112, 11);
    ("hardwarec", "producer_consumer", [ 4 ], 112, 11);
    ("systemc", "producer_consumer", [ 4 ], 112, 11);
    ("specc", "producer_consumer", [ 4 ], 112, 29);
    ("bachc", "producer_consumer", [ 9 ], 252, 11);
    ("hardwarec", "producer_consumer", [ 9 ], 252, 11);
    ("systemc", "producer_consumer", [ 9 ], 252, 11);
    ("specc", "producer_consumer", [ 9 ], 252, 29);
    ("bachc", "adler32_par", [ 1 ], 1054869625, 35);
    ("hardwarec", "adler32_par", [ 1 ], 1054869625, 35);
    ("systemc", "adler32_par", [ 1 ], 1054869625, 35);
    ("specc", "adler32_par", [ 1 ], 1054869625, 70);
    ("bachc", "adler32_par", [ 77 ], 1335888153, 35);
    ("hardwarec", "adler32_par", [ 77 ], 1335888153, 35);
    ("systemc", "adler32_par", [ 77 ], 1335888153, 35);
    ("specc", "adler32_par", [ 77 ], 1335888153, 70) ]

(* (kernel, args, architecture cycles, communication cycles): SpecC's
   refinement runs the concurrent kernels under both policies *)
let specc_levels =
  [ ("producer_consumer", [ 4 ], 11, 29);
    ("producer_consumer", [ 9 ], 11, 29);
    ("adler32_par", [ 1 ], 35, 70);
    ("adler32_par", [ 77 ], 35, 70) ]

(* Makes [`Scheduled] defer every way.  In the par, [b] reads [a],
   written earlier in the same turn, and the first for-step reads [i]
   and [k], both written earlier in the turn; the second for-step is a
   call, not an assignment.  After the join, [e = n + 1] is over the
   8-op cap only because the eight initialisers before it count, and
   the eighth of the nine independent assignments after it is over the
   cap again. *)
let defer_source =
  "int g;\n\
   void bump(void) { g = g + 1; }\n\
   int f(int n) {\n\
  \  int a = 0; int b = 0; int i = 0; int k = 1; int m = 0;\n\
  \  par {\n\
  \    { a = n + 1; b = a + 2; }\n\
  \    { for (i = 0; i < n; i = i + k) { k = k + 1; } }\n\
  \    { for (m = 0; g < n; bump()) { m = m + 1; } }\n\
  \  }\n\
  \  int e; int c1; int c2; int c3; int c4; int c5; int c6; int c7;\n\
  \  int c8; int c9;\n\
  \  int d1 = n; int d2 = n; int d3 = n; int d4 = n;\n\
  \  int d5 = n; int d6 = n; int d7 = n; int d8 = n;\n\
  \  e = n + 1;\n\
  \  c1 = n; c2 = n + 1; c3 = n + 2; c4 = n + 3; c5 = n + 4;\n\
  \  c6 = n + 5; c7 = n + 6; c8 = n + 7; c9 = n + 8;\n\
  \  return a + b + i + k + m + g + d1 + d8 + e + c1 + c5 + c9;\n\
   }"

(* 3 delays, then the send/recv transfer, then the join *)
let channel_source =
  "chan int c;\n\
   int run(int n) {\n\
  \  int got = 0;\n\
  \  par {\n\
  \    { delay; delay; delay; send(c, n * 2); }\n\
  \    { got = recv(c); }\n\
  \  }\n\
  \  return got;\n\
   }"

(* (backend, source, entry, args, result, cycles) *)
let programs =
  [ ("bachc", defer_source, "f", [ 5 ], 75, 10);
    ("hardwarec", defer_source, "f", [ 5 ], 75, 10);
    ("systemc", defer_source, "f", [ 5 ], 75, 10);
    ("handelc", defer_source, "f", [ 5 ], 75, 37);
    ("bachc", defer_source, "f", [ 40 ], 470, 45);
    ("hardwarec", defer_source, "f", [ 40 ], 470, 45);
    ("systemc", defer_source, "f", [ 40 ], 470, 45);
    ("handelc", defer_source, "f", [ 40 ], 470, 107);
    ("handelc", channel_source, "run", [ 21 ], 42, 8) ]

let run backend source entry args =
  let session = Driver.create ~entry source in
  match Driver.compile session (Registry.get backend) with
  | Error e -> Alcotest.fail (Driver.render_error e)
  | Ok d -> (
    let r = d.Design.run (Design.int_args args) in
    match (r.Design.result, r.Design.cycles) with
    | Some v, Some cycles -> (Bitvec.to_int v, cycles)
    | _ -> Alcotest.failf "%s %s: no result or no cycles" backend entry)

let kernel name =
  match Workloads.find name with
  | Some w -> w
  | None -> Alcotest.failf "no kernel %s" name

let row backend name args =
  Printf.sprintf "%s %s(%s)" backend name
    (String.concat "," (List.map string_of_int args))

let test_handelc_kernels () =
  List.iter
    (fun (name, args, result, cycles, steps) ->
      let w = kernel name in
      let what = row "handelc" name args in
      Alcotest.(check (pair int int))
        (what ^ ": result, cycles") (result, cycles)
        (run "handelc" w.Workloads.source w.Workloads.entry args);
      let o =
        Interp.run (Workloads.parse w) ~entry:w.Workloads.entry
          ~args:(Design.int_args args)
      in
      Alcotest.(check int) (row "oracle" name args ^ ": steps") steps
        o.Interp.steps)
    handelc_kernels;
  (* the table covers every kernel: the ones it leaves out are rejects *)
  List.iter
    (fun (w : Workloads.t) ->
      let pinned =
        List.exists (fun (n, _, _, _, _) -> n = w.Workloads.name)
          handelc_kernels
      in
      let session = Driver.create ~entry:w.Workloads.entry w.Workloads.source in
      let accepted =
        Result.is_ok (Driver.compile session (Registry.get "handelc"))
      in
      Alcotest.(check bool) (w.Workloads.name ^ " pinned iff accepted")
        accepted pinned;
      Alcotest.(check bool) (w.Workloads.name ^ " rejected iff listed")
        (not accepted)
        (List.mem w.Workloads.name handelc_rejects))
    Workloads.all

let test_reject_oracle () =
  List.iter
    (fun (name, args, result, steps) ->
      let w = kernel name in
      let o =
        Interp.run (Workloads.parse w) ~entry:w.Workloads.entry
          ~args:(Design.int_args args)
      in
      Alcotest.(check (pair (option int) int))
        (row "oracle" name args ^ ": result, steps")
        (Some result, steps)
        (Option.map Bitvec.to_int o.Interp.return_value, o.Interp.steps))
    reject_oracle;
  (* every vector of every reject is pinned *)
  List.iter
    (fun name ->
      Alcotest.(check int) (name ^ " vectors pinned")
        (List.length (kernel name).Workloads.arg_sets)
        (List.length
           (List.filter (fun (n, _, _, _) -> n = name) reject_oracle)))
    handelc_rejects

let test_concurrent_kernels () =
  List.iter
    (fun (backend, name, args, result, cycles) ->
      let w = kernel name in
      Alcotest.(check (pair int int))
        (row backend name args ^ ": result, cycles") (result, cycles)
        (run backend w.Workloads.source w.Workloads.entry args))
    concurrent_kernels;
  List.iter
    (fun (name, args, arch, comm) ->
      let w = kernel name in
      let _, report =
        Specc.refine (Workloads.parse w) ~entry:w.Workloads.entry
          ~test_vectors:[ args ]
      in
      let cycles level =
        match
          List.find_opt (fun c -> c.Specc.level = level) report.Specc.checks
        with
        | Some { Specc.cycles = Some c; equivalent = true; _ } -> c
        | Some _ | None ->
          Alcotest.failf "%s: %s" (row "specc" name args)
            (Specc.string_of_level level)
      in
      Alcotest.(check (pair int int))
        (row "specc" name args ^ ": architecture, communication cycles")
        (arch, comm)
        (cycles Specc.Architecture, cycles Specc.Communication))
    specc_levels

let test_programs () =
  List.iter
    (fun (backend, source, entry, args, result, cycles) ->
      Alcotest.(check (pair int int))
        (row backend entry args ^ ": result, cycles") (result, cycles)
        (run backend source entry args);
      Alcotest.(check int) (row "oracle" entry args) result
        (Interp.run_int source ~entry ~args))
    programs

let suite =
  ( "statement-machine",
    [ Alcotest.test_case "handelc kernels pinned" `Quick test_handelc_kernels;
      Alcotest.test_case "oracle on the handelc rejects pinned" `Quick
        test_reject_oracle;
      Alcotest.test_case "concurrent kernels pinned" `Quick
        test_concurrent_kernels;
      Alcotest.test_case "packing and channel programs pinned" `Quick
        test_programs ] )
