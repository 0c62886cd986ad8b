(* Quickstart: compile one C function to hardware with three of the
   surveyed schemes, simulate each, and check them against the software
   semantics.

   Run with:  dune exec examples/quickstart.exe *)

let source =
  {|
  int isqrt(int x) {
    int r = 0;
    while ((r + 1) * (r + 1) <= x) {
      r = r + 1;
    }
    return r;
  }
  |}

let () =
  print_endline "CHLS quickstart: integer square root, three ways\n";
  print_endline "Source:";
  print_endline source;
  (* 1. the software semantics (what C says the program means) *)
  let inputs = [ 0; 1; 15; 16; 17; 1000 ] in
  Printf.printf "Software oracle: %s\n\n"
    (String.concat ", "
       (List.map
          (fun x ->
            Printf.sprintf "isqrt(%d)=%d" x
              (Interp.run_int source ~entry:"isqrt" ~args:[ x ]))
          inputs));
  (* 2. synthesize with three different timing disciplines *)
  let program = Typecheck.parse_and_check source in
  List.iter
    (fun backend ->
      let design = Registry.compile backend program ~entry:"isqrt" in
      Printf.printf "--- %s ---\n" (Registry.name backend);
      List.iter
        (fun x ->
          let r = design.Design.run (Design.int_args [ x ]) in
          Printf.printf "  isqrt(%d) = %s%s\n" x
            (match r.Design.result with
            | Some v -> string_of_int (Bitvec.to_int v)
            | None -> "?")
            (match r.Design.cycles with
            | Some c -> Printf.sprintf "  (%d cycles)" c
            | None -> (
              match r.Design.time_units with
              | Some t -> Printf.sprintf "  (%.0f time units, no clock)" t
              | None -> "")))
        inputs;
      (* every backend must agree with the oracle *)
      let session = Driver.create ~entry:"isqrt" source in
      Printf.printf "  matches software semantics: %b\n\n"
        (List.for_all
           (fun x ->
             match Driver.check session design ~args:[ x ] with
             | Ok v -> v.Driver.agrees
             | Error _ -> false)
           inputs))
    [ (Registry.get "transmogrifier"); (Registry.get "handelc"); (Registry.get "cash") ];
  (* 3. look at generated RTL *)
  let design = Registry.compile (Registry.get "bachc") program ~entry:"isqrt" in
  match design.Design.verilog () with
  | Some v ->
    let lines = String.split_on_char '\n' v in
    Printf.printf "First lines of the Bach C backend's Verilog (%d lines):\n"
      (List.length lines);
    List.iteri (fun i l -> if i < 12 then Printf.printf "  %s\n" l) lines
  | None -> print_endline "no Verilog view"
