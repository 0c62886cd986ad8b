(* DSP scenario: an 8-tap FIR filter, the workload the surveyed languages
   were marketed on.  Synthesizes it with every scheme that accepts it,
   compares cycles / clock / wall-time / area, and writes the Bach C
   RTL to fir.v.

   Run with:  dune exec examples/fir_filter.exe *)

let w = Workloads.fir

let () =
  Printf.printf "FIR filter across the surveyed synthesis schemes\n\n%s\n"
    w.Workloads.source;
  let program = Workloads.parse w in
  let session = Driver.create ~entry:w.Workloads.entry w.Workloads.source in
  Printf.printf "%-16s %8s %8s %11s %12s %8s\n" "backend" "cycles" "clock"
    "wall time" "area (GE)" "correct";
  print_endline (String.make 70 '-');
  List.iter
    (fun backend ->
      if Dialect.check (Registry.dialect backend) program = [] then begin
        let design =
          Registry.compile backend program ~entry:w.Workloads.entry
        in
        let ok =
          List.for_all
            (fun args ->
              match Driver.check session design ~args with
              | Ok v -> v.Driver.agrees
              | Error _ -> false)
            w.Workloads.arg_sets
        in
        let r = design.Design.run (Design.int_args [ 1; 2 ]) in
        Printf.printf "%-16s %8s %8s %11s %12s %8b\n"
          (Registry.name backend)
          (match r.Design.cycles with
          | Some c -> string_of_int c
          | None -> "-")
          (match design.Design.clock_period with
          | Some p -> Printf.sprintf "%.1f" p
          | None -> "-")
          (match Design.latency_estimate design r with
          | Some t -> Printf.sprintf "%.0f" t
          | None -> "-")
          (match design.Design.area () with
          | Some a -> Printf.sprintf "%.0f" a.Area.total_area
          | None -> "-")
          ok
      end)
    (Registry.compiling ());
  (* pipelining analysis of the accumulation loop *)
  print_newline ();
  let lowered, _ = Passes.lower_simplify program ~entry:w.Workloads.entry in
  let func = lowered.Lower.func in
  (match Pipeline.modulo_schedule func with
  | r ->
    Printf.printf
      "Pipelining the inner loop: II=%d (RecMII=%d, ResMII=%d), %.2fx \
       throughput\n"
      r.Pipeline.ii r.Pipeline.rec_mii r.Pipeline.res_mii r.Pipeline.speedup
  | exception Pipeline.Irregular reason ->
    Printf.printf "Loop not pipelineable: %s\n" reason);
  (* dump RTL *)
  let design = Registry.compile (Registry.get "bachc") program ~entry:"fir" in
  match design.Design.verilog () with
  | Some v ->
    Out_channel.with_open_text "fir.v" (fun oc -> output_string oc v);
    Printf.printf "Wrote Bach C RTL to fir.v (%d bytes)\n" (String.length v)
  | None -> ()
