(* The pass manager.

   Each backend's hand-rolled Lower -> Simplify dance becomes a declared
   pipeline run through one engine that times every pass, records IR-size
   deltas, honours dump hooks, and (when verification vectors are set)
   differentially checks every semantics-preserving pass: CIR passes
   against Cir_interp, source passes against the reference interpreter.
   A pass that changes observable behaviour on any vector fails loudly
   here, at the pass boundary, instead of surfacing as an end-to-end
   backend mismatch. *)

type size = { blocks : int; instrs : int; regs : int }

type level = Source | Ir

type record = {
  pass_name : string;
  level : level;
  start_ms : float;
  wall_ms : float;
  before : size;
  after : size;
  verified : int;
}

type trace = record list

type func_pass = {
  fp_name : string;
  fp_transform : Cir.func -> Cir.func;
  fp_preserves_semantics : bool;
}

type program_pass = {
  pp_name : string;
  pp_transform : Ast.program -> Ast.program;
  pp_preserves_semantics : bool;
}

let func_pass ?(preserves_semantics = true) name transform =
  { fp_name = name; fp_transform = transform;
    fp_preserves_semantics = preserves_semantics }

let program_pass ?(preserves_semantics = true) name transform =
  { pp_name = name; pp_transform = transform;
    pp_preserves_semantics = preserves_semantics }

let simplify_pass =
  func_pass "simplify" (fun f -> fst (Simplify.simplify f))

let unroll_loops_pass = program_pass "unroll-loops" Loopopt.unroll_all_program

let unroll_factor_pass factor =
  program_pass
    (Printf.sprintf "unroll-x%d" factor)
    (Loopopt.unroll_factor_program ~factor)

type pipeline = {
  pl_name : string;
  pl_program_passes : program_pass list;
  pl_func_passes : func_pass list;
  pl_lowers : bool;
}

let pipeline ?(program_passes = []) ?(func_passes = []) ?(lowers = true) name =
  { pl_name = name; pl_program_passes = program_passes;
    pl_func_passes = func_passes; pl_lowers = lowers }

let describe pl =
  let stages =
    List.map (fun p -> p.pp_name) pl.pl_program_passes
    @ (if pl.pl_lowers then [ "lower" ] else [])
    @ List.map (fun p -> p.fp_name) pl.pl_func_passes
  in
  match stages with [] -> "(source only)" | _ -> String.concat "; " stages

(* --- options ---------------------------------------------------------- *)

type options = {
  verify : int list list;
  dump_after : string list;
  dump_sink : string -> unit;
}

(* Options travel with each compile's configuration ([?options] on
   {!run} and friends, carried by [Config.t] above this library), so
   concurrent compiles under the serve Domain pool cannot bleed options
   into each other. *)
let default_options = { verify = []; dump_after = []; dump_sink = print_string }

(* --- sizes and rendering ---------------------------------------------- *)

let size_of_func (f : Cir.func) =
  { blocks = Cir.num_blocks f;
    instrs = Cir.num_instrs f;
    regs = f.Cir.fn_reg_count }

let size_of_program (p : Ast.program) =
  let stmts = ref 0 in
  List.iter
    (Ast.iter_func ~stmt:(fun _ -> incr stmts) ~expr:(fun _ -> ()))
    p.Ast.funcs;
  { blocks = List.length p.Ast.funcs; instrs = !stmts; regs = 0 }

let render_table (t : trace) =
  let buf = Buffer.create 256 in
  let delta a b = if a = b then string_of_int a else Printf.sprintf "%d->%d" a b in
  let rows =
    List.map
      (fun r ->
        let unit_name =
          if r.pass_name = "lower" then "src->cir"
          else
            match r.level with
            | Source -> "funcs/stmts"
            | Ir -> "blocks/instrs"
        in
        [ r.pass_name;
          Printf.sprintf "%.2f" r.wall_ms;
          delta r.before.blocks r.after.blocks;
          delta r.before.instrs r.after.instrs;
          (if r.level = Source then "-" else delta r.before.regs r.after.regs);
          (if r.verified > 0 then Printf.sprintf "%d vectors" r.verified
           else "-");
          unit_name ])
      t
  in
  let header =
    [ "pass"; "ms"; "blocks"; "instrs"; "regs"; "verified"; "units" ]
  in
  let widths =
    List.fold_left
      (fun ws row -> List.map2 (fun w c -> max w (String.length c)) ws row)
      (List.map String.length header)
      rows
  in
  let emit row =
    List.iteri
      (fun i (w, c) ->
        Buffer.add_string buf c;
        if i < List.length row - 1 then
          Buffer.add_string buf (String.make (w - String.length c + 2) ' '))
      (List.combine widths row);
    Buffer.add_char buf '\n'
  in
  emit header;
  Buffer.add_string buf
    (String.make (List.fold_left ( + ) 0 widths + (2 * (List.length widths - 1))) '-');
  Buffer.add_char buf '\n';
  List.iter emit rows;
  Buffer.contents buf

(* --- differential verification ---------------------------------------- *)

exception Verification_failed of string

let fail_verification fmt =
  Printf.ksprintf (fun m -> raise (Verification_failed m)) fmt

let bitvec_args vector = List.map (Bitvec.of_int ~width:64) vector

let show_vector vector = String.concat "," (List.map string_of_int vector)

let show_value = function
  | Some v -> string_of_int (Bitvec.to_int v)
  | None -> "void"

(* One CIR execution, summarized for comparison.  Timeout is not a
   verdict: a pass may legitimately change dynamic instruction counts, so
   a vector where either side times out is skipped, not failed. *)
let cir_observation func vector =
  match Cir_interp.run func ~args:(bitvec_args vector) with
  | o -> Some (o.Cir_interp.return_value, o.Cir_interp.globals, o.Cir_interp.memories)
  | exception Cir_interp.Timeout -> None

let verify_func_pass ~pipeline_name ~pass_name ~before ~after vectors =
  let checked = ref 0 in
  List.iter
    (fun vector ->
      match (cir_observation before vector, cir_observation after vector) with
      | None, None -> ()
      | None, Some _ | Some _, None ->
        fail_verification
          "pipeline %s, pass %s: Cir_interp timeout on only one side for (%s)"
          pipeline_name pass_name (show_vector vector)
      | Some (r0, g0, m0), Some (r1, g1, m1) ->
        incr checked;
        let value_eq a b =
          match (a, b) with
          | None, None -> true
          | Some a, Some b -> Bitvec.equal a b
          | _ -> false
        in
        if not (value_eq r0 r1) then
          fail_verification
            "pipeline %s, pass %s diverges on (%s): result %s before, %s after"
            pipeline_name pass_name (show_vector vector) (show_value r0)
            (show_value r1);
        List.iter
          (fun (name, v0) ->
            match List.assoc_opt name g1 with
            | Some v1 when Bitvec.equal v0 v1 -> ()
            | _ ->
              fail_verification
                "pipeline %s, pass %s diverges on (%s): global %s changed"
                pipeline_name pass_name (show_vector vector) name)
          g0;
        List.iter
          (fun (name, a0) ->
            match List.assoc_opt name m1 with
            | Some a1
              when Array.length a0 = Array.length a1
                   && Array.for_all2 Bitvec.equal a0 a1 -> ()
            | _ ->
              fail_verification
                "pipeline %s, pass %s diverges on (%s): memory %s changed"
                pipeline_name pass_name (show_vector vector) name)
          m0)
    vectors;
  !checked

(* Source-level passes are checked against the reference interpreter (CIR
   does not exist yet at that point); only the return value is compared —
   the source store is not observable through Design. *)
let source_observation program ~entry vector =
  match Interp.run program ~entry ~args:(bitvec_args vector) with
  | o -> Some o.Interp.return_value
  | exception (Interp.Timeout | Interp.Deadlock) -> None

let verify_program_pass ~pipeline_name ~pass_name ~entry ~before ~after vectors
    =
  let checked = ref 0 in
  List.iter
    (fun vector ->
      match
        ( source_observation before ~entry vector,
          source_observation after ~entry vector )
      with
      | None, None -> ()
      | None, Some _ | Some _, None ->
        fail_verification
          "pipeline %s, pass %s: interpreter timeout on only one side for (%s)"
          pipeline_name pass_name (show_vector vector)
      | Some r0, Some r1 ->
        incr checked;
        let eq =
          match (r0, r1) with
          | None, None -> true
          | Some a, Some b -> Bitvec.equal a b
          | _ -> false
        in
        if not eq then
          fail_verification
            "pipeline %s, pass %s diverges on (%s): result %s before, %s after"
            pipeline_name pass_name (show_vector vector) (show_value r0)
            (show_value r1))
    vectors;
  !checked

(* --- running ----------------------------------------------------------- *)

let timed f =
  let t0 = Sys.time () in
  let result = f () in
  (result, (Sys.time () -. t0) *. 1000.)

let maybe_dump opts ~pass_name render =
  if List.mem pass_name opts.dump_after then
    opts.dump_sink
      (Printf.sprintf "=== IR after %s ===\n%s\n" pass_name (render ()))

(* [epoch] anchors every record's start_ms to the pipeline run's begin,
   so the whole trace shares one timeline (in CPU-time milliseconds, the
   same clock wall_ms already uses). *)
let run_program_passes_from ?options:(opts = default_options) epoch pl
    program ~entry =
  let program, rev_trace =
    List.fold_left
      (fun (program, acc) pass ->
        let before = size_of_program program in
        let start_ms = (Sys.time () -. epoch) *. 1000. in
        let program', wall_ms = timed (fun () -> pass.pp_transform program) in
        maybe_dump opts ~pass_name:pass.pp_name (fun () ->
            Pretty.program_to_string program');
        let verified =
          if pass.pp_preserves_semantics && opts.verify <> [] then
            verify_program_pass ~pipeline_name:pl.pl_name
              ~pass_name:pass.pp_name ~entry ~before:program ~after:program'
              opts.verify
          else 0
        in
        ( program',
          { pass_name = pass.pp_name; level = Source; start_ms; wall_ms;
            before; after = size_of_program program'; verified }
          :: acc ))
      (program, []) pl.pl_program_passes
  in
  (program, List.rev rev_trace)

let run_program_passes ?options pl program ~entry =
  run_program_passes_from ?options (Sys.time ()) pl program ~entry

let run ?options:(opts = default_options) pl program ~entry =
  let epoch = Sys.time () in
  let program, source_trace =
    run_program_passes_from ~options:opts epoch pl program ~entry
  in
  let src_size = size_of_program program in
  let lower_start = (Sys.time () -. epoch) *. 1000. in
  let lowered, wall_ms = timed (fun () -> Lower.lower_program program ~entry) in
  maybe_dump opts ~pass_name:"lower" (fun () ->
      Cir.to_string lowered.Lower.func);
  let lower_record =
    { pass_name = "lower"; level = Ir; start_ms = lower_start; wall_ms;
      before = src_size; after = size_of_func lowered.Lower.func;
      verified = 0 }
  in
  let func, rev_trace =
    List.fold_left
      (fun (func, acc) pass ->
        let before = size_of_func func in
        let start_ms = (Sys.time () -. epoch) *. 1000. in
        let func', wall_ms = timed (fun () -> pass.fp_transform func) in
        maybe_dump opts ~pass_name:pass.fp_name (fun () -> Cir.to_string func');
        let verified =
          if pass.fp_preserves_semantics && opts.verify <> [] then
            verify_func_pass ~pipeline_name:pl.pl_name ~pass_name:pass.fp_name
              ~before:func ~after:func' opts.verify
          else 0
        in
        ( func',
          { pass_name = pass.fp_name; level = Ir; start_ms; wall_ms; before;
            after = size_of_func func'; verified }
          :: acc ))
      (lowered.Lower.func, []) pl.pl_func_passes
  in
  ( { lowered with Lower.func },
    source_trace @ (lower_record :: List.rev rev_trace) )

let default_pipeline = pipeline "default" ~func_passes:[ simplify_pass ]

let lower_simplify ?options program ~entry =
  run ?options default_pipeline program ~entry
