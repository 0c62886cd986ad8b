(* CHLS public facade.

   One entry point for everything the library does: parse and check a
   C-like source, pick a surveyed language (a backend), synthesize a
   design and simulate it.  Judging a run against the software oracle
   is {!Driver.check}'s job, the one place verdicts are made.

   Backends are no longer a closed variant: {!Registry} holds the
   descriptors and [backend] is a thin registry handle.  The function
   names below survive as one-line wrappers so old call sites keep
   reading naturally; multi-backend work should go through {!Driver},
   which parses once and caches designs by content. *)

type backend = Registry.t

let backend_name = Registry.name
let backend_of_name = Registry.find
let dialect_of = Registry.dialect
let pipeline_of = Registry.pipeline

(** Backends that compile C sources (Ocapi builds hardware structurally
    from OCaml instead). *)
let all_compiling_backends = Registry.compiling ()

(** Parse and type-check a source string. *)
let parse = Typecheck.parse_and_check

(** Can this (checked) program be compiled by this backend? *)
let accepts backend program = Dialect.check (dialect_of backend) program = []

(** Synthesize a checked program with the chosen backend. *)
let compile_program backend (program : Ast.program) ~entry : Design.t =
  Registry.compile backend program ~entry

(** Parse, check and synthesize in one step. *)
let compile backend source ~entry =
  compile_program backend (parse source) ~entry

(** Run the software oracle on a source. *)
let reference source ~entry ~args = Interp.run_int source ~entry ~args

(* --- the paper's Table 1, regenerated --- *)

let render_table1 () =
  let header =
    [ "Language"; "Year"; "Concurrency"; "Timing"; "Characterisation (Table 1)" ]
  in
  let rows =
    List.map
      (fun (d : Dialect.t) ->
        [ d.Dialect.name;
          string_of_int d.Dialect.year;
          Dialect.string_of_concurrency d.Dialect.concurrency;
          Dialect.string_of_timing d.Dialect.timing;
          d.Dialect.characterisation ])
      Dialect.table1
  in
  (* column widths come from the data so no cell is ever truncated; the
     last column is left unpadded *)
  let widths =
    List.fold_left
      (fun ws row -> List.map2 (fun w c -> max w (String.length c)) ws row)
      (List.map String.length header)
      rows
  in
  let buf = Buffer.create 1024 in
  let emit row =
    let n = List.length row in
    List.iteri
      (fun i (w, c) ->
        if i = n - 1 then Buffer.add_string buf c
        else begin
          Buffer.add_string buf c;
          Buffer.add_string buf (String.make (w - String.length c + 1) ' ')
        end)
      (List.combine widths row);
    Buffer.add_char buf '\n'
  in
  emit header;
  Buffer.add_string buf
    (String.make
       (List.fold_left ( + ) 0 widths + List.length widths - 1)
       '-');
  Buffer.add_char buf '\n';
  List.iter emit rows;
  Buffer.contents buf
