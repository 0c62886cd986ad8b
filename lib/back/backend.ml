(* Backend self-description records.  See backend.mli for the story;
   lib/core/registry.ml collects them. *)

type capabilities = {
  c_frontend : bool;
  constraint_reports : bool;
}

let default_capabilities = { c_frontend = true; constraint_reports = false }

type descriptor = {
  name : string;
  aliases : string list;
  dialect : Dialect.t;
  pipeline : Passes.pipeline option;
  compile : config:Config.t -> Ast.program -> entry:string -> Design.t;
  capabilities : capabilities;
}

exception No_c_frontend of string

exception
  Dialect_rejected of {
    backend : string;
    violations : Dialect.violation list;
  }

let reject_if_illegal ~backend dialect program =
  match Dialect.check dialect program with
  | [] -> ()
  | violations -> raise (Dialect_rejected { backend; violations })

let make ?(aliases = []) ?(capabilities = default_capabilities)
    ?(pipeline = None) ~name ~dialect compile =
  { name; aliases; dialect; pipeline; compile; capabilities }
