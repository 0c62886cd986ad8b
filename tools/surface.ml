(* Exported-surface lint: every [val] of lib/*/*.mli must be referenced
   by the code of some other file under lib, bin, bench, test, examples
   or perfbench.

   Interfaces are parsed with the compiler's own parser, so [val]s in
   nested [sig]s are checked under their module path ([Serve.Pool.stats])
   and module types are skipped.  Callers are read with the compiler's
   lexer, so comments and strings never count.  A reference is a
   qualified [M.name] (or [A.M.name] through an alias such as [Obs]), or
   a bare [name] in a file that opens [M] by [open M], [let open M in]
   or [M.( ... )].

   Run from the repository root: [dune exec tools/surface.exe].  It
   prints every unreferenced export that [allowed] does not name, and
   every [allowed] entry that is no longer exported or now has a caller,
   and exits 1 if there is any. *)

(* Exports kept with no caller outside their module, each with its reason. *)
let allowed : (string * string) list = []

let roots = [ "lib"; "bin"; "bench"; "test"; "examples"; "perfbench" ]

let rec files dir =
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.concat_map (fun f ->
         let p = Filename.concat dir f in
         if Sys.is_directory p then files p else [ p ])

let lexbuf_of path =
  let lb = Lexing.from_string (In_channel.with_open_bin path In_channel.input_all) in
  Location.init lb path;
  lb

(* [(module path, name)] of every [val], outside module types. *)
let exports mli =
  let rec items path =
    List.concat_map (fun (item : Parsetree.signature_item) ->
        match item.psig_desc with
        | Psig_value v -> [ (path, v.pval_name.txt) ]
        | Psig_module md -> module_decl path md
        | Psig_recmodule mds -> List.concat_map (module_decl path) mds
        | _ -> [])
  and module_decl path (md : Parsetree.module_declaration) =
    match (md.pmd_name.txt, md.pmd_type.pmty_desc) with
    | Some m, Pmty_signature sg -> items (path @ [ m ]) sg
    | _ -> []
  in
  let modname = String.capitalize_ascii (Filename.remove_extension (Filename.basename mli)) in
  items [ modname ] (Parse.interface (lexbuf_of mli))

(* What one file refers to: qualified [(path, name)] pairs, the bare
   names it uses, and the module paths it opens. *)
type uses = { qualified : (string list * string) list; bare : string list; opens : string list list }

let uses ml =
  let lb = lexbuf_of ml in
  Lexer.init ();
  let rec toks acc = match Lexer.token lb with Parser.EOF -> List.rev acc | t -> toks (t :: acc) in
  (* [prev] is the token before the head; after a dot, an identifier is
     a field or a constructor path, not a reference *)
  let rec scan u prev = function
    | [] -> u
    | Parser.UIDENT m :: rest when prev <> Some Parser.DOT -> path u [ m ] rest
    | Parser.OPEN :: Parser.BANG :: Parser.UIDENT m :: rest | Parser.OPEN :: Parser.UIDENT m :: rest ->
      opened u [ m ] rest
    | (Parser.LIDENT x | INFIXOP0 x | INFIXOP1 x | INFIXOP2 x | INFIXOP3 x | INFIXOP4 x) :: rest
      when prev <> Some Parser.DOT ->
      scan { u with bare = x :: u.bare } None rest
    | t :: rest -> scan u (Some t) rest
  and path u p = function
    | Parser.DOT :: Parser.UIDENT m :: rest -> path u (p @ [ m ]) rest
    | Parser.DOT :: (Parser.LIDENT x as t) :: rest ->
      scan { u with qualified = (p, x) :: u.qualified } (Some t) rest
    | Parser.DOT :: ((Parser.LPAREN | LBRACKET | LBRACE | LBRACKETBAR) :: _ as rest) ->
      scan { u with opens = p :: u.opens } None rest
    | rest -> scan u None rest
  and opened u p = function
    | Parser.DOT :: Parser.UIDENT m :: rest -> opened u (p @ [ m ]) rest
    | rest -> scan { u with opens = p :: u.opens } None rest
  in
  scan { qualified = []; bare = []; opens = [] } None (toks [])

let ends_with ~suffix l =
  let n = List.length l - List.length suffix in
  n >= 0 && List.filteri (fun i _ -> i >= n) l = suffix

(* [path] is the export's module path, [o @ p] a use's path seen through
   one of the file's opens (or none). *)
let referenced (path, name) u =
  List.exists
    (fun (p, x) -> x = name && List.exists (fun o -> ends_with ~suffix:path (o @ p)) ([] :: u.opens))
    u.qualified
  || (List.mem name u.bare && List.exists (ends_with ~suffix:path) u.opens)

let () =
  let all = List.concat_map files roots in
  let callers =
    List.filter_map (fun f -> if Filename.check_suffix f ".ml" then Some (f, uses f) else None) all
  in
  (* every export's dotted name, and whether another file refers to it *)
  let exported =
    all
    |> List.filter (fun f -> String.starts_with ~prefix:"lib/" f && Filename.check_suffix f ".mli")
    |> List.concat_map (fun mli ->
           let own = Filename.remove_extension mli ^ ".ml" in
           List.map
             (fun ((path, name) as e) ->
               ( String.concat "." (path @ [ name ]),
                 List.exists (fun (f, u) -> f <> own && referenced e u) callers ))
             (exports mli))
  in
  let unreferenced = List.filter_map (fun (n, used) -> if used then None else Some n) exported in
  let flagged = List.filter (fun n -> not (List.mem_assoc n allowed)) unreferenced in
  let stale = List.filter (fun (n, _) -> not (List.mem n unreferenced)) allowed in
  List.iter (Printf.printf "unreferenced export: %s\n") flagged;
  List.iter
    (fun (n, _) ->
      Printf.printf "stale allowlist entry: %s (%s)\n" n
        (if List.mem_assoc n exported then "it has a caller now" else "not exported"))
    stale;
  Printf.printf "%d of %d exported vals have no caller outside their module (%d allowlisted)\n"
    (List.length unreferenced) (List.length exported) (List.length allowed);
  if flagged <> [] || stale <> [] then exit 1
