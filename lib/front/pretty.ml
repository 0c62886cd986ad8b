(* Pretty-printer for the CHLS AST: emits parseable source, used by tests
   (parse/print round-trips) and by diagnostic output. *)

open Format

let rec pp_expr fmt (e : Ast.expr) =
  match e.e with
  | Const (v, ty) ->
    let suffix =
      match ty with
      | Ctypes.Integer { kind = Ctypes.Long; signed = true } -> "l"
      | Ctypes.Integer { kind = Ctypes.Long; signed = false } -> "ul"
      | Ctypes.Integer { signed = false; _ } -> "u"
      | Ctypes.Integer _ | Ctypes.Void | Ctypes.Pointer _ | Ctypes.Array _
      | Ctypes.Function _ -> ""
    in
    fprintf fmt "%Ld%s" v suffix
  | Var name -> pp_print_string fmt name
  | Unop (op, a) -> fprintf fmt "%s(%a)" (Ast.string_of_unop op) pp_expr a
  | Binop (op, a, b) ->
    fprintf fmt "(%a %s %a)" pp_expr a (Ast.string_of_binop op) pp_expr b
  | Assign (l, r) -> fprintf fmt "%a = %a" pp_expr l pp_expr r
  | Cond (c, t, e) -> fprintf fmt "(%a ? %a : %a)" pp_expr c pp_expr t pp_expr e
  | Call (f, args) ->
    fprintf fmt "%s(%a)" f
      (pp_print_list ~pp_sep:(fun fmt () -> fprintf fmt ", ") pp_expr)
      args
  | Index (base, idx) -> fprintf fmt "%a[%a]" pp_expr base pp_expr idx
  | Deref a -> fprintf fmt "(*%a)" pp_expr a
  | Addr_of a -> fprintf fmt "(&%a)" pp_expr a
  | Cast (ty, a) -> fprintf fmt "((%s)%a)" (Ctypes.to_string ty) pp_expr a
  | Chan_recv ch -> fprintf fmt "recv(%s)" ch

let rec pp_stmt fmt (st : Ast.stmt) =
  match st.s with
  | Expr e -> fprintf fmt "@[%a;@]" pp_expr e
  | Decl (ty, name, init) -> (
    let base, suffix =
      match ty with
      | Ctypes.Array (elt, n) ->
        (Ctypes.to_string elt, Printf.sprintf "[%d]" n)
      | Ctypes.Void | Ctypes.Integer _ | Ctypes.Pointer _ | Ctypes.Function _
        -> (Ctypes.to_string ty, "")
    in
    match init with
    | None -> fprintf fmt "%s %s%s;" base name suffix
    | Some e -> fprintf fmt "@[%s %s%s = %a;@]" base name suffix pp_expr e)
  | If (c, t, []) ->
    fprintf fmt "@[<v 2>if (%a) {@,%a@]@,}" pp_expr c pp_block t
  | If (c, t, e) ->
    fprintf fmt "@[<v 2>if (%a) {@,%a@]@,@[<v 2>} else {@,%a@]@,}" pp_expr c
      pp_block t pp_block e
  | While (c, body) ->
    fprintf fmt "@[<v 2>while (%a) {@,%a@]@,}" pp_expr c pp_block body
  | Do_while (body, c) ->
    fprintf fmt "@[<v 2>do {@,%a@]@,} while (%a);" pp_block body pp_expr c
  | For (init, cond, step, body) ->
    let pp_init fmt = function
      | None -> fprintf fmt ";"
      | Some ({ Ast.s = Ast.Expr e; _ } : Ast.stmt) -> fprintf fmt "%a;" pp_expr e
      | Some st -> pp_stmt fmt st
    in
    let pp_opt fmt = function
      | None -> ()
      | Some e -> pp_expr fmt e
    in
    fprintf fmt "@[<v 2>for (%a %a; %a) {@,%a@]@,}" pp_init init pp_opt cond
      pp_opt step pp_block body
  | Return None -> fprintf fmt "return;"
  | Return (Some e) -> fprintf fmt "@[return %a;@]" pp_expr e
  | Break -> fprintf fmt "break;"
  | Continue -> fprintf fmt "continue;"
  | Block body -> fprintf fmt "@[<v 2>{@,%a@]@,}" pp_block body
  | Par branches ->
    fprintf fmt "@[<v 2>par {@,%a@]@,}"
      (pp_print_list (fun fmt b -> fprintf fmt "@[<v 2>{@,%a@]@,}" pp_block b))
      branches
  | Chan_send (ch, e) -> fprintf fmt "@[send(%s, %a);@]" ch pp_expr e
  | Delay -> fprintf fmt "delay;"
  | Constrain (lo, hi, body) ->
    fprintf fmt "@[<v 2>constrain(%d, %d) {@,%a@]@,}" lo hi pp_block body

and pp_block fmt body = pp_print_list pp_stmt fmt body

let pp_func fmt (f : Ast.func) =
  let pp_param fmt (ty, name) =
    fprintf fmt "%s %s" (Ctypes.to_string ty) name
  in
  fprintf fmt "@[<v 2>%s %s(%a) {@,%a@]@,}" (Ctypes.to_string f.f_ret)
    f.f_name
    (pp_print_list ~pp_sep:(fun fmt () -> fprintf fmt ", ") pp_param)
    f.f_params pp_block f.f_body

let pp_global fmt (g : Ast.global) =
  match (g.g_ty, g.g_init) with
  | Ctypes.Array (elt, n), None ->
    fprintf fmt "%s %s[%d];" (Ctypes.to_string elt) g.g_name n
  | Ctypes.Array (elt, n), Some values ->
    fprintf fmt "%s %s[%d] = {%s};" (Ctypes.to_string elt) g.g_name n
      (String.concat ", " (List.map Int64.to_string values))
  | ty, Some [ v ] -> fprintf fmt "%s %s = %Ld;" (Ctypes.to_string ty) g.g_name v
  | ty, _ -> fprintf fmt "%s %s;" (Ctypes.to_string ty) g.g_name

let pp_program fmt (p : Ast.program) =
  let pp_chan fmt (c : Ast.chan) =
    fprintf fmt "chan %s %s;" (Ctypes.to_string c.c_ty) c.c_name
  in
  fprintf fmt "@[<v>%a%s%a%s%a@]"
    (pp_print_list pp_global) p.globals
    (if p.globals = [] then "" else "\n")
    (pp_print_list pp_chan) p.chans
    (if p.chans = [] then "" else "\n")
    (pp_print_list ~pp_sep:(fun fmt () -> fprintf fmt "@,@,") pp_func)
    p.funcs

let program_to_string p = Format.asprintf "%a" pp_program p
