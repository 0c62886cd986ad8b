(* Cones backend [Stroud/Munoz/Pierce, IEEE D&T 1988].

   The paper: "Stroud et al.'s early Cones synthesized each function in a
   combinational block.  Its strict C subset handled conditionals; loops,
   which it unrolled; and arrays treated as bit vectors" — and later,
   "Cones flattens each function, including loops and conditionals, into a
   single two-level network."

   Realization: symbolic execution of the (inlined) entry function into a
   pure combinational netlist.  Bounded loops are fully unrolled;
   conditionals are if-converted into muxes (including early returns,
   which become a 'returned' guard bit); arrays become vectors of signals
   with mux trees for dynamic indexing — exactly the area explosion
   experiment E5 measures. *)

exception Unsupported of string

let unsupported fmt = Printf.ksprintf (fun m -> raise (Unsupported m)) fmt

type value = V_scalar of Netlist.signal | V_array of Netlist.signal array

type state = {
  nl : Netlist.t;
  program : Ast.program;
  mutable scopes : (string, value ref) Hashtbl.t list;
  mutable returned : Netlist.signal; (* 1-bit: has the function returned? *)
  mutable result : Netlist.signal;
  mutable depth : int;
}

let push_scope st = st.scopes <- Hashtbl.create 8 :: st.scopes
let pop_scope st = st.scopes <- List.tl st.scopes

let bind st name v =
  match st.scopes with
  | scope :: _ -> Hashtbl.replace scope name (ref v)
  | [] -> unsupported "no scope"

let lookup st name =
  let rec go = function
    | [] -> unsupported "unbound variable %s" name
    | scope :: rest -> (
      match Hashtbl.find_opt scope name with
      | Some cell -> cell
      | None -> go rest)
  in
  go st.scopes

let width_of ty = max 1 (Ctypes.width ty)

let const_int st ~width n = Netlist.const_int st.nl ~width n

(* Write through the 'already returned' guard: statements after an early
   return must not change state. *)
let guarded st ~old ~new_ =
  Netlist.mux st.nl ~sel:st.returned ~if_true:old ~if_false:new_

let bool_signal st s =
  if Netlist.width st.nl s = 1 then s
  else Netlist.unop st.nl Netlist.U_reduce_or s

(* [Some k] when [idx] is the constant [k], one of [n] elements, so that
   the mux chain matching [idx] against each element's own index would
   select element [k] alone.  A narrower index truncates the chain's
   comparison constants (the chain then picks the last element whose
   index agrees modulo 2^width), so it keeps the chain. *)
let constant_index st idx n =
  match Netlist.node st.nl idx with
  | Netlist.Const c when Bitvec.width c >= 62 || n <= 1 lsl Bitvec.width c ->
    let k = Bitvec.to_int64_unsigned c in
    if Int64.unsigned_compare k (Int64.of_int n) < 0 then Some (Int64.to_int k)
    else None
  | _ -> None

let rec eval st (e : Ast.expr) : Netlist.signal =
  match e.Ast.e with
  | Ast.Const (v, ty) ->
    Netlist.const st.nl (Bitvec.of_int64 ~width:(width_of ty) v)
  | Ast.Var name -> (
    match !(lookup st name) with
    | V_scalar s -> s
    | V_array _ -> unsupported "array %s used as scalar" name)
  | Ast.Unop (Ast.Log_not, a) ->
    let sa = eval st a in
    let z =
      Netlist.binop st.nl Netlist.B_eq sa
        (const_int st ~width:(Netlist.width st.nl sa) 0)
    in
    Netlist.zext st.nl ~width:(width_of e.Ast.ty) z
  | Ast.Unop (Ast.Neg, a) -> Netlist.unop st.nl Netlist.U_neg (eval st a)
  | Ast.Unop (Ast.Bit_not, a) -> Netlist.unop st.nl Netlist.U_not (eval st a)
  | Ast.Binop ((Ast.Log_and | Ast.Log_or) as op, a, b) ->
    let ba = bool_signal st (eval st a) and bb = bool_signal st (eval st b) in
    let o =
      Netlist.binop st.nl
        (match op with
        | Ast.Log_and -> Netlist.B_and
        | _ -> Netlist.B_or)
        ba bb
    in
    Netlist.zext st.nl ~width:(width_of e.Ast.ty) o
  | Ast.Binop (op, a, b) ->
    let sa = eval st a and sb = eval st b in
    let signed = Ctypes.is_signed a.Ast.ty in
    let netop =
      match op with
      | Ast.Add -> Netlist.B_add
      | Ast.Sub -> Netlist.B_sub
      | Ast.Mul -> Netlist.B_mul
      | Ast.Div -> if signed then Netlist.B_sdiv else Netlist.B_udiv
      | Ast.Mod -> if signed then Netlist.B_srem else Netlist.B_urem
      | Ast.Band -> Netlist.B_and
      | Ast.Bor -> Netlist.B_or
      | Ast.Bxor -> Netlist.B_xor
      | Ast.Shl -> Netlist.B_shl
      | Ast.Shr -> if signed then Netlist.B_ashr else Netlist.B_lshr
      | Ast.Eq -> Netlist.B_eq
      | Ast.Ne -> Netlist.B_ne
      | Ast.Lt -> if signed then Netlist.B_slt else Netlist.B_ult
      | Ast.Le -> if signed then Netlist.B_sle else Netlist.B_ule
      | Ast.Gt -> if signed then Netlist.B_slt else Netlist.B_ult
      | Ast.Ge -> if signed then Netlist.B_sle else Netlist.B_ule
      | Ast.Log_and | Ast.Log_or ->
        unsupported
          "internal: && and || reach the flat datapath emitter (the \
           boolean form above must handle them)"
    in
    let sa, sb = match op with Ast.Gt | Ast.Ge -> (sb, sa) | _ -> (sa, sb) in
    let raw = Netlist.binop st.nl netop sa sb in
    if Netlist.is_comparison netop then
      Netlist.zext st.nl ~width:(width_of e.Ast.ty) raw
    else raw
  | Ast.Assign (lhs, rhs) ->
    let v = eval st rhs in
    assign st lhs v;
    v
  | Ast.Cond (c, t, f) ->
    let sel = bool_signal st (eval st c) in
    Netlist.mux st.nl ~sel ~if_true:(eval st t) ~if_false:(eval st f)
  | Ast.Call (name, args) -> eval_call st name args
  | Ast.Index (base, idx) -> (
    let cell = array_of st base in
    let idx_sig = eval st idx in
    match
      (Array.to_list cell, constant_index st idx_sig (Array.length cell))
    with
    | [], _ -> unsupported "empty array"
    | _, Some k -> cell.(k)
    | first :: rest, None ->
      (* dynamic index -> mux tree over all elements *)
      snd
        (List.fold_left
           (fun (k, acc) elt ->
             let eq =
               Netlist.binop st.nl Netlist.B_eq idx_sig
                 (const_int st ~width:(Netlist.width st.nl idx_sig) k)
             in
             (k + 1, Netlist.mux st.nl ~sel:eq ~if_true:elt ~if_false:acc))
           (1, first) rest))
  | Ast.Cast (ty, a) ->
    let s = eval st a in
    Netlist.resize st.nl ~signed:(Ctypes.is_signed a.Ast.ty)
      ~width:(width_of ty) s
  | Ast.Deref _ | Ast.Addr_of _ ->
    unsupported "Cones has no pointers"
  | Ast.Chan_recv _ -> unsupported "Cones has no channels"

and array_of st (e : Ast.expr) =
  match e.Ast.e with
  | Ast.Var name -> (
    match !(lookup st name) with
    | V_array a -> a
    | V_scalar _ -> unsupported "%s is not an array" name)
  | _ -> unsupported "only direct array names are indexable in Cones"

and assign st (lhs : Ast.expr) value =
  match lhs.Ast.e with
  | Ast.Var name ->
    let cell = lookup st name in
    (match !cell with
    | V_scalar old -> cell := V_scalar (guarded st ~old ~new_:value)
    | V_array _ -> unsupported "cannot assign whole array")
  | Ast.Index (base, idx) ->
    let cell_name =
      match base.Ast.e with
      | Ast.Var name -> name
      | _ -> unsupported "only direct array names are indexable"
    in
    let cell = lookup st cell_name in
    let arr =
      match !cell with
      | V_array a -> a
      | V_scalar _ -> unsupported "%s is not an array" cell_name
    in
    let idx_sig = eval st idx in
    let updated =
      match constant_index st idx_sig (Array.length arr) with
      | Some k ->
        Array.mapi
          (fun j old -> if j = k then guarded st ~old ~new_:value else old)
          arr
      | None ->
        Array.mapi
          (fun k old ->
            let eq =
              Netlist.binop st.nl Netlist.B_eq idx_sig
                (const_int st ~width:(Netlist.width st.nl idx_sig) k)
            in
            let new_ =
              Netlist.mux st.nl ~sel:eq ~if_true:value ~if_false:old
            in
            guarded st ~old ~new_)
          arr
    in
    cell := V_array updated
  | _ -> unsupported "assignment to unsupported lvalue"

and eval_call st name args =
  let func =
    match Ast.find_func st.program name with
    | Some f -> f
    | None -> unsupported "undefined function %s" name
  in
  st.depth <- st.depth + 1;
  if st.depth > 64 then unsupported "recursion in Cones (%s)" name;
  let arg_values =
    List.map2
      (fun (ty, _) arg ->
        match ty with
        | Ctypes.Array _ | Ctypes.Pointer _ ->
          V_array (Array.copy (array_of st arg))
        | Ctypes.Void | Ctypes.Integer _ | Ctypes.Function _ ->
          V_scalar (eval st arg))
      func.Ast.f_params args
  in
  (* fresh return context for the callee *)
  let saved_returned = st.returned and saved_result = st.result in
  let saved_scopes = st.scopes in
  st.scopes <- [ Hashtbl.create 8 ];
  st.returned <- const_int st ~width:1 0;
  st.result <- const_int st ~width:(max 1 (width_of func.Ast.f_ret)) 0;
  List.iter2
    (fun (_, pname) v -> bind st pname v)
    func.Ast.f_params arg_values;
  List.iter (exec st) func.Ast.f_body;
  let result = st.result in
  (* NOTE: arrays are passed by value-copy here; Cones treats arrays as
     wires, so callee writes to array params do not flow back.  The
     dialect's strict subset avoids this pattern. *)
  st.scopes <- saved_scopes;
  st.returned <- saved_returned;
  st.result <- saved_result;
  st.depth <- st.depth - 1;
  result

and exec st (stmt : Ast.stmt) =
  match stmt.Ast.s with
  | Ast.Expr e -> ignore (eval st e)
  | Ast.Decl (ty, name, init) -> (
    match ty with
    | Ctypes.Array (elt, n) ->
      bind st name
        (V_array (Array.make n (const_int st ~width:(width_of elt) 0)))
    | Ctypes.Void | Ctypes.Integer _ | Ctypes.Pointer _ | Ctypes.Function _
      ->
      let v =
        match init with
        | Some e -> eval st e
        | None -> const_int st ~width:(width_of ty) 0
      in
      (* guard: a declaration after an early return must hold a dead value,
         but it is fresh anyway — bind directly *)
      bind st name (V_scalar v))
  | Ast.If (c, then_b, else_b) ->
    let sel = bool_signal st (eval st c) in
    exec_if st sel then_b else_b
  | Ast.For (init, cond, step, body) -> (
    match Loopform.recognize ~init ~cond ~step with
    | None -> unsupported "Cones requires statically bounded loops"
    | Some b -> (
      match Loopform.iteration_values b with
      | None -> unsupported "loop may not terminate"
      | Some values ->
        push_scope st;
        (* bind the induction variable; rebound to a constant per copy *)
        bind st b.Loopform.var (V_scalar (const_int st ~width:32 b.Loopform.start));
        List.iter
          (fun v ->
            let cell = lookup st b.Loopform.var in
            cell := V_scalar (const_int st ~width:32 v);
            push_scope st;
            List.iter (exec st) body;
            pop_scope st)
          values;
        pop_scope st))
  | Ast.While _ | Ast.Do_while _ ->
    unsupported "Cones requires statically bounded loops"
  | Ast.Return value ->
    let v =
      match value with
      | Some e ->
        Netlist.resize st.nl ~signed:false
          ~width:(Netlist.width st.nl st.result) (eval st e)
      | None -> st.result
    in
    st.result <- guarded st ~old:st.result ~new_:v;
    st.returned <-
      Netlist.binop st.nl Netlist.B_or st.returned (const_int st ~width:1 1)
  | Ast.Break | Ast.Continue ->
    unsupported "break/continue cannot be flattened combinationally"
  | Ast.Block body ->
    push_scope st;
    List.iter (exec st) body;
    pop_scope st
  | Ast.Par _ | Ast.Chan_send _ | Ast.Delay ->
    unsupported "Cones has no concurrency or timing constructs"
  | Ast.Constrain _ -> unsupported "Cones has no timing constraints"

(* If-conversion: execute both branches on copies of the environment and
   mux every binding that differs. *)
and exec_if st sel then_b else_b =
  let snapshot () =
    (List.map
       (fun scope ->
         let copy = Hashtbl.create (Hashtbl.length scope) in
         Hashtbl.iter (fun k cell -> Hashtbl.replace copy k (ref !cell)) scope;
         copy)
       st.scopes,
     st.returned, st.result)
  in
  let restore (scopes, returned, result) =
    st.scopes <- scopes;
    st.returned <- returned;
    st.result <- result
  in
  let original = snapshot () in
  (* then branch *)
  push_scope st;
  List.iter (exec st) then_b;
  pop_scope st;
  let after_then = snapshot () in
  restore original;
  (* else branch *)
  push_scope st;
  List.iter (exec st) else_b;
  pop_scope st;
  (* merge: current state is the else outcome *)
  let then_scopes, then_returned, then_result = after_then in
  let mux_sig t f = Netlist.mux st.nl ~sel ~if_true:t ~if_false:f in
  List.iter2
    (fun then_scope else_scope ->
      Hashtbl.iter
        (fun name else_cell ->
          match Hashtbl.find_opt then_scope name with
          | None -> ()
          | Some then_cell -> (
            match (!then_cell, !else_cell) with
            | V_scalar t, V_scalar f -> else_cell := V_scalar (mux_sig t f)
            | V_array t, V_array f ->
              else_cell := V_array (Array.map2 mux_sig t f)
            | V_scalar _, V_array _ | V_array _, V_scalar _ -> ()))
        else_scope)
    then_scopes st.scopes;
  st.returned <- mux_sig then_returned st.returned;
  st.result <- mux_sig then_result st.result

(** Synthesize the entry function of [program] into a combinational
    netlist.  Scalar globals appear as outputs [g_<name>]. *)
let synthesize (program : Ast.program) ~entry : Netlist.t =
  Backend.reject_if_illegal ~backend:"cones" Dialect.cones program;
  let func =
    match Ast.find_func program entry with
    | Some f -> f
    | None -> unsupported "entry %s not found" entry
  in
  let nl = Netlist.create ~name:entry () in
  let st =
    { nl; program; scopes = [ Hashtbl.create 16 ];
      returned = 0; result = 0; depth = 0 }
  in
  st.returned <- Netlist.const_int nl ~width:1 0;
  st.result <-
    Netlist.const_int nl ~width:(max 1 (width_of func.Ast.f_ret)) 0;
  (* globals *)
  List.iter
    (fun (g : Ast.global) ->
      match g.Ast.g_ty with
      | Ctypes.Array (elt, n) ->
        let width = width_of elt in
        let values =
          match g.Ast.g_init with
          | None -> Array.make n (Netlist.const_int nl ~width 0)
          | Some init ->
            let a = Array.make n (Netlist.const_int nl ~width 0) in
            List.iteri
              (fun i v ->
                if i < n then
                  a.(i) <- Netlist.const nl (Bitvec.of_int64 ~width v))
              init;
            a
        in
        bind st g.Ast.g_name (V_array values)
      | Ctypes.Void | Ctypes.Integer _ | Ctypes.Pointer _ | Ctypes.Function _
        ->
        let width = width_of g.Ast.g_ty in
        let v =
          match g.Ast.g_init with
          | Some [ v ] -> Netlist.const nl (Bitvec.of_int64 ~width v)
          | Some _ | None -> Netlist.const_int nl ~width 0
        in
        bind st g.Ast.g_name (V_scalar v))
    program.Ast.globals;
  (* parameters as primary inputs *)
  push_scope st;
  List.iter
    (fun (ty, name) ->
      match ty with
      | Ctypes.Integer _ ->
        bind st name (V_scalar (Netlist.input nl name ~width:(width_of ty)))
      | Ctypes.Void | Ctypes.Pointer _ | Ctypes.Array _ | Ctypes.Function _
        -> unsupported "entry parameter %s must be a scalar" name)
    func.Ast.f_params;
  List.iter (exec st) func.Ast.f_body;
  Netlist.set_output nl "result" st.result;
  (* final global values become outputs (combinational block semantics) *)
  List.iter
    (fun (g : Ast.global) ->
      match !(lookup st g.Ast.g_name) with
      | V_scalar s -> Netlist.set_output nl ("g_" ^ g.Ast.g_name) s
      | V_array _ -> ())
    program.Ast.globals;
  Netlist.finish nl;
  nl

(* Cones never lowers to CIR: it symbolically executes the AST, unrolling
   for loops itself.  The declared pipeline is source-only and empty. *)
let pipeline = Passes.pipeline "cones" ~lowers:false

let compile ?(config = Config.default) (program : Ast.program) ~entry :
    Design.t =
  let program, pass_trace =
    Passes.run_program_passes ~options:(Config.pass_options config) pipeline
      program ~entry
  in
  let nl = synthesize program ~entry in
  let report = Area.analyze nl in
  Design.make ~name:entry ~backend:"cones"
    ~stats:
      [ ("nodes", string_of_int report.Area.num_nodes);
        ("critical path", Printf.sprintf "%.1f" report.Area.critical_path) ]
    ~pass_trace
    (Design.Combinational
       { netlist = nl; critical_path = report.Area.critical_path })

let descriptor =
  Backend.make ~name:"cones" ~pipeline:(Some pipeline)
    ~dialect:Dialect.cones
    (fun ~config program ~entry -> compile ~config program ~entry)
