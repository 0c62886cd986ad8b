(* The surveyed C-like hardware languages as *dialects* of one frontend.

   This module reproduces the paper's Table 1: each dialect records the
   chronology, provenance and one-line characterisation from the table plus
   the feature axes the paper's two discussion sections use (how concurrency
   is expressed, how time is controlled, what C constructs are excluded).
   It also enforces each dialect's restrictions on a checked program, e.g.
   Cones accepts a strict C subset with no pointers and bounded loops only,
   Bach C "supports arrays but not pointers", Cyber's BDL "prohibits
   recursive functions and pointers". *)

type concurrency =
  | Sequential (* compiler must find all parallelism *)
  | Process_level (* HardwareC/SystemC/Ocapi-style processes *)
  | Statement_level (* Handel-C/SpecC/Bach C par constructs *)

type timing =
  | Combinational (* no clock at all: Cones *)
  | Asynchronous (* no clock, handshaking: CASH *)
  | Implicit_rule of string (* fixed rule inserts cycle boundaries *)
  | Constraint_based (* HardwareC/Bach C scheduling under constraints *)
  | Explicit_cycles of string (* designer-visible cycle boundaries *)

type t = {
  name : string;
  citation : string; (* bracketed reference number in the paper *)
  year : int;
  origin : string;
  characterisation : string; (* the Table 1 one-liner *)
  concurrency : concurrency;
  timing : timing;
  allows_pointers : bool;
  allows_recursion : bool;
  allows_unbounded_loops : bool;
  allows_channels : bool;
  allows_par : bool;
  allows_constrain : bool;
  allows_delay : bool; (* Handel-C style explicit one-cycle delay *)
  backend : string; (* chls backend module that implements the scheme *)
}

let cones =
  { name = "Cones"; citation = "[23]"; year = 1988; origin = "AT&T Bell Labs";
    characterisation = "Early, combinational only";
    concurrency = Sequential; timing = Combinational;
    allows_pointers = false; allows_recursion = false;
    allows_unbounded_loops = false; allows_channels = false;
    allows_par = false; allows_constrain = false; allows_delay = false; backend = "cones" }

let hardwarec =
  { name = "HardwareC"; citation = "[12]"; year = 1990; origin = "Stanford";
    characterisation = "Behavioral synthesis-centric";
    concurrency = Process_level; timing = Constraint_based;
    allows_pointers = false; allows_recursion = false;
    allows_unbounded_loops = true; allows_channels = true; allows_par = true;
    allows_constrain = true; allows_delay = false; backend = "hardwarec" }

let transmogrifier =
  { name = "Transmogrifier C"; citation = "[8]"; year = 1995;
    origin = "U. Toronto"; characterisation = "Limited scope";
    concurrency = Sequential;
    timing = Implicit_rule "cycle at loop iterations and function calls";
    allows_pointers = false; allows_recursion = false;
    allows_unbounded_loops = true; allows_channels = false;
    allows_par = false; allows_constrain = false; allows_delay = false;
    backend = "transmogrifier" }

let systemc =
  { name = "SystemC"; citation = "[9]"; year = 1999; origin = "OSCI";
    characterisation = "Verilog in C++"; concurrency = Process_level;
    timing = Explicit_cycles "wait() calls in sequential processes";
    allows_pointers = false; allows_recursion = false;
    allows_unbounded_loops = true; allows_channels = true; allows_par = true;
    allows_constrain = false; allows_delay = true; backend = "systemc" }

let ocapi =
  { name = "Ocapi"; citation = "[19]"; year = 1998; origin = "IMEC";
    characterisation = "Algorithmic structural descriptions";
    concurrency = Process_level;
    timing = Explicit_cycles "one cycle per FSM state";
    allows_pointers = false; allows_recursion = false;
    allows_unbounded_loops = true; allows_channels = false;
    allows_par = true; allows_constrain = false; allows_delay = false; backend = "ocapi" }

let c2verilog =
  { name = "C2Verilog"; citation = "[21]"; year = 1998;
    origin = "CompiLogic / C Level Design";
    characterisation = "Comprehensive; company defunct";
    concurrency = Sequential;
    timing = Implicit_rule "compiler-inserted cycles, external constraints";
    allows_pointers = true; allows_recursion = true;
    allows_unbounded_loops = true; allows_channels = false;
    allows_par = false; allows_constrain = false; allows_delay = false; backend = "c2verilog" }

let cyber =
  { name = "Cyber (BDL)"; citation = "[24]"; year = 1999; origin = "NEC";
    characterisation = "Restricted C with extensions (NEC)";
    concurrency = Process_level;
    timing = Implicit_rule "implicit or explicit timing";
    allows_pointers = false; allows_recursion = false;
    allows_unbounded_loops = true; allows_channels = true; allows_par = true;
    allows_constrain = false; allows_delay = false; backend = "cyber" }

let handelc =
  { name = "Handel-C"; citation = "[2]"; year = 1996; origin = "Celoxica";
    characterisation = "C with CSP (Celoxica)";
    concurrency = Statement_level;
    timing = Implicit_rule "each assignment/delay takes one cycle";
    allows_pointers = false; allows_recursion = false;
    allows_unbounded_loops = true; allows_channels = true; allows_par = true;
    allows_constrain = false; allows_delay = true; backend = "handelc" }

let specc =
  { name = "SpecC"; citation = "[7]"; year = 2000; origin = "UC Irvine";
    characterisation = "Resolutely refinement-based";
    concurrency = Statement_level;
    timing = Explicit_cycles "refined from untimed to cycle-accurate";
    allows_pointers = false; allows_recursion = false;
    allows_unbounded_loops = true; allows_channels = true; allows_par = true;
    allows_constrain = false; allows_delay = true; backend = "specc" }

let bachc =
  { name = "Bach C"; citation = "[10]"; year = 2001; origin = "Sharp";
    characterisation = "Untimed semantics (Sharp)";
    concurrency = Statement_level; timing = Constraint_based;
    allows_pointers = false; allows_recursion = false;
    allows_unbounded_loops = true; allows_channels = true; allows_par = true;
    allows_constrain = false; allows_delay = false; backend = "bachc" }

let cash =
  { name = "CASH"; citation = "[1]"; year = 2002; origin = "CMU";
    characterisation = "Synthesizes asynchronous circuits";
    concurrency = Sequential; timing = Asynchronous;
    allows_pointers = false; allows_recursion = false;
    allows_unbounded_loops = true; allows_channels = false;
    allows_par = false; allows_constrain = false; allows_delay = false; backend = "cash" }

(** All dialects in the chronological order of the paper's Table 1. *)
let table1 =
  [ cones; hardwarec; transmogrifier; systemc; ocapi; c2verilog; cyber;
    handelc; specc; bachc; cash ]

let find name =
  List.find_opt
    (fun d -> String.lowercase_ascii d.name = String.lowercase_ascii name)
    table1

let string_of_concurrency = function
  | Sequential -> "compiler-inferred"
  | Process_level -> "process-level constructs"
  | Statement_level -> "statement-level par"

let string_of_timing = function
  | Combinational -> "combinational (no clock)"
  | Asynchronous -> "asynchronous handshaking"
  | Implicit_rule r -> "implicit rule: " ^ r
  | Constraint_based -> "scheduled under timing constraints"
  | Explicit_cycles r -> "explicit cycles: " ^ r

let render_table1 () =
  let header =
    [ "Language"; "Year"; "Concurrency"; "Timing"; "Characterisation (Table 1)" ]
  in
  let rows =
    List.map
      (fun d ->
        [ d.name;
          string_of_int d.year;
          string_of_concurrency d.concurrency;
          string_of_timing d.timing;
          d.characterisation ])
      table1
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

(* --- legality checking --- *)

type violation = { rule : string; where : string; vloc : Ast.loc }
(* [vloc] pins the offending statement or expression when the checker
   saw one ([Ast.no_loc] for program-level rules like recursion). *)

let pointer_expr (e : Ast.expr) =
  match e.e with
  | Ast.Deref _ | Ast.Addr_of _ -> true
  | Ast.Const _ | Ast.Var _ | Ast.Unop _ | Ast.Binop _ | Ast.Assign _
  | Ast.Cond _ | Ast.Call _ | Ast.Index _ | Ast.Cast _ | Ast.Chan_recv _ ->
    false

let rec uses_pointer_type = function
  | Ctypes.Pointer _ -> true
  | Ctypes.Array (t, _) -> uses_pointer_type t
  | Ctypes.Function { ret; params } ->
    uses_pointer_type ret || List.exists uses_pointer_type params
  | Ctypes.Void | Ctypes.Integer _ -> false

(* Direct or mutual recursion via the static call graph. *)
let recursive_functions (p : Ast.program) =
  let calls f =
    let acc = ref [] in
    Ast.iter_func
      ~stmt:(fun _ -> ())
      ~expr:(fun e ->
        match e.Ast.e with
        | Ast.Call (name, _) -> acc := name :: !acc
        | Ast.Const _ | Ast.Var _ | Ast.Unop _ | Ast.Binop _ | Ast.Assign _
        | Ast.Cond _ | Ast.Index _ | Ast.Deref _ | Ast.Addr_of _ | Ast.Cast _
        | Ast.Chan_recv _ -> ())
      f;
    !acc
  in
  let reaches =
    Hashtbl.create 16 (* function -> set of functions reachable *)
  in
  List.iter (fun f -> Hashtbl.replace reaches f.Ast.f_name (calls f)) p.funcs;
  let rec reachable_from seen name =
    if List.mem name seen then seen
    else
      let direct =
        match Hashtbl.find_opt reaches name with Some l -> l | None -> []
      in
      List.fold_left reachable_from (name :: seen) direct
  in
  List.filter
    (fun f ->
      let self = f.Ast.f_name in
      let direct =
        match Hashtbl.find_opt reaches self with Some l -> l | None -> []
      in
      List.exists (fun callee -> List.mem self (reachable_from [] callee))
        direct)
    p.funcs
  |> List.map (fun f -> f.Ast.f_name)

(** Check a (type-checked) program against a dialect's restrictions.
    Returns the list of violations; empty means the program is legal. *)
(* First statement/expression of [f] satisfying [pred], so a violation
   can carry the offending location rather than just the function name. *)
let first_stmt pred f =
  let found = ref None in
  Ast.iter_func
    ~stmt:(fun s -> if !found = None && pred s then found := Some s)
    ~expr:(fun _ -> ())
    f;
  !found

let first_expr pred f =
  let found = ref None in
  Ast.iter_func
    ~stmt:(fun _ -> ())
    ~expr:(fun e -> if !found = None && pred e then found := Some e)
    f;
  !found

let check dialect (p : Ast.program) : violation list =
  let violations = ref [] in
  let add ?(loc = Ast.no_loc) rule where =
    violations := { rule; where; vloc = loc } :: !violations
  in
  let check_func (f : Ast.func) =
    let where = f.Ast.f_name in
    (* one violation per (rule, function), located at the first offender *)
    let stmt_rule pred rule =
      match first_stmt pred f with
      | Some st -> add ~loc:st.Ast.sloc rule where
      | None -> ()
    in
    if not dialect.allows_pointers then begin
      (match first_expr pointer_expr f with
      | Some e ->
        add ~loc:e.Ast.eloc (dialect.name ^ " forbids pointer operations")
          where
      | None -> ());
      stmt_rule
        (fun st ->
          match st.Ast.s with
          | Ast.Decl (ty, _, _) -> uses_pointer_type ty
          | Ast.Expr _ | Ast.If _ | Ast.While _ | Ast.Do_while _
          | Ast.For _ | Ast.Return _ | Ast.Break | Ast.Continue | Ast.Block _
          | Ast.Par _ | Ast.Chan_send _ | Ast.Delay | Ast.Constrain _ ->
            false)
        (dialect.name ^ " forbids pointer-typed variables")
    end;
    if not dialect.allows_unbounded_loops then
      stmt_rule
        (fun st ->
          match st.Ast.s with
          | Ast.While _ | Ast.Do_while _ -> true
          | Ast.For (init, cond, step, _) ->
            (* Bounded form: for (int i = c0; i <relop> c1; i = i +/- c2) *)
            not (Loopform.is_statically_bounded ~init ~cond ~step)
          | Ast.Expr _ | Ast.Decl _ | Ast.If _ | Ast.Return _ | Ast.Break
          | Ast.Continue | Ast.Block _ | Ast.Par _ | Ast.Chan_send _
          | Ast.Delay | Ast.Constrain _ -> false)
        (dialect.name ^ " requires statically bounded loops");
    if not dialect.allows_par then
      stmt_rule
        (fun st ->
          match st.Ast.s with
          | Ast.Par _ -> true
          | Ast.Expr _ | Ast.Decl _ | Ast.If _ | Ast.While _ | Ast.Do_while _
          | Ast.For _ | Ast.Return _ | Ast.Break | Ast.Continue | Ast.Block _
          | Ast.Chan_send _ | Ast.Delay | Ast.Constrain _ -> false)
        (dialect.name ^ " has no parallel construct");
    if not dialect.allows_channels then begin
      let uses_chan_stmt (st : Ast.stmt) =
        match st.Ast.s with
        | Ast.Chan_send _ -> true
        | Ast.Expr _ | Ast.Decl _ | Ast.If _ | Ast.While _ | Ast.Do_while _
        | Ast.For _ | Ast.Return _ | Ast.Break | Ast.Continue | Ast.Block _
        | Ast.Par _ | Ast.Delay | Ast.Constrain _ -> false
      and uses_chan_expr (e : Ast.expr) =
        match e.Ast.e with
        | Ast.Chan_recv _ -> true
        | Ast.Const _ | Ast.Var _ | Ast.Unop _ | Ast.Binop _ | Ast.Assign _
        | Ast.Cond _ | Ast.Call _ | Ast.Index _ | Ast.Deref _ | Ast.Addr_of _
        | Ast.Cast _ -> false
      in
      match (first_stmt uses_chan_stmt f, first_expr uses_chan_expr f) with
      | Some st, _ ->
        add ~loc:st.Ast.sloc (dialect.name ^ " has no channels") where
      | None, Some e ->
        add ~loc:e.Ast.eloc (dialect.name ^ " has no channels") where
      | None, None -> ()
    end;
    if not dialect.allows_constrain then
      stmt_rule
        (fun st ->
          match st.Ast.s with
          | Ast.Constrain _ -> true
          | Ast.Expr _ | Ast.Decl _ | Ast.If _ | Ast.While _ | Ast.Do_while _
          | Ast.For _ | Ast.Return _ | Ast.Break | Ast.Continue | Ast.Block _
          | Ast.Par _ | Ast.Chan_send _ | Ast.Delay -> false)
        (dialect.name ^ " has no timing constraints");
    if not dialect.allows_delay then
      stmt_rule
        (fun st ->
          match st.Ast.s with
          | Ast.Delay -> true
          | Ast.Expr _ | Ast.Decl _ | Ast.If _ | Ast.While _ | Ast.Do_while _
          | Ast.For _ | Ast.Return _ | Ast.Break | Ast.Continue | Ast.Block _
          | Ast.Par _ | Ast.Chan_send _ | Ast.Constrain _ -> false)
        (dialect.name ^ " has no delay statement")
  in
  List.iter check_func p.funcs;
  if not dialect.allows_pointers then
    List.iter
      (fun (g : Ast.global) ->
        if uses_pointer_type g.Ast.g_ty then
          add (dialect.name ^ " forbids pointer-typed globals") g.Ast.g_name)
      p.globals;
  if not dialect.allows_recursion then
    List.iter
      (fun name -> add (dialect.name ^ " forbids recursion") name)
      (recursive_functions p);
  List.rev !violations
