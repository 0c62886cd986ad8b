(* Reference interpreter: the software semantics of the CHLS language.

   This is the oracle every hardware backend is tested against.  It is
   deliberately *untimed* — the paper's point is that time is absent from
   the C programming model: it guarantees causality but says nothing about
   execution time — so the interpreter counts statement steps only as a
   work measure, never as clock cycles.

   Structure: a resolve pass, run once per program, turns the checked AST
   into a program that names no variable: every [Var] is a global address
   or a frame offset, every constant is built, and every block carries the
   items the thread machine runs.  Expressions are evaluated big-step;
   statements run on a small-step thread machine so `par` branches
   interleave (round-robin in creation order) and rendezvous channels can
   block.  Function calls are big-step and therefore must be sequential
   (no par/channel ops inside a function called from an expression); the
   top-level entry function body gets the full concurrent treatment.  The
   Handel-C clock (Handel_machine) drives the same thread machine in
   lockstep cycles, charging each item by the work it reports.

   Memory is word-addressed: every scalar (of any width) occupies one word
   holding a Bitvec of its declared width; pointers are 32-bit word
   addresses.  Globals live at low addresses, the stack above them, the
   malloc heap from [heap_base] up.  Every function has a static frame:
   each local has a slot, and a block's words begin where its enclosing
   block's declarations so far end, so they are free again when the block
   closes.  Each par branch has a region of its own in the frame, held
   while the par runs, so a branch that closes a block frees its words
   whatever the other branches do.  The stack pointer follows the entry
   thread's declarations and block ends, and calls; a word at or above it
   is not live, so a pointer to a closed block's local faults.  The store
   is sized from the program and grows on demand, always filled from a
   shared zero, so no run makes OCaml 5 force a minor collection. *)

exception Runtime_error of string
exception Internal_error of string * Ast.loc
exception Deadlock
exception Timeout
exception Return_value of Bitvec.t option
exception Break_exn
exception Continue_exn

let error fmt = Printf.ksprintf (fun m -> raise (Runtime_error m)) fmt

(* An invariant the front end was supposed to establish does not hold.
   Raised (with the offending expression's location) instead of
   [assert false] so the CLI can print a located diagnostic rather than
   crash the process. *)
let internal_error loc fmt =
  Printf.ksprintf (fun m -> raise (Internal_error (m, loc))) fmt

(* --- the word-addressed store --- *)

type store = {
  mutable mem : Bitvec.t array; (* globals, then the stack: [0, sp) *)
  mutable sp : int; (* next free stack word *)
  globals : (string, int * Ctypes.t) Hashtbl.t;
  mutable heap : Bitvec.t array; (* the words [heap_base, heap_next) *)
  mutable heap_next : int; (* bump pointer for malloc *)
}

(* The stack lives in [0, heap_base); malloc carves from [heap_base, ...).
   Keeping them disjoint means returning from a function (which lowers sp)
   never invalidates heap storage. *)
let heap_base = 1 lsl 16

(* What a word nothing has written holds. *)
let blank = Bitvec.zero 1

let grown words ~limit needed =
  let bigger =
    Array.make (min limit (max (2 * Array.length words) needed)) blank
  in
  Array.blit words 0 bigger 0 (Array.length words);
  bigger

(* Raise the stack pointer to [top]. *)
let push_sp store top =
  store.sp <- top;
  if top > heap_base then error "stack overflow";
  if top > Array.length store.mem then
    store.mem <- grown store.mem ~limit:heap_base top

let alloc_heap store words =
  let base = store.heap_next in
  store.heap_next <- base + words;
  let used = store.heap_next - heap_base in
  if used > Array.length store.heap then
    store.heap <- grown store.heap ~limit:max_int used;
  base

let load store addr =
  if addr >= 0 && addr < store.sp then store.mem.(addr)
  else if addr >= heap_base && addr < store.heap_next then
    store.heap.(addr - heap_base)
  else error "load out of bounds (addr %d, sp %d)" addr store.sp

let store_word store addr v =
  if addr >= 0 && addr < store.sp then store.mem.(addr) <- v
  else if addr >= heap_base && addr < store.heap_next then
    store.heap.(addr - heap_base) <- v
  else error "store out of bounds (addr %d, sp %d)" addr store.sp

let declared_width ty = max 1 (Ctypes.width ty)

(* Width in words of the pointee, used to scale pointer arithmetic. *)
let pointee_words = function
  | Ctypes.Pointer t | Ctypes.Array (t, _) -> max 1 (Ctypes.word_count t)
  | Ctypes.Void | Ctypes.Integer _ | Ctypes.Function _ -> 1

let ptr_width = Ctypes.pointer_width
let true_v = Bitvec.of_int ~width:(Ctypes.width Ctypes.int_t) 1
let false_v = Bitvec.of_int ~width:(Ctypes.width Ctypes.int_t) 0
let bool_result b = if b then true_v else false_v

(* The scalar semantics of a binary operator on already-lowered operands,
   chosen once per operator occurrence. *)
let scalar_binop (op : Ast.binop) ~signed loc : Bitvec.t -> Bitvec.t -> Bitvec.t
    =
  let open Bitvec in
  match op with
  | Ast.Add -> add
  | Ast.Sub -> sub
  | Ast.Mul -> mul
  | Ast.Div -> if signed then sdiv else udiv
  | Ast.Mod -> if signed then srem else urem
  | Ast.Band -> logand
  | Ast.Bor -> logor
  | Ast.Bxor -> logxor
  | Ast.Shl -> shl
  | Ast.Shr -> if signed then ashr else lshr
  | Ast.Eq -> fun a b -> bool_result (equal a b)
  | Ast.Ne -> fun a b -> bool_result (not (equal a b))
  | Ast.Lt -> fun a b -> bool_result (if signed then slt a b else ult a b)
  | Ast.Le -> fun a b -> bool_result (if signed then sle a b else ule a b)
  | Ast.Gt -> fun a b -> bool_result (if signed then slt b a else ult b a)
  | Ast.Ge -> fun a b -> bool_result (if signed then sle b a else ule b a)
  | Ast.Log_and | Ast.Log_or ->
    (* the resolver gives the short-circuit operators nodes of their
       own; reaching this table means that lowering missed a case *)
    internal_error loc
      "short-circuit operator %s reached the scalar binop evaluator"
      (match op with Ast.Log_and -> "&&" | _ -> "||")

(* --- the resolved program --- *)

(* What an assignment reads and writes, by variable name (interned), for
   the Scheduled clock's same-cycle conflict test. *)
type footprint = {
  reads : int array; (* every variable the rhs and the lhs name *)
  target : int; (* the variable the lhs is, or -1 *)
  rhs_regions : int array; (* the arrays the rhs indexes by name *)
  target_region : int; (* the array the lhs indexes by name, or -1 *)
}

(* What an item did, for a clock that charges by statement kind. *)
type work =
  | Control
  | Assigned of footprint
  | Stepped
  | Initialised of int
  | Communicated
  | Delayed

type expr =
  | Const of Bitvec.t
  | Global of int (* a scalar at a fixed address *)
  | Local of int (* a scalar at a frame offset *)
  | Not of expr
  | Unop of (Bitvec.t -> Bitvec.t) * expr
  | And of expr * expr
  | Or of expr * expr
  | Binop of (Bitvec.t -> Bitvec.t -> Bitvec.t) * expr * expr
  | Ptr_add of expr * expr * int (* pointer, index, words per element *)
  | Ptr_sub of expr * expr * int
  | Ptr_diff of expr * expr * int
  | Assign of lvalue * expr
  | Cond of expr * expr * expr
  | Call of int * expr array (* callee index, arguments *)
  | Malloc of expr
  | Load of lvalue
  | Address of lvalue
  | Resize of bool * int * expr (* source signedness, target width *)
  | Fail of string (* a runtime error, raised if evaluated *)

and lvalue =
  | At_global of int
  | At_local of int
  | Deref of expr
  | Index_array of lvalue * expr * int (* an array's lvalue, index, words *)
  | Index_pointer of expr * expr * int (* a pointer's value, index, words *)
  | Not_lvalue of string

type stmt =
  | Expr of expr * work (* [Assigned] for an assignment, else [Control] *)
  | Receive of string
  | Receive_into of lvalue * string * int option (* cast to this width *)
  | Decl of { slot : int; top : int; init : expr option; work : work }
  | Decl_receive of { slot : int; top : int; chan : string; cast : int option }
  | If of expr * block * block
  | While of { cond : expr; body : block; frame : item array }
  | Do_while of { body : block; cond : expr; frame : item array }
  | For of {
      init : stmt option;
      cond : expr option;
      next : expr option;
      body : block;
      start : int;
      frame : item array;
    }
  | Return of expr option
  | Break
  | Continue
  | Block of block
  | Par of { branches : item array array; start : int; extent : int }
  | Send of string * expr
  | Delay

(* [start]: the frame offset where the block's words begin, which is the
   stack pointer its end restores.  [items]: its statements, then its
   end. *)
and block = { stmts : stmt array; start : int; items : item array }

(* The thread machine's items.  A block's are its statements and its end;
   a while's and a do-while's [retest; loop end]; a for's [init; test;
   loop end; scope end], and its body's statements, end and step; a par
   branch's statements and its join. *)
and item =
  | I_stmt of stmt
  | I_end_scope of int
  | I_loop_end
  | I_retest of expr * block (* while and do-while: the body again? *)
  | I_for_test of expr option * item array
  | I_for_step of expr option * work
  | I_join_signal

type func = {
  nparams : int;
  param_widths : int array; (* the entry's argument widths *)
  body : stmt array;
  items : item array; (* the body as the entry thread's first frame *)
  frame : int; (* words: the parameters and the deepest locals *)
  deepest : int; (* words of the deepest static chain of frames from here *)
  fallthrough : Bitvec.t; (* the result of a body that does not return *)
}

type resolved = {
  globals : (string, int * Ctypes.t) Hashtbl.t;
  image : Bitvec.t array; (* the globals' words before a run *)
  funcs : func array;
  index : (string, int) Hashtbl.t; (* function name -> [funcs] index *)
}

(* --- the resolve pass --- *)

type binding = Slot of int * Ctypes.t | Address_of of int * Ctypes.t

type cx = {
  global_bindings : (string, int * Ctypes.t) Hashtbl.t;
  callees : (string, int) Hashtbl.t;
  names : (string, int) Hashtbl.t; (* interned for footprints *)
  mutable next : int; (* the next free frame offset *)
  mutable extent : int; (* the most words the frame has held *)
  mutable calls : int list; (* the callees of the function being resolved *)
}

let intern cx name =
  match Hashtbl.find_opt cx.names name with
  | Some i -> i
  | None ->
    let i = Hashtbl.length cx.names in
    Hashtbl.replace cx.names name i;
    i

(* Names bind as the program runs: a declaration is visible from the
   statement after it to the end of its block. *)
let lookup cx scopes name =
  match List.find_map (fun s -> Hashtbl.find_opt s name) scopes with
  | Some b -> Some b
  | None ->
    Option.map
      (fun (addr, ty) -> Address_of (addr, ty))
      (Hashtbl.find_opt cx.global_bindings name)

(* Variables a pure expression names (for same-cycle conflict checks). *)
let rec vars_read acc (e : Ast.expr) =
  match e.Ast.e with
  | Ast.Var name -> name :: acc
  | Ast.Const _ | Ast.Chan_recv _ -> acc
  | Ast.Unop (_, a) | Ast.Cast (_, a) | Ast.Deref a | Ast.Addr_of a ->
    vars_read acc a
  | Ast.Binop (_, a, b) | Ast.Index (a, b) | Ast.Assign (a, b) ->
    vars_read (vars_read acc a) b
  | Ast.Cond (a, b, c) -> vars_read (vars_read (vars_read acc a) b) c
  | Ast.Call (_, args) -> List.fold_left vars_read acc args

let rec regions_touched acc (e : Ast.expr) =
  match e.Ast.e with
  | Ast.Index ({ e = Ast.Var name; _ }, idx) ->
    regions_touched (name :: acc) idx
  | Ast.Const _ | Ast.Var _ | Ast.Chan_recv _ -> acc
  | Ast.Unop (_, a) | Ast.Cast (_, a) | Ast.Deref a | Ast.Addr_of a ->
    regions_touched acc a
  | Ast.Binop (_, a, b) | Ast.Index (a, b) | Ast.Assign (a, b) ->
    regions_touched (regions_touched acc a) b
  | Ast.Cond (a, b, c) ->
    regions_touched (regions_touched (regions_touched acc a) b) c
  | Ast.Call (_, args) -> List.fold_left regions_touched acc args

let footprint cx (lhs : Ast.expr) rhs =
  let ids names = Array.of_list (List.map (intern cx) names) in
  { reads = ids (vars_read (vars_read [] rhs) lhs);
    target = (match lhs.Ast.e with Ast.Var v -> intern cx v | _ -> -1);
    rhs_regions = ids (regions_touched [] rhs);
    target_region =
      (match lhs.Ast.e with
      | Ast.Index ({ e = Ast.Var region; _ }, _) -> intern cx region
      | _ -> -1) }

(* A receive can appear as a bare expression statement, as the rhs of an
   assignment, or as a declaration initializer (possibly behind the cast
   inserted by the type checker). *)
let as_recv (e : Ast.expr) =
  match e.e with
  | Ast.Chan_recv ch -> Some (ch, None)
  | Ast.Cast (ty, { e = Ast.Chan_recv ch; _ }) ->
    Some (ch, Some (declared_width ty))
  | Ast.Const _ | Ast.Var _ | Ast.Unop _ | Ast.Binop _ | Ast.Assign _
  | Ast.Cond _ | Ast.Call _ | Ast.Index _ | Ast.Deref _ | Ast.Addr_of _
  | Ast.Cast _ -> None

let rec expr cx scopes (e : Ast.expr) : expr =
  let sub = expr cx scopes in
  match e.e with
  | Ast.Const (v, ty) -> Const (Bitvec.of_int64 ~width:(declared_width ty) v)
  | Ast.Var name -> (
    match lookup cx scopes name with
    | Some (Slot (off, Ctypes.Array _)) -> Address (At_local off)
    | Some (Slot (off, _)) -> Local off
    | Some (Address_of (addr, Ctypes.Array _)) ->
      Const (Bitvec.of_int ~width:ptr_width addr)
    | Some (Address_of (addr, _)) -> Global addr
    | None -> Fail ("undefined variable " ^ name))
  | Ast.Unop (Ast.Log_not, a) -> Not (sub a)
  | Ast.Unop (Ast.Neg, a) -> Unop (Bitvec.neg, sub a)
  | Ast.Unop (Ast.Bit_not, a) -> Unop (Bitvec.lognot, sub a)
  | Ast.Binop (Ast.Log_and, a, b) -> And (sub a, sub b)
  | Ast.Binop (Ast.Log_or, a, b) -> Or (sub a, sub b)
  | Ast.Binop (op, a, b) -> (
    let words = pointee_words a.ty in
    match (op, a.Ast.ty, b.Ast.ty) with
    | Ast.Add, Ctypes.Pointer _, _ -> Ptr_add (sub a, sub b, words)
    | Ast.Sub, Ctypes.Pointer _, ti when Ctypes.is_integer ti ->
      Ptr_sub (sub a, sub b, words)
    | Ast.Sub, Ctypes.Pointer _, Ctypes.Pointer _ ->
      Ptr_diff (sub a, sub b, words)
    | _ ->
      Binop
        (scalar_binop op ~signed:(Ctypes.is_signed a.ty) a.eloc, sub a, sub b))
  | Ast.Assign (lhs, rhs) -> Assign (lvalue cx scopes lhs, sub rhs)
  | Ast.Cond (c, t, f) -> Cond (sub c, sub t, sub f)
  | Ast.Call (name, args) -> (
    match (Hashtbl.find_opt cx.callees name, name, args) with
    | None, "malloc", [ n ] -> Malloc (sub n)
    | None, _, _ -> Fail ("call to undefined function " ^ name)
    | Some f, _, _ ->
      cx.calls <- f :: cx.calls;
      Call (f, Array.of_list (List.map sub args)))
  | Ast.Index _ | Ast.Deref _ -> (
    match e.ty with
    | Ctypes.Array _ -> Address (lvalue cx scopes e)
    | Ctypes.Void | Ctypes.Integer _ | Ctypes.Pointer _ | Ctypes.Function _
      -> Load (lvalue cx scopes e))
  | Ast.Addr_of a -> Address (lvalue cx scopes a)
  | Ast.Cast (ty, a) -> Resize (Ctypes.is_signed a.ty, declared_width ty, sub a)
  | Ast.Chan_recv _ -> Fail "channel receive inside an expression-context call"

and lvalue cx scopes (e : Ast.expr) : lvalue =
  match e.e with
  | Ast.Var name -> (
    match lookup cx scopes name with
    | Some (Slot (off, _)) -> At_local off
    | Some (Address_of (addr, _)) -> At_global addr
    | None -> Not_lvalue ("undefined variable " ^ name))
  | Ast.Deref a -> Deref (expr cx scopes a)
  | Ast.Index (base, idx) -> (
    match Ctypes.decay base.ty with
    | Ctypes.Pointer elt -> (
      let words = max 1 (Ctypes.word_count elt) in
      match base.ty with
      | Ctypes.Array _ ->
        Index_array (lvalue cx scopes base, expr cx scopes idx, words)
      | Ctypes.Void | Ctypes.Integer _ | Ctypes.Pointer _ | Ctypes.Function _
        -> Index_pointer (expr cx scopes base, expr cx scopes idx, words))
    | Ctypes.Void | Ctypes.Integer _ | Ctypes.Array _ | Ctypes.Function _ ->
      Not_lvalue "indexing a non-pointer")
  | Ast.Const _ | Ast.Unop _ | Ast.Binop _ | Ast.Assign _ | Ast.Cond _
  | Ast.Call _ | Ast.Addr_of _ | Ast.Cast _ | Ast.Chan_recv _ ->
    Not_lvalue "not an lvalue"

(* Take [words] frame words at the next free offset. *)
let take cx words =
  let slot = cx.next in
  cx.next <- slot + words;
  cx.extent <- max cx.extent cx.next;
  slot

let items_then stmts last =
  Array.append (Array.map (fun s -> I_stmt s) stmts) last

let rec stmt cx scopes (st : Ast.stmt) : stmt =
  match st.s with
  | Ast.Expr e -> (
    match (as_recv e, e.e) with
    | Some (ch, _), _ -> Receive ch
    | None, Ast.Assign (lhs, rhs) -> (
      match as_recv rhs with
      | Some (ch, cast) -> Receive_into (lvalue cx scopes lhs, ch, cast)
      | None -> Expr (expr cx scopes e, Assigned (footprint cx lhs rhs)))
    | None, _ -> Expr (expr cx scopes e, Control))
  | Ast.Decl (ty, name, init) -> (
    let words = max 1 (Ctypes.word_count ty) in
    let slot = take cx words in
    (match scopes with
    | scope :: _ -> Hashtbl.replace scope name (Slot (slot, ty))
    | [] -> internal_error st.sloc "declaration of %s outside any scope" name);
    let top = slot + words in
    match init with
    | Some e when as_recv e <> None ->
      let chan, cast = Option.get (as_recv e) in
      Decl_receive { slot; top; chan; cast }
    | None -> Decl { slot; top; init = None; work = Control }
    | Some e ->
      Decl
        { slot; top; init = Some (expr cx scopes e);
          work = Initialised (intern cx name) })
  | Ast.If (c, t, f) ->
    let c = expr cx scopes c in
    let t = block cx scopes t in
    If (c, t, block cx scopes f)
  | Ast.While (c, body) ->
    let cond = expr cx scopes c in
    let body = block cx scopes body in
    While { cond; body; frame = [| I_retest (cond, body); I_loop_end |] }
  | Ast.Do_while (body, c) ->
    let body = block cx scopes body in
    let cond = expr cx scopes c in
    Do_while { body; cond; frame = [| I_retest (cond, body); I_loop_end |] }
  | Ast.For (init, cond, step, body) ->
    let start = cx.next in
    let scopes = Hashtbl.create 4 :: scopes in
    let init = Option.map (stmt cx scopes) init in
    let cond = Option.map (expr cx scopes) cond in
    let next = Option.map (expr cx scopes) step in
    let body = block cx scopes body in
    cx.next <- start;
    let stepped =
      match step with
      | None -> Control
      | Some { e = Ast.Assign (lhs, rhs); _ } -> Assigned (footprint cx lhs rhs)
      | Some _ -> Stepped
    in
    let body_items =
      items_then body.stmts
        [| I_end_scope body.start; I_for_step (next, stepped) |]
    in
    let frame =
      Array.append
        (match init with Some s -> [| I_stmt s |] | None -> [||])
        [| I_for_test (cond, body_items); I_loop_end; I_end_scope start |]
    in
    For { init; cond; next; body; start; frame }
  | Ast.Return e -> Return (Option.map (expr cx scopes) e)
  | Ast.Break -> Break
  | Ast.Continue -> Continue
  | Ast.Block body | Ast.Constrain (_, _, body) -> Block (block cx scopes body)
  | Ast.Par branches ->
    (* each branch's region begins where the previous branch's deepest
       words end; the par holds them all until it joins *)
    let start = cx.next and outer = cx.extent in
    let region = ref start in
    let branches =
      List.map
        (fun branch ->
          cx.next <- !region;
          cx.extent <- !region;
          let scopes = Hashtbl.create 4 :: scopes in
          let stmts = Array.of_list (List.map (stmt cx scopes) branch) in
          region := cx.extent;
          items_then stmts [| I_join_signal |])
        branches
    in
    cx.next <- start;
    cx.extent <- max outer !region;
    Par { branches = Array.of_list branches; start; extent = !region - start }
  | Ast.Chan_send (ch, e) -> Send (ch, expr cx scopes e)
  | Ast.Delay -> Delay

and block cx scopes (body : Ast.block) =
  let start = cx.next in
  let scopes = Hashtbl.create 4 :: scopes in
  let stmts = Array.of_list (List.map (stmt cx scopes) body) in
  cx.next <- start;
  { stmts; start; items = items_then stmts [| I_end_scope start |] }

(* A function's parameters take the first frame words; its body's
   declarations share their scope. *)
let func cx (f : Ast.func) =
  cx.next <- 0;
  cx.extent <- 0;
  cx.calls <- [];
  let frame_scope = Hashtbl.create 8 in
  let params =
    List.map
      (fun (ty, name) ->
        let ty =
          match ty with Ctypes.Array (elt, _) -> Ctypes.Pointer elt | t -> t
        in
        Hashtbl.replace frame_scope name (Slot (take cx 1, ty));
        declared_width ty)
      f.Ast.f_params
  in
  let body = Array.of_list (List.map (stmt cx [ frame_scope ]) f.Ast.f_body) in
  ( { nparams = List.length params;
      param_widths = Array.of_list params;
      body;
      items = Array.map (fun s -> I_stmt s) body;
      frame = cx.extent;
      deepest = 0;
      fallthrough = Bitvec.zero (max 1 (Ctypes.width f.f_ret)) },
    cx.calls )

(* The globals in declaration order from address 0, each word zero of its
   element width until the initialiser sets it. *)
let layout_globals (program : Ast.program) =
  let table = Hashtbl.create 16 in
  let words (g : Ast.global) = max 1 (Ctypes.word_count g.g_ty) in
  let image =
    Array.make (List.fold_left (fun n g -> n + words g) 0 program.globals) blank
  in
  ignore
    (List.fold_left
       (fun base (g : Ast.global) ->
         let n = words g in
         let width =
           match g.g_ty with
           | Ctypes.Array (elt, _) -> declared_width elt
           | ty -> declared_width ty
         in
         Hashtbl.replace table g.g_name (base, g.g_ty);
         Array.fill image base n (Bitvec.zero width);
         Option.iter
           (List.iteri (fun i v ->
                if i < n then image.(base + i) <- Bitvec.of_int64 ~width v))
           g.g_init;
         base + n)
       0 program.globals);
  (table, image)

let resolve (program : Ast.program) =
  let global_bindings, image = layout_globals program in
  let callees = Hashtbl.create 16 in
  List.iteri
    (fun i (f : Ast.func) ->
      if not (Hashtbl.mem callees f.f_name) then
        Hashtbl.replace callees f.f_name i)
    program.funcs;
  let cx =
    { global_bindings; callees; names = Hashtbl.create 16; next = 0;
      extent = 0; calls = [] }
  in
  let funcs = Array.of_list (List.map (func cx) program.funcs) in
  (* -1: not yet measured; -2: on the current call path, so a recursive
     call counts its frame once *)
  let deepest = Array.make (Array.length funcs) (-1) in
  let rec depth i =
    match deepest.(i) with
    | -2 -> 0
    | -1 ->
      deepest.(i) <- -2;
      let f, calls = funcs.(i) in
      let d = f.frame + List.fold_left (fun m c -> max m (depth c)) 0 calls in
      deepest.(i) <- d;
      d
    | d -> d
  in
  { globals = global_bindings;
    image;
    funcs = Array.mapi (fun i (f, _) -> { f with deepest = depth i }) funcs;
    index = callees }

(* --- evaluation --- *)

type env = {
  store : store;
  funcs : func array;
  mutable fp : int; (* the running function's frame *)
  mutable steps : int;
  fuel : int;
}

let step env =
  env.steps <- env.steps + 1;
  if env.steps > env.fuel then raise Timeout

let rec eval env = function
  | Const v -> v
  | Global addr -> env.store.mem.(addr)
  | Local off -> env.store.mem.(env.fp + off)
  | Not a -> bool_result (Bitvec.is_zero (eval env a))
  | Unop (f, a) -> f (eval env a)
  | And (a, b) ->
    bool_result
      ((not (Bitvec.is_zero (eval env a)))
      && not (Bitvec.is_zero (eval env b)))
  | Or (a, b) ->
    bool_result
      (not (Bitvec.is_zero (eval env a)) || not (Bitvec.is_zero (eval env b)))
  | Binop (f, a, b) ->
    let va = eval env a in
    f va (eval env b)
  | Ptr_add (a, b, words) ->
    let base = eval env a in
    let idx = eval env b in
    Bitvec.add base (Bitvec.of_int ~width:ptr_width (Bitvec.to_int idx * words))
  | Ptr_sub (a, b, words) ->
    let base = eval env a in
    let idx = eval env b in
    Bitvec.sub base (Bitvec.of_int ~width:ptr_width (Bitvec.to_int idx * words))
  | Ptr_diff (a, b, words) ->
    let va = eval env a in
    let vb = eval env b in
    Bitvec.of_int ~width:(Ctypes.width Ctypes.int_t)
      ((Bitvec.to_int va - Bitvec.to_int vb) / words)
  | Assign (lhs, rhs) ->
    let v = eval env rhs in
    (match lhs with
    | At_global addr -> env.store.mem.(addr) <- v
    | At_local off -> env.store.mem.(env.fp + off) <- v
    | Deref _ | Index_array _ | Index_pointer _ | Not_lvalue _ ->
      store_word env.store (address env lhs) v);
    v
  | Cond (c, t, f) ->
    if Bitvec.is_zero (eval env c) then eval env f else eval env t
  | Call (f, args) -> call env env.funcs.(f) args
  | Malloc n ->
    (* bump allocation from the heap; never freed *)
    let words = max 1 (Bitvec.to_int (eval env n)) in
    let base = alloc_heap env.store words in
    Array.fill env.store.heap (base - heap_base) words (Bitvec.zero 32);
    Bitvec.of_int ~width:ptr_width base
  | Load lv -> load env.store (address env lv)
  | Address lv -> Bitvec.of_int ~width:ptr_width (address env lv)
  | Resize (signed, width, a) -> Bitvec.resize ~signed ~width (eval env a)
  | Fail message -> error "%s" message

and address env = function
  | At_global addr -> addr
  | At_local off -> env.fp + off
  | Deref p -> Bitvec.to_int_unsigned (eval env p)
  | Index_array (base, idx, words) ->
    let base = address env base in
    base + (Bitvec.to_int (eval env idx) * words)
  | Index_pointer (base, idx, words) ->
    let base = Bitvec.to_int_unsigned (eval env base) in
    base + (Bitvec.to_int (eval env idx) * words)
  | Not_lvalue message -> error "%s" message

(* --- big-step function execution (sequential subset) --- *)

(* The callee's frame starts at the stack pointer: its parameters, then
   its locals as their declarations run. *)
and call env func args =
  let values = Array.map (eval env) args in
  let store = env.store in
  let saved_sp = store.sp and saved_fp = env.fp in
  let finish () =
    env.fp <- saved_fp;
    store.sp <- saved_sp
  in
  match
    push_sp store (saved_sp + func.nparams);
    Array.blit values 0 store.mem saved_sp func.nparams;
    env.fp <- saved_sp;
    Array.iter (exec_big env) func.body
  with
  | () ->
    finish ();
    func.fallthrough
  | exception Return_value v ->
    finish ();
    Option.value v ~default:func.fallthrough
  | exception exn ->
    finish ();
    raise exn

and exec_big env st =
  step env;
  match st with
  | Expr (e, _) -> ignore (eval env e)
  | Decl { slot; top; init; _ } -> (
    push_sp env.store (env.fp + top);
    match init with
    | None -> ()
    | Some e ->
      let v = eval env e in
      env.store.mem.(env.fp + slot) <- v)
  | Receive _ | Receive_into _ | Decl_receive _ ->
    error "channel receive inside an expression-context call"
  | If (c, t, f) ->
    if Bitvec.is_zero (eval env c) then exec_block_big env f
    else exec_block_big env t
  | While { cond; body; _ } -> (
    try
      while not (Bitvec.is_zero (eval env cond)) do
        step env;
        try exec_block_big env body with Continue_exn -> ()
      done
    with Break_exn -> ())
  | Do_while { body; cond; _ } -> (
    try
      let continue = ref true in
      while !continue do
        step env;
        (try exec_block_big env body with Continue_exn -> ());
        continue := not (Bitvec.is_zero (eval env cond))
      done
    with Break_exn -> ())
  | For { init; cond; next; body; start; _ } -> (
    let finish () = env.store.sp <- env.fp + start in
    let test () =
      match cond with
      | None -> true
      | Some c -> not (Bitvec.is_zero (eval env c))
    in
    match
      Option.iter (exec_big env) init;
      try
        while test () do
          step env;
          (try exec_block_big env body with Continue_exn -> ());
          Option.iter (fun e -> ignore (eval env e)) next
        done
      with Break_exn -> ()
    with
    | () -> finish ()
    | exception exn ->
      finish ();
      raise exn)
  | Return None -> raise (Return_value None)
  | Return (Some e) -> raise (Return_value (Some (eval env e)))
  | Break -> raise Break_exn
  | Continue -> raise Continue_exn
  | Block body -> exec_block_big env body
  | Par _ | Send _ ->
    error "par/channel operation inside an expression-context call"
  | Delay -> () (* untimed semantics: delay is a no-op *)

and exec_block_big env body =
  match Array.iter (exec_big env) body.stmts with
  | () -> env.store.sp <- env.fp + body.start
  | exception exn ->
    env.store.sp <- env.fp + body.start;
    raise exn

(* --- the thread machine for the entry function --- *)

type blocked =
  | Runnable
  | Blocked_send of string * Bitvec.t
  | Blocked_recv of string * (Bitvec.t -> unit)
  | Blocked_join

(* A thread's continuation is a stack of item arrays, each with the index
   of its next item; a frame whose items are spent is popped. *)
type thread = {
  mutable frames : item array array;
  mutable pcs : int array;
  mutable depth : int;
  mutable state : blocked;
  join : join option; (* the par a branch thread signals at its end *)
}

(* [release]: the stack pointer the par restores when it joins, or -1
   when the par's regions lie inside a branch's own region. *)
and join = { mutable remaining : int; joiner : thread; release : int }

type machine = {
  env : env;
  entry_thread : thread;
  mutable threads : thread list;
      (* in creation order: the entry thread and every unfinished thread *)
  mutable return_value : Bitvec.t option option; (* Some: entry returned *)
}

let new_thread items join =
  { frames = Array.make 8 items; pcs = Array.make 8 0; depth = 1;
    state = Runnable; join }

let push thread items =
  if thread.depth = Array.length thread.frames then begin
    let n = 2 * thread.depth in
    let frames = Array.make n items and pcs = Array.make n 0 in
    Array.blit thread.frames 0 frames 0 thread.depth;
    Array.blit thread.pcs 0 pcs 0 thread.depth;
    thread.frames <- frames;
    thread.pcs <- pcs
  end;
  thread.frames.(thread.depth) <- items;
  thread.pcs.(thread.depth) <- 0;
  thread.depth <- thread.depth + 1

(* Pop spent frames, so a thread with items left has one on top. *)
let settle thread =
  while
    thread.depth > 0
    && thread.pcs.(thread.depth - 1)
       >= Array.length thread.frames.(thread.depth - 1)
  do
    thread.depth <- thread.depth - 1
  done

let threads machine = machine.threads

let runnable t =
  t.depth > 0
  &&
  match t.state with
  | Runnable -> true
  | Blocked_send _ | Blocked_recv _ | Blocked_join -> false

let finished machine =
  match machine.return_value with
  | Some _ -> true
  | None -> machine.entry_thread.depth = 0

let holds machine c = not (Bitvec.is_zero (eval machine.env c))

(* Close one of the thread's blocks: the entry thread's words from the
   block's start up are free again.  A par branch's blocks lie in its
   own region, held until the par joins. *)
let close_scope machine thread start =
  if thread == machine.entry_thread then
    machine.env.store.sp <- machine.env.fp + start

(* A declaration: the entry thread's stack pointer moves past it. *)
let declare machine thread top =
  if thread == machine.entry_thread then
    push_sp machine.env.store (machine.env.fp + top)

(* Skip items until the predicate holds, closing blocks on the way (used
   by break/continue). *)
let rec unwind_until machine thread pred =
  if thread.depth = 0 then
    error "break/continue with no enclosing loop in thread";
  let d = thread.depth - 1 in
  let items = thread.frames.(d) and pc = thread.pcs.(d) in
  if pc >= Array.length items then begin
    thread.depth <- d;
    unwind_until machine thread pred
  end
  else if not (pred items.(pc)) then begin
    (match items.(pc) with
    | I_end_scope start -> close_scope machine thread start
    | I_stmt _ | I_loop_end | I_retest _ | I_for_test _ | I_for_step _
    | I_join_signal -> ());
    thread.pcs.(d) <- pc + 1;
    unwind_until machine thread pred
  end

let convert_received cast v =
  match cast with
  | None -> v
  | Some width -> Bitvec.resize ~signed:true ~width v

(* The footprint of the assignment the thread's next item would perform,
   if it is an assignment statement or a for-step that is an
   assignment. *)
let pending_assignment thread =
  if thread.depth = 0 then None
  else
    let d = thread.depth - 1 in
    match thread.frames.(d).(thread.pcs.(d)) with
    | I_stmt (Expr (_, Assigned f)) | I_for_step (_, Assigned f) ->
      Some f
    | _ -> None

(* Try to complete a rendezvous on channel [ch]: pairs the earliest blocked
   sender with the earliest blocked receiver. *)
let try_rendezvous machine ch =
  let find pred = List.find_opt pred machine.threads in
  let sender =
    find (fun t ->
        match t.state with
        | Blocked_send (c, _) -> String.equal c ch
        | Runnable | Blocked_recv _ | Blocked_join -> false)
  and receiver =
    find (fun t ->
        match t.state with
        | Blocked_recv (c, _) -> String.equal c ch
        | Runnable | Blocked_send _ | Blocked_join -> false)
  in
  match (sender, receiver) with
  | Some s, Some r -> (
    match (s.state, r.state) with
    | Blocked_send (_, v), Blocked_recv (_, deliver) ->
      deliver v;
      s.state <- Runnable;
      r.state <- Runnable
    | (Runnable | Blocked_send _ | Blocked_recv _ | Blocked_join), _ -> ())
  | (Some _ | None), (Some _ | None) -> ()

let recv machine thread ch deliver =
  thread.state <- Blocked_recv (ch, deliver);
  try_rendezvous machine ch;
  Communicated

let rec exec_item machine thread =
  if thread.depth = 0 then Control
  else begin
    let d = thread.depth - 1 in
    let items = thread.frames.(d) and pc = thread.pcs.(d) in
    thread.pcs.(d) <- pc + 1;
    step machine.env;
    let work =
      match items.(pc) with
      | I_end_scope start ->
        close_scope machine thread start;
        Control
      | I_loop_end -> Control
      | I_retest (c, body) ->
        (* run the body, then this retest again *)
        if holds machine c then begin
          thread.pcs.(d) <- pc;
          push thread body.items
        end;
        Control
      | I_for_test (cond, body_items) ->
        if match cond with None -> true | Some c -> holds machine c then begin
          thread.pcs.(d) <- pc;
          push thread body_items
        end;
        Control
      | I_for_step (next, work) ->
        Option.iter (fun e -> ignore (eval machine.env e)) next;
        work
      | I_join_signal ->
        Option.iter
          (fun j ->
            j.remaining <- j.remaining - 1;
            if j.remaining = 0 then begin
              if j.release >= 0 then machine.env.store.sp <- j.release;
              if j.joiner.state = Blocked_join then j.joiner.state <- Runnable
            end)
          thread.join;
        Control
      | I_stmt st -> exec_thread_stmt machine thread st
    in
    settle thread;
    if thread.depth = 0 && thread != machine.entry_thread then
      machine.threads <- List.filter (fun t -> t != thread) machine.threads;
    work
  end

and exec_thread_stmt machine thread st =
  let env = machine.env in
  match st with
  | Receive ch -> recv machine thread ch (fun _ -> ())
  | Receive_into (lhs, ch, cast) ->
    recv machine thread ch (fun v ->
        store_word env.store (address env lhs) (convert_received cast v))
  | Expr (e, work) ->
    ignore (eval env e);
    work
  | Decl { slot; top; init; work } ->
    declare machine thread top;
    Option.iter
      (fun e ->
        let v = eval env e in
        env.store.mem.(env.fp + slot) <- v)
      init;
    work
  | Decl_receive { slot; top; chan; cast } ->
    declare machine thread top;
    let addr = env.fp + slot in
    recv machine thread chan (fun v ->
        store_word env.store addr (convert_received cast v))
  | If (c, t, f) ->
    push thread (if holds machine c then t.items else f.items);
    Control
  | While { frame; _ } | For { frame; _ } ->
    push thread frame;
    Control
  | Do_while { body; frame; _ } ->
    push thread frame;
    push thread body.items;
    Control
  | Return value ->
    machine.return_value <- Some (Option.map (eval env) value);
    thread.depth <- 0;
    Control
  | Break ->
    unwind_until machine thread (function
      | I_loop_end -> true
      | I_stmt _ | I_end_scope _ | I_retest _ | I_for_test _ | I_for_step _
      | I_join_signal -> false);
    (* and the loop end itself *)
    thread.pcs.(thread.depth - 1) <- thread.pcs.(thread.depth - 1) + 1;
    Control
  | Continue ->
    unwind_until machine thread (function
      | I_retest _ | I_for_step _ -> true
      | I_stmt _ | I_end_scope _ | I_loop_end | I_for_test _ | I_join_signal
        -> false);
    Control
  | Block body ->
    push thread body.items;
    Control
  | Par { branches; start; extent } ->
    (* the entry thread holds every branch's region until the join; a
       branch's own pars lie inside its region *)
    let release =
      if thread == machine.entry_thread then begin
        push_sp env.store (env.fp + start + extent);
        env.fp + start
      end
      else -1
    in
    let j = { remaining = Array.length branches; joiner = thread; release } in
    machine.threads <-
      machine.threads
      @ List.map
          (fun items -> new_thread items (Some j))
          (Array.to_list branches);
    if j.remaining > 0 then thread.state <- Blocked_join;
    Control
  | Send (ch, e) ->
    let v = eval env e in
    thread.state <- Blocked_send (ch, v);
    try_rendezvous machine ch;
    Communicated
  | Delay -> Delayed

type outcome = {
  return_value : Bitvec.t option;
  steps : int;
  final_store : store;
}

let outcome (machine : machine) =
  { return_value = Option.join machine.return_value;
    steps = machine.env.steps;
    final_store = machine.env.store }

let step_budget = 10_000_000

(* A fresh store with the program's globals, the entry's arguments in
   its frame, and the entry thread ready to run its body.  The store
   starts large enough for the globals and the deepest static chain of
   frames from the entry. *)
let start ~fuel (resolved : resolved) ~entry ~args =
  let func =
    match Hashtbl.find_opt resolved.index entry with
    | Some i -> resolved.funcs.(i)
    | None -> error "entry function %s not found" entry
  in
  let globals = Array.length resolved.image in
  let store =
    { mem = Array.make (max 16 (min heap_base (globals + func.deepest))) blank;
      sp = 0;
      globals = resolved.globals;
      heap = [||];
      heap_next = heap_base }
  in
  push_sp store globals;
  Array.blit resolved.image 0 store.mem 0 globals;
  if List.length args <> func.nparams then
    error "%s expects %d arguments, got %d" entry func.nparams
      (List.length args);
  push_sp store (globals + func.nparams);
  List.iteri
    (fun i v ->
      store.mem.(globals + i) <-
        Bitvec.resize ~signed:true ~width:func.param_widths.(i) v)
    args;
  let entry_thread = new_thread func.items None in
  settle entry_thread;
  { env = { store; funcs = resolved.funcs; fp = globals; steps = 0; fuel };
    entry_thread;
    threads = [ entry_thread ];
    return_value = None }

(* A deterministic Fisher-Yates shuffle keyed on (seed, round): the
   scheduler-perturbation hook behind [run ~sched_seed].  Thread *visit*
   order changes per round; rendezvous pairing (creation order) does not,
   so a program the static checker calls race-free must produce the same
   observables under every seed — the qcheck property in test_conc.ml. *)
let permute ~seed ~round threads =
  match threads with
  | [] | [ _ ] -> threads
  | _ ->
    let arr = Array.of_list threads in
    let state = ref (((seed * 0x9e3779b1) lxor (round * 0x85ebca77)) lor 1) in
    let next bound =
      state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
      !state mod bound
    in
    for i = Array.length arr - 1 downto 1 do
      let j = next (i + 1) in
      let t = arr.(i) in
      arr.(i) <- arr.(j);
      arr.(j) <- t
    done;
    Array.to_list arr

(* One round over the threads it started with: one item of each
   runnable thread, in list order.  Whether any thread ran; a walk with
   no closure, so a round allocates nothing of its own. *)
let rec run_round machine ran = function
  | [] -> ran
  | t :: rest ->
    if runnable t && not (finished machine) then begin
      ignore (exec_item machine t);
      run_round machine true rest
    end
    else run_round machine ran rest

(** Run [entry] of a resolved program.  [fuel] bounds the number of
    interpreter steps.  Each round runs one item of every runnable
    thread, in creation order or in the round's [sched_seed]
    permutation. *)
let run_resolved ?(fuel = step_budget) ?sched_seed resolved ~entry ~args :
    outcome =
  let machine = start ~fuel resolved ~entry ~args in
  let round = ref 0 in
  while not (finished machine) do
    incr round;
    let threads =
      match sched_seed with
      | None -> machine.threads
      | Some seed -> permute ~seed ~round:!round machine.threads
    in
    if not (run_round machine false threads) then raise Deadlock
  done;
  outcome machine

let run ?fuel ?sched_seed (program : Ast.program) ~entry ~args : outcome =
  run_resolved ?fuel ?sched_seed (resolve program) ~entry ~args

(** Read a scalar global after a run. *)
let read_global outcome name =
  match Hashtbl.find_opt outcome.final_store.globals name with
  | Some (addr, _) -> outcome.final_store.mem.(addr)
  | None -> error "no global %s" name

(** Read an array global after a run. *)
let read_global_array outcome name =
  match Hashtbl.find_opt outcome.final_store.globals name with
  | Some (addr, Ctypes.Array (_, n)) -> Array.sub outcome.final_store.mem addr n
  | Some _ -> error "%s is not an array" name
  | None -> error "no global %s" name

(** Convenience wrapper: parse, check, run, and return the entry function's
    result as an int. *)
let run_int ?fuel ?sched_seed src ~entry ~args =
  let program = Typecheck.parse_and_check src in
  let args = List.map (fun n -> Bitvec.of_int ~width:64 n) args in
  let outcome = run ?fuel ?sched_seed program ~entry ~args in
  match outcome.return_value with
  | Some v -> Bitvec.to_int v
  | None -> error "%s returned no value" entry
