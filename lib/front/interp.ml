(* Reference interpreter: the software semantics of the CHLS language.

   This is the oracle every hardware backend is tested against.  It is
   deliberately *untimed* — the paper's point is that time is absent from
   the C programming model: it guarantees causality but says nothing about
   execution time — so the interpreter counts statement steps only as a
   work measure, never as clock cycles.

   Structure: expressions are evaluated big-step; statements run on a
   small-step thread machine so `par` branches interleave (round-robin in
   creation order) and rendezvous channels can block.  Function calls are
   big-step and therefore must be sequential (no par/channel ops inside a
   function called from an expression); the top-level entry function body
   gets the full concurrent treatment.  The Handel-C clock (Handel_machine)
   drives the same thread machine in lockstep cycles, charging each item
   by the work it reports.

   Memory is word-addressed: every scalar (of any width) occupies one word
   holding a Bitvec of its declared width; pointers are 32-bit word
   addresses.  Globals live at low addresses, the stack above them.
   Big-step calls reclaim their frames.  The thread machine reclaims a
   block's words when the block closes, except while par branches are
   running: their block scopes interleave on the one stack. *)

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

type store = {
  mutable mem : Bitvec.t array;
  mutable sp : int; (* next free stack word *)
  globals : (string, int * Ctypes.t) Hashtbl.t;
  mutable heap_next : int; (* bump pointer for malloc, above the stack *)
}

(* The stack lives in [0, heap_base); malloc carves from [heap_base, ...).
   Keeping them disjoint means returning from a function (which lowers sp)
   never invalidates heap storage. *)
let heap_base = 1 lsl 16

let grow store needed =
  if needed > Array.length store.mem then begin
    let bigger =
      Array.make (max (2 * Array.length store.mem) needed) (Bitvec.zero 1)
    in
    Array.blit store.mem 0 bigger 0 (Array.length store.mem);
    store.mem <- bigger
  end

let alloc store words =
  let base = store.sp in
  store.sp <- store.sp + words;
  if store.sp > heap_base then error "stack overflow";
  grow store store.sp;
  base

let alloc_heap store words =
  let base = store.heap_next in
  store.heap_next <- store.heap_next + words;
  grow store store.heap_next;
  base

let valid_address store addr =
  (addr >= 0 && addr < store.sp)
  || (addr >= heap_base && addr < store.heap_next)

let load store addr =
  if not (valid_address store addr) then
    error "load out of bounds (addr %d, sp %d)" addr store.sp;
  store.mem.(addr)

let store_word store addr v =
  if not (valid_address store addr) then
    error "store out of bounds (addr %d, sp %d)" addr store.sp;
  store.mem.(addr) <- v

(* --- environments: name -> (address, declared type) --- *)

type scope = (string, int * Ctypes.t) Hashtbl.t

type env = {
  store : store;
  program : Ast.program;
  mutable scopes : scope list;
  mutable steps : int;
  fuel : int;
}

let step env =
  env.steps <- env.steps + 1;
  if env.steps > env.fuel then raise Timeout

let lookup env name =
  let rec go = function
    | [] -> (
      match Hashtbl.find_opt env.store.globals name with
      | Some binding -> binding
      | None -> error "undefined variable %s" name)
    | scope :: rest -> (
      match Hashtbl.find_opt scope name with
      | Some binding -> binding
      | None -> go rest)
  in
  go env.scopes

let declared_width ty = max 1 (Ctypes.width ty)

(* Width in words of the pointee, used to scale pointer arithmetic. *)
let pointee_words = function
  | Ctypes.Pointer t | Ctypes.Array (t, _) -> max 1 (Ctypes.word_count t)
  | Ctypes.Void | Ctypes.Integer _ | Ctypes.Function _ -> 1

let ptr_width = Ctypes.pointer_width

let bool_result b =
  Bitvec.of_int ~width:(Ctypes.width Ctypes.int_t) (if b then 1 else 0)

(* --- expression evaluation (big-step) --- *)

let rec eval env (e : Ast.expr) : Bitvec.t =
  match e.e with
  | Const (v, ty) -> Bitvec.of_int64 ~width:(declared_width ty) v
  | Var name ->
    let addr, ty = lookup env name in
    (match ty with
    | Ctypes.Array _ -> Bitvec.of_int ~width:ptr_width addr
    | Ctypes.Void | Ctypes.Integer _ | Ctypes.Pointer _ | Ctypes.Function _
      -> load env.store addr)
  | Unop (Ast.Log_not, a) -> bool_result (Bitvec.is_zero (eval env a))
  | Unop (Ast.Neg, a) -> Bitvec.neg (eval env a)
  | Unop (Ast.Bit_not, a) -> Bitvec.lognot (eval env a)
  | Binop (Ast.Log_and, a, b) ->
    bool_result
      ((not (Bitvec.is_zero (eval env a)))
      && not (Bitvec.is_zero (eval env b)))
  | Binop (Ast.Log_or, a, b) ->
    bool_result
      (not (Bitvec.is_zero (eval env a)) || not (Bitvec.is_zero (eval env b)))
  | Binop (op, a, b) -> eval_binop env op a b
  | Assign (lhs, rhs) ->
    let v = eval env rhs in
    let addr = eval_lvalue env lhs in
    store_word env.store addr v;
    v
  | Cond (c, t, f) ->
    if Bitvec.is_zero (eval env c) then eval env f else eval env t
  | Call (name, args) -> eval_call env name args
  | Index _ | Deref _ ->
    let addr = eval_lvalue env e in
    (match e.ty with
    | Ctypes.Array _ -> Bitvec.of_int ~width:ptr_width addr
    | Ctypes.Void | Ctypes.Integer _ | Ctypes.Pointer _ | Ctypes.Function _
      -> load env.store addr)
  | Addr_of a -> Bitvec.of_int ~width:ptr_width (eval_lvalue env a)
  | Cast (ty, a) ->
    let v = eval env a in
    Bitvec.resize ~signed:(Ctypes.is_signed a.ty) ~width:(declared_width ty) v
  | Chan_recv _ -> error "channel receive inside an expression-context call"

and eval_binop env op a b =
  match (op, a.Ast.ty, b.Ast.ty) with
  | Ast.Add, Ctypes.Pointer _, _ ->
    let base = eval env a and idx = eval env b in
    let words = pointee_words a.ty in
    Bitvec.add base (Bitvec.of_int ~width:ptr_width (Bitvec.to_int idx * words))
  | Ast.Sub, Ctypes.Pointer _, ti when Ctypes.is_integer ti ->
    let base = eval env a and idx = eval env b in
    let words = pointee_words a.ty in
    Bitvec.sub base (Bitvec.of_int ~width:ptr_width (Bitvec.to_int idx * words))
  | Ast.Sub, Ctypes.Pointer _, Ctypes.Pointer _ ->
    let va = eval env a and vb = eval env b in
    let words = pointee_words a.ty in
    Bitvec.of_int ~width:(Ctypes.width Ctypes.int_t)
      ((Bitvec.to_int va - Bitvec.to_int vb) / words)
  | _ ->
    let va = eval env a and vb = eval env b in
    let signed = Ctypes.is_signed a.ty in
    let open Bitvec in
    (match op with
    | Ast.Add -> add va vb
    | Ast.Sub -> sub va vb
    | Ast.Mul -> mul va vb
    | Ast.Div -> if signed then sdiv va vb else udiv va vb
    | Ast.Mod -> if signed then srem va vb else urem va vb
    | Ast.Band -> logand va vb
    | Ast.Bor -> logor va vb
    | Ast.Bxor -> logxor va vb
    | Ast.Shl -> shl va vb
    | Ast.Shr -> if signed then ashr va vb else lshr va vb
    | Ast.Eq -> bool_result (equal va vb)
    | Ast.Ne -> bool_result (not (equal va vb))
    | Ast.Lt -> bool_result (if signed then slt va vb else ult va vb)
    | Ast.Le -> bool_result (if signed then sle va vb else ule va vb)
    | Ast.Gt -> bool_result (if signed then slt vb va else ult vb va)
    | Ast.Ge -> bool_result (if signed then sle vb va else ule vb va)
    | Ast.Log_and | Ast.Log_or ->
      (* [eval] rewrites the short-circuit operators before dispatching
         here; reaching this branch means that lowering missed a case *)
      internal_error a.Ast.eloc
        "short-circuit operator %s reached the scalar binop evaluator"
        (match op with Ast.Log_and -> "&&" | _ -> "||"))

and eval_lvalue env (e : Ast.expr) : int =
  match e.e with
  | Var name -> fst (lookup env name)
  | Deref a -> Bitvec.to_int_unsigned (eval env a)
  | Index (base, idx) ->
    let elt_words =
      match Ctypes.decay base.ty with
      | Ctypes.Pointer elt -> max 1 (Ctypes.word_count elt)
      | Ctypes.Void | Ctypes.Integer _ | Ctypes.Array _ | Ctypes.Function _
        -> error "indexing a non-pointer"
    in
    let base_addr =
      match base.ty with
      | Ctypes.Array _ -> eval_lvalue env base
      | Ctypes.Void | Ctypes.Integer _ | Ctypes.Pointer _ | Ctypes.Function _
        -> Bitvec.to_int_unsigned (eval env base)
    in
    base_addr + (Bitvec.to_int (eval env idx) * elt_words)
  | Const _ | Unop _ | Binop _ | Assign _ | Cond _ | Call _ | Addr_of _
  | Cast _ | Chan_recv _ -> error "not an lvalue"

(* --- big-step function execution (sequential subset) --- *)

and eval_call env name args =
  match (Ast.find_func env.program name, name, args) with
  | None, "malloc", [ n ] ->
    (* bump allocation from the heap half of the word store; never freed *)
    let words = max 1 (Bitvec.to_int (eval env n)) in
    let base = alloc_heap env.store words in
    for i = 0 to words - 1 do
      env.store.mem.(base + i) <- Bitvec.zero 32
    done;
    Bitvec.of_int ~width:ptr_width base
  | None, _, _ -> error "call to undefined function %s" name
  | Some func, _, _ -> eval_user_call env func args

and eval_user_call env func args =
  let arg_values = List.map (eval env) args in
  let saved_sp = env.store.sp in
  let frame : scope = Hashtbl.create 8 in
  List.iter2
    (fun (ty, pname) v ->
      let ty =
        match ty with Ctypes.Array (elt, _) -> Ctypes.Pointer elt | t -> t
      in
      let addr = alloc env.store 1 in
      store_word env.store addr v;
      Hashtbl.replace frame pname (addr, ty))
    func.f_params arg_values;
  let saved_scopes = env.scopes in
  env.scopes <- [ frame ];
  let finish () =
    env.scopes <- saved_scopes;
    env.store.sp <- saved_sp
  in
  let result =
    try
      List.iter (exec_big env) func.f_body;
      Bitvec.zero (max 1 (Ctypes.width func.f_ret))
    with
    | Return_value (Some v) -> v
    | Return_value None -> Bitvec.zero (max 1 (Ctypes.width func.f_ret))
    | exn ->
      finish ();
      raise exn
  in
  finish ();
  result

and exec_big env (st : Ast.stmt) : unit =
  step env;
  match st.s with
  | Expr e -> ignore (eval env e)
  | Decl (ty, name, init) ->
    let addr = alloc env.store (max 1 (Ctypes.word_count ty)) in
    (match env.scopes with
    | scope :: _ -> Hashtbl.replace scope name (addr, ty)
    | [] -> error "no scope");
    (match init with
    | None -> ()
    | Some e -> store_word env.store addr (eval env e))
  | If (c, t, f) ->
    if Bitvec.is_zero (eval env c) then exec_block_big env f
    else exec_block_big env t
  | While (c, body) -> (
    try
      while not (Bitvec.is_zero (eval env c)) do
        step env;
        try exec_block_big env body with Continue_exn -> ()
      done
    with Break_exn -> ())
  | Do_while (body, c) -> (
    try
      let continue = ref true in
      while !continue do
        step env;
        (try exec_block_big env body with Continue_exn -> ());
        continue := not (Bitvec.is_zero (eval env c))
      done
    with Break_exn -> ())
  | For (init, cond, stepper, body) ->
    let scope = Hashtbl.create 4 in
    env.scopes <- scope :: env.scopes;
    let saved_sp = env.store.sp in
    let finish () =
      env.scopes <- List.tl env.scopes;
      env.store.sp <- saved_sp
    in
    (try
       (match init with None -> () | Some st -> exec_big env st);
       let test () =
         match cond with
         | None -> true
         | Some c -> not (Bitvec.is_zero (eval env c))
       in
       (try
          while test () do
            step env;
            (try exec_block_big env body with Continue_exn -> ());
            match stepper with None -> () | Some e -> ignore (eval env e)
          done
        with Break_exn -> ());
       finish ()
     with exn ->
       finish ();
       raise exn)
  | Return None -> raise (Return_value None)
  | Return (Some e) -> raise (Return_value (Some (eval env e)))
  | Break -> raise Break_exn
  | Continue -> raise Continue_exn
  | Block body -> exec_block_big env body
  | Par _ | Chan_send _ ->
    error "par/channel operation inside an expression-context call"
  | Delay -> () (* untimed semantics: delay is a no-op *)
  | Constrain (_, _, body) ->
    (* Timing constraints do not change the software semantics. *)
    exec_block_big env body

and exec_block_big env body =
  let scope = Hashtbl.create 4 in
  env.scopes <- scope :: env.scopes;
  let saved_sp = env.store.sp in
  Fun.protect
    ~finally:(fun () ->
      env.scopes <- List.tl env.scopes;
      env.store.sp <- saved_sp)
    (fun () -> List.iter (exec_big env) body)

(* --- the thread machine for the entry function --- *)

type item =
  | I_stmt of Ast.stmt
  | I_end_scope of int (* the stack pointer when the scope opened *)
  | I_loop_end
  | I_while_retest of Ast.expr * Ast.block
  | I_dowhile_retest of Ast.block * Ast.expr
  | I_for_test of Ast.expr option * Ast.expr option * Ast.block
  | I_for_step of Ast.expr option * Ast.expr option * Ast.block
  | I_join_signal of join

and join = { mutable remaining : int; joiner : thread }

and blocked =
  | Runnable
  | Blocked_send of string * Bitvec.t
  | Blocked_recv of string * (Bitvec.t -> unit)
  | Blocked_join

and thread = {
  mutable cont : item list;
  mutable tenv : scope list;
  mutable state : blocked;
}

type machine = {
  env : env;
  entry_thread : thread;
  mutable threads : thread list;
      (* in creation order: the entry thread and every unfinished thread *)
  mutable return_value : Bitvec.t option option; (* Some: entry returned *)
}

(* What an item did, for a clock that charges by statement kind. *)
type work =
  | Control
  | Assigned of Ast.expr * Ast.expr
  | Stepped
  | Initialised of string
  | Communicated
  | Delayed

let threads machine = machine.threads

let runnable t =
  match (t.cont, t.state) with
  | _ :: _, Runnable -> true
  | [], _ | _, (Blocked_send _ | Blocked_recv _ | Blocked_join) -> false

let finished machine =
  match (machine.return_value, machine.entry_thread.cont) with
  | Some _, _ | None, [] -> true
  | None, _ :: _ -> false

(* Every evaluation in a thread first points the environment at that
   thread's scopes, so nothing has to restore them afterwards. *)
let eval_in machine thread e =
  machine.env.scopes <- thread.tenv;
  eval machine.env e

let holds machine thread c = not (Bitvec.is_zero (eval_in machine thread c))

(* Open a scope now and return the items that execute [body] then close it. *)
let scoped_items machine thread body after =
  thread.tenv <- Hashtbl.create 4 :: thread.tenv;
  List.map (fun s -> I_stmt s) body
  @ (I_end_scope machine.env.store.sp :: after)

(* Close the thread's innermost scope.  When no other thread is
   unfinished, no live word lies above the scope's opening stack
   pointer, so its words are free again; interleaved par branches keep
   theirs until an enclosing scope of the joined thread closes. *)
let close_scope machine thread sp =
  thread.tenv <- List.tl thread.tenv;
  match machine.threads with
  | [ only ] when only == thread -> machine.env.store.sp <- sp
  | _ -> ()

(* Pop continuation items until the predicate holds, closing scopes on
   the way (used by break/continue). *)
let rec unwind_until machine thread pred =
  match thread.cont with
  | [] -> error "break/continue with no enclosing loop in thread"
  | item :: rest ->
    if pred item then ()
    else begin
      (match item with
      | I_end_scope sp -> close_scope machine thread sp
      | I_stmt _ | I_loop_end | I_while_retest _ | I_dowhile_retest _
      | I_for_test _ | I_for_step _ | I_join_signal _ -> ());
      thread.cont <- rest;
      unwind_until machine thread pred
    end

(* A receive can appear as a bare expression statement, as the rhs of an
   assignment, or as a declaration initializer (possibly behind the cast
   inserted by the type checker). *)
let as_recv (e : Ast.expr) =
  match e.e with
  | Ast.Chan_recv ch -> Some (ch, None)
  | Ast.Cast (ty, { e = Ast.Chan_recv ch; _ }) -> Some (ch, Some ty)
  | Ast.Const _ | Ast.Var _ | Ast.Unop _ | Ast.Binop _ | Ast.Assign _
  | Ast.Cond _ | Ast.Call _ | Ast.Index _ | Ast.Deref _ | Ast.Addr_of _
  | Ast.Cast _ -> None

let convert_received ty v =
  match ty with
  | None -> v
  | Some ty -> Bitvec.resize ~signed:true ~width:(declared_width ty) v

(* The assignment the thread's next item would perform, if it is an
   assignment statement or a for-step that is an assignment. *)
let pending_assignment thread =
  match thread.cont with
  | I_stmt { s = Expr { e = Assign (lhs, rhs); _ }; _ } :: _
    when as_recv rhs = None -> Some (lhs, rhs)
  | I_for_step (_, Some { e = Assign (lhs, rhs); _ }, _) :: _ ->
    Some (lhs, rhs)
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
  match thread.cont with
  | [] -> Control
  | item :: rest ->
    thread.cont <- rest;
    step machine.env;
    let work =
      match item with
      | I_end_scope sp ->
        close_scope machine thread sp;
        Control
      | I_loop_end -> Control
      | I_while_retest (c, body) ->
        if holds machine thread c then
          thread.cont <-
            scoped_items machine thread body
              (I_while_retest (c, body) :: thread.cont);
        Control
      | I_dowhile_retest (body, c) ->
        if holds machine thread c then
          thread.cont <-
            scoped_items machine thread body
              (I_dowhile_retest (body, c) :: thread.cont);
        Control
      | I_for_test (cond, stepper, body) ->
        if match cond with None -> true | Some c -> holds machine thread c
        then
          thread.cont <-
            scoped_items machine thread body
              (I_for_step (cond, stepper, body) :: thread.cont);
        Control
      | I_for_step (cond, stepper, body) ->
        let work =
          match stepper with
          | None -> Control
          | Some e -> (
            ignore (eval_in machine thread e);
            match e.e with
            | Assign (lhs, rhs) -> Assigned (lhs, rhs)
            | _ -> Stepped)
        in
        thread.cont <- I_for_test (cond, stepper, body) :: thread.cont;
        work
      | I_join_signal j ->
        j.remaining <- j.remaining - 1;
        if j.remaining = 0 && j.joiner.state = Blocked_join then
          j.joiner.state <- Runnable;
        Control
      | I_stmt st -> exec_thread_stmt machine thread st
    in
    (match thread.cont with
    | [] when thread != machine.entry_thread ->
      machine.threads <- List.filter (fun t -> t != thread) machine.threads
    | _ -> ());
    work

and exec_thread_stmt machine thread (st : Ast.stmt) =
  let env = machine.env in
  match st.s with
  | Expr e when as_recv e <> None ->
    let ch, _ = Option.get (as_recv e) in
    recv machine thread ch (fun _ -> ())
  | Expr { e = Ast.Assign (lhs, rhs); _ } when as_recv rhs <> None ->
    let ch, cast = Option.get (as_recv rhs) in
    recv machine thread ch (fun v ->
        env.scopes <- thread.tenv;
        store_word env.store (eval_lvalue env lhs) (convert_received cast v))
  | Expr e -> (
    ignore (eval_in machine thread e);
    match e.e with Assign (lhs, rhs) -> Assigned (lhs, rhs) | _ -> Control)
  | Decl (ty, name, init) -> (
    let addr = alloc env.store (max 1 (Ctypes.word_count ty)) in
    (match thread.tenv with
    | scope :: _ -> Hashtbl.replace scope name (addr, ty)
    | [] -> error "no scope in thread");
    match init with
    | Some e when as_recv e <> None ->
      let ch, cast = Option.get (as_recv e) in
      recv machine thread ch (fun v ->
          store_word env.store addr (convert_received cast v))
    | None -> Control
    | Some e ->
      store_word env.store addr (eval_in machine thread e);
      Initialised name)
  | If (c, t, f) ->
    let taken = if holds machine thread c then t else f in
    thread.cont <- scoped_items machine thread taken thread.cont;
    Control
  | While (c, body) ->
    thread.cont <- I_while_retest (c, body) :: I_loop_end :: thread.cont;
    Control
  | Do_while (body, c) ->
    thread.cont <-
      scoped_items machine thread body
        (I_dowhile_retest (body, c) :: I_loop_end :: thread.cont);
    Control
  | For (init, cond, stepper, body) ->
    let sp = env.store.sp in
    thread.tenv <- Hashtbl.create 4 :: thread.tenv;
    thread.cont <-
      (match init with None -> [] | Some st -> [ I_stmt st ])
      @ I_for_test (cond, stepper, body)
        :: I_loop_end :: I_end_scope sp :: thread.cont;
    Control
  | Return value ->
    machine.return_value <- Some (Option.map (eval_in machine thread) value);
    thread.cont <- [];
    Control
  | Break ->
    unwind_until machine thread (function
      | I_loop_end -> true
      | I_stmt _ | I_end_scope _ | I_while_retest _ | I_dowhile_retest _
      | I_for_test _ | I_for_step _ | I_join_signal _ -> false);
    (match thread.cont with
    | I_loop_end :: rest -> thread.cont <- rest
    | _ -> ());
    Control
  | Continue ->
    unwind_until machine thread (function
      | I_while_retest _ | I_dowhile_retest _ | I_for_step _ -> true
      | I_stmt _ | I_end_scope _ | I_loop_end | I_for_test _
      | I_join_signal _ -> false);
    Control
  | Block body | Constrain (_, _, body) ->
    thread.cont <- scoped_items machine thread body thread.cont;
    Control
  | Par branches ->
    let j = { remaining = List.length branches; joiner = thread } in
    machine.threads <-
      machine.threads
      @ List.map
          (fun branch ->
            { cont = List.map (fun s -> I_stmt s) branch @ [ I_join_signal j ];
              tenv = Hashtbl.create 4 :: thread.tenv;
              state = Runnable })
          branches;
    if j.remaining > 0 then thread.state <- Blocked_join;
    Control
  | Chan_send (ch, e) ->
    let v = eval_in machine thread e in
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

let allocate_globals store (program : Ast.program) =
  List.iter
    (fun (g : Ast.global) ->
      let words = max 1 (Ctypes.word_count g.g_ty) in
      let base = alloc store words in
      Hashtbl.replace store.globals g.g_name (base, g.g_ty);
      let elem_width =
        match g.g_ty with
        | Ctypes.Array (elt, _) -> declared_width elt
        | ty -> declared_width ty
      in
      for i = 0 to words - 1 do
        store.mem.(base + i) <- Bitvec.zero elem_width
      done;
      match g.g_init with
      | None -> ()
      | Some values ->
        List.iteri
          (fun i v ->
            if i < words then
              store.mem.(base + i) <- Bitvec.of_int64 ~width:elem_width v)
          values)
    program.globals

let step_budget = 10_000_000

(* A fresh store with the program's globals, the entry's arguments in
   its frame, and the entry thread ready to run its body. *)
let start ~fuel (program : Ast.program) ~entry ~args =
  let func =
    match Ast.find_func program entry with
    | Some f -> f
    | None -> error "entry function %s not found" entry
  in
  let store =
    { mem = Array.make 1024 (Bitvec.zero 1); sp = 0;
      globals = Hashtbl.create 16; heap_next = heap_base }
  in
  allocate_globals store program;
  if List.length args <> List.length func.f_params then
    error "%s expects %d arguments, got %d" entry
      (List.length func.f_params) (List.length args);
  let frame : scope = Hashtbl.create 8 in
  List.iter2
    (fun (ty, name) v ->
      let ty =
        match ty with Ctypes.Array (elt, _) -> Ctypes.Pointer elt | t -> t
      in
      let addr = alloc store 1 in
      store_word store addr
        (Bitvec.resize ~signed:true ~width:(declared_width ty) v);
      Hashtbl.replace frame name (addr, ty))
    func.f_params args;
  let entry_thread =
    { cont = List.map (fun s -> I_stmt s) func.f_body; tenv = [ frame ];
      state = Runnable }
  in
  { env = { store; program; scopes = []; steps = 0; fuel };
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

(** Run [entry] with scalar [args]; the program must already be
    type-checked.  [fuel] bounds the number of interpreter steps.  Each
    round runs one item of every runnable thread, in creation order or
    in the round's [sched_seed] permutation. *)
let run ?(fuel = step_budget) ?sched_seed (program : Ast.program) ~entry
    ~args : outcome =
  let machine = start ~fuel program ~entry ~args in
  let round = ref 0 in
  while not (finished machine) do
    incr round;
    let ran = ref false in
    List.iter
      (fun t ->
        if runnable t && not (finished machine) then begin
          ran := true;
          ignore (exec_item machine t)
        end)
      (match sched_seed with
      | None -> machine.threads
      | Some seed -> permute ~seed ~round:!round machine.threads);
    if not !ran then raise Deadlock
  done;
  outcome machine

(** Read a scalar global after a run. *)
let read_global outcome name =
  match Hashtbl.find_opt outcome.final_store.globals name with
  | Some (addr, _) -> outcome.final_store.mem.(addr)
  | None -> error "no global %s" name

(** Read an array global after a run. *)
let read_global_array outcome name =
  match Hashtbl.find_opt outcome.final_store.globals name with
  | Some (addr, Ctypes.Array (_, n)) ->
    Array.init n (fun i -> outcome.final_store.mem.(addr + i))
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
