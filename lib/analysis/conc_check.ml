(* Static concurrency checker: the paper's Concurrency section, checked.

   Two analyses over the elaborated AST:

   - a par-block race detector: per [Ast.Par] arm, compute the may-read /
     may-write sets of shared storage (globals, outer locals, arrays as
     whole regions, and for pointer operations everything a pointer can
     reach: globals, arrays, and outer locals that are arrays or have
     their address taken) and report write/write and read/write conflicts
     between sibling arms;

   - a channel lint: rendezvous endpoints used across arms are matched up,
     flagging sends with no possible receiving arm (and vice versa),
     channels shared by more than two arms (nondeterministic pairing), and
     an arm that both sends and receives the same channel with no partner
     anywhere (certain self-communication deadlock).

   Severity is per dialect: hard error where the surveyed language forbids
   the construct (Handel-C forbids two branches writing one variable;
   Bach C's untimed semantics make any racing access meaningless; an
   unmatched rendezvous deadlocks both), warning where the language merely
   makes it dangerous (SpecC's shared variables are the paper's example of
   a silent hazard).  The checker never rejects what the dialect's
   [Dialect.check] already rejects — it assumes a type-checked program in
   a dialect that allows [par] at all. *)

(* --- targets and accesses ---------------------------------------------- *)

type target =
  | Scalar of string (* a local or parameter of the enclosing function *)
  | Global of string
  | Array of string (* whole-region granularity, element-insensitive *)
  | Pointer
      (* any pointer-mediated access: may alias every global and array,
         and an enclosing local that is an array or has its address
         taken *)

type access_kind = Read | Write

type access = { a_target : target; a_kind : access_kind; a_loc : Ast.loc }

type endpoint = Send | Recv

type chan_use = { c_chan : string; c_end : endpoint; c_loc : Ast.loc }

(* The effect summary of one par arm (or one called function). *)
type effects = {
  mutable acc : access list;
  mutable chans : chan_use list; (* everywhere in the subtree *)
  mutable serial : chan_use list; (* outside any nested par *)
}

let new_effects () = { acc = []; chans = []; serial = [] }

let describe_target = function
  | Scalar n -> Printf.sprintf "variable '%s'" n
  | Global n -> Printf.sprintf "global '%s'" n
  | Array n -> Printf.sprintf "array '%s'" n
  | Pointer -> "pointer-aliased storage"

(* --- diagnostics ------------------------------------------------------- *)

type kind =
  | Race_ww of target
  | Race_rw of target
  | Chan_unmatched_send of string
  | Chan_unmatched_recv of string
  | Chan_fan of string
  | Chan_self of string

type severity = Error | Warning

type diag = {
  d_kind : kind;
  d_severity : severity;
  d_loc : Ast.loc;
  d_other : Ast.loc option; (* the conflicting sibling access, if any *)
  d_msg : string;
}

exception Check_failed of diag list

let errors ds = List.filter (fun d -> d.d_severity = Error) ds
let warnings ds = List.filter (fun d -> d.d_severity = Warning) ds

let severity_name = function Error -> "error" | Warning -> "warning"

let render ?file d =
  let prefix =
    match file with
    | Some f -> Printf.sprintf "%s:%d:%d: " f d.d_loc.Ast.line d.d_loc.Ast.col
    | None -> Printf.sprintf "line %d: " d.d_loc.Ast.line
  in
  let also =
    match d.d_other with
    | Some l when l.Ast.line > 0 ->
      Printf.sprintf " (conflicts with line %d)" l.Ast.line
    | _ -> ""
  in
  Printf.sprintf "%s%s: %s%s" prefix (severity_name d.d_severity) d.d_msg also

let counter_name = function
  | Race_ww _ -> "races.write_write"
  | Race_rw _ -> "races.read_write"
  | Chan_unmatched_send _ -> "chan.unmatched_send"
  | Chan_unmatched_recv _ -> "chan.unmatched_recv"
  | Chan_fan _ -> "chan.fan"
  | Chan_self _ -> "chan.self_deadlock"

let metric_counters ds =
  let keys =
    [ "races.write_write"; "races.read_write"; "chan.unmatched_send";
      "chan.unmatched_recv"; "chan.fan"; "chan.self_deadlock" ]
  in
  List.map
    (fun k ->
      (k, List.length (List.filter (fun d -> counter_name d.d_kind = k) ds)))
    keys

(* --- per-dialect severity ---------------------------------------------- *)

(* The paper's characterisations, made operational.  Handel-C restricts
   the language (one writing branch per variable) so a double write is
   illegal; its one-writer-many-readers idiom is legal but timing-
   sensitive, hence a warning.  Bach C's untimed semantics leave any
   racing access with scheduling-defined meaning, so both conflict shapes
   are errors (Cyber/BDL rides the same backend and rules).  SpecC is the
   paper's silent-hazard example: shared variables between concurrent
   behaviors are permitted, so everything is a warning there.  Any other
   dialect that reaches the checker gets the permissive (warning)
   treatment. *)
let severity (dialect : Dialect.t) kind ~certain =
  let strict =
    match dialect.Dialect.name with
    | "Handel-C" | "Bach C" | "Cyber (BDL)" -> true
    | _ -> false
  in
  match kind with
  | Race_ww _ -> if strict then Error else Warning
  | Race_rw _ -> (
    match dialect.Dialect.name with
    | "Bach C" | "Cyber (BDL)" -> Error (* untimed: either order is legal *)
    | _ -> Warning)
  | Chan_unmatched_send _ | Chan_unmatched_recv _ | Chan_self _ ->
    if strict && certain then Error else Warning
  | Chan_fan _ -> Warning

(* --- effect computation ------------------------------------------------ *)

type ctx = {
  program : Ast.program;
  summaries : (string, effects) Hashtbl.t; (* per-function, memoized *)
  mutable call_stack : string list; (* recursion guard *)
}

(* Who binds a name in scope: the par arm itself (or the function a call
   enters), or the function enclosing the par, whose locals and
   parameters the arms share. *)
type binder = Arm | Enclosing

type scopes = (string, binder) Hashtbl.t list

(* Classify a named variable as seen from inside a par arm: names bound
   inside the arm are private (no shared access), everything else is
   shared storage.  An enclosing local or parameter is its own storage,
   even where a global has its name; a global's declared type
   distinguishes whole arrays. *)
let classify ctx (scopes : scopes) name =
  match List.find_map (fun t -> Hashtbl.find_opt t name) scopes with
  | Some Arm -> None
  | Some Enclosing -> Some (Scalar name)
  | None -> (
    match Ast.find_global ctx.program name with
    | Some { Ast.g_ty = Ctypes.Array _; _ } -> Some (Array name)
    | Some _ | None -> Some (Global name))

let add_access (out : effects) target kind loc =
  out.acc <- { a_target = target; a_kind = kind; a_loc = loc } :: out.acc

let add_chan (out : effects) ~depth chan endpoint loc =
  let u = { c_chan = chan; c_end = endpoint; c_loc = loc } in
  out.chans <- u :: out.chans;
  if depth = 0 then out.serial <- u :: out.serial

(* Strip the casts the type checker inserts around lvalue bases. *)
let rec strip_casts (e : Ast.expr) =
  match e.Ast.e with Ast.Cast (_, inner) -> strip_casts inner | _ -> e

let rec walk_expr ctx scopes (out : effects) ~depth (e : Ast.expr) =
  let loc = e.Ast.eloc in
  match e.Ast.e with
  | Ast.Const _ -> ()
  | Ast.Var name -> (
    match classify ctx scopes name with
    | Some t -> add_access out t Read loc
    | None -> ())
  | Ast.Unop (_, a) | Ast.Cast (_, a) ->
    walk_expr ctx scopes out ~depth a
  | Ast.Binop (_, a, b) ->
    walk_expr ctx scopes out ~depth a;
    walk_expr ctx scopes out ~depth b
  | Ast.Cond (a, b, c) ->
    walk_expr ctx scopes out ~depth a;
    walk_expr ctx scopes out ~depth b;
    walk_expr ctx scopes out ~depth c
  | Ast.Assign (lhs, rhs) ->
    walk_expr ctx scopes out ~depth rhs;
    walk_lvalue ctx scopes out ~depth lhs
  | Ast.Index (base, idx) ->
    walk_expr ctx scopes out ~depth idx;
    walk_indexed ctx scopes out ~depth base Read
  | Ast.Deref a ->
    walk_expr ctx scopes out ~depth a;
    add_access out Pointer Read loc
  | Ast.Addr_of a ->
    (* the address escapes: whatever it names may be read and written *)
    (match (strip_casts a).Ast.e with
    | Ast.Var name -> (
      match classify ctx scopes name with
      | Some t ->
        add_access out t Read loc;
        add_access out t Write loc
      | None -> ())
    | _ ->
      add_access out Pointer Read loc;
      add_access out Pointer Write loc)
  | Ast.Chan_recv ch -> add_chan out ~depth ch Recv loc
  | Ast.Call (name, args) ->
    List.iter (walk_expr ctx scopes out ~depth) args;
    apply_call ctx scopes out ~depth name args loc

(* The base of an assignment or index: writes land on the named region. *)
and walk_lvalue ctx scopes (out : effects) ~depth (lhs : Ast.expr) =
  let loc = lhs.Ast.eloc in
  match (strip_casts lhs).Ast.e with
  | Ast.Var name -> (
    match classify ctx scopes name with
    | Some t -> add_access out t Write loc
    | None -> ())
  | Ast.Index (base, idx) ->
    walk_expr ctx scopes out ~depth idx;
    walk_indexed ctx scopes out ~depth base Write
  | Ast.Deref a ->
    walk_expr ctx scopes out ~depth a;
    add_access out Pointer Write loc
  | _ -> walk_expr ctx scopes out ~depth lhs

and walk_indexed ctx scopes (out : effects) ~depth base kind =
  let b = strip_casts base in
  match b.Ast.e with
  | Ast.Var name -> (
    match classify ctx scopes name with
    | Some (Scalar _) when Ctypes.is_pointer b.Ast.ty ->
      (* indexing through a pointer-typed enclosing local *)
      add_access out Pointer kind b.Ast.eloc
    | Some t -> add_access out t kind b.Ast.eloc
    | None -> () (* arm-private array *))
  | _ ->
    walk_expr ctx scopes out ~depth b;
    add_access out Pointer kind b.Ast.eloc

(* Fold a callee's shared effects into the caller, relocated to the call
   site so diagnostics point into the arm.  Arrays handed to pointer
   parameters may be read and written by the callee. *)
and apply_call ctx scopes (out : effects) ~depth name args loc =
  (match Ast.find_func ctx.program name with
  | None -> () (* builtin (malloc): no shared-storage effects *)
  | Some f ->
    let s = summary_of ctx f in
    List.iter
      (fun a -> add_access out a.a_target a.a_kind loc)
      s.acc;
    List.iter (fun u -> add_chan out ~depth u.c_chan u.c_end loc) s.chans;
    List.iter2
      (fun (pty, _) (arg : Ast.expr) ->
        match pty with
        | Ctypes.Pointer _ | Ctypes.Array _ -> (
          match (strip_casts arg).Ast.e with
          | Ast.Var aname -> (
            match classify ctx scopes aname with
            | Some t ->
              add_access out t Read loc;
              add_access out t Write loc
            | None -> ())
          | _ ->
            add_access out Pointer Read loc;
            add_access out Pointer Write loc)
        | _ -> ())
      f.Ast.f_params
      (if List.length args = List.length f.Ast.f_params then args
       else List.map (fun (_, _) -> Ast.mk_expr (Ast.Const (0L, Ctypes.int_t)))
              f.Ast.f_params))

(* The whole-function effect summary: globals, arrays and channels the
   function (transitively) touches.  Its own locals and parameters are
   private and excluded; storage reached through pointer parameters is
   charged at each call site instead. *)
and summary_of ctx (f : Ast.func) : effects =
  match Hashtbl.find_opt ctx.summaries f.Ast.f_name with
  | Some s -> s
  | None ->
    if List.mem f.Ast.f_name ctx.call_stack then new_effects ()
    else begin
      ctx.call_stack <- f.Ast.f_name :: ctx.call_stack;
      let out = new_effects () in
      let params : scopes =
        let t = Hashtbl.create 8 in
        List.iter (fun (_, n) -> Hashtbl.replace t n Arm) f.Ast.f_params;
        [ t ]
      in
      walk_block ctx params out ~depth:0 f.Ast.f_body;
      ctx.call_stack <- List.tl ctx.call_stack;
      Hashtbl.replace ctx.summaries f.Ast.f_name out;
      out
    end

and walk_stmt ctx scopes (out : effects) ~depth (st : Ast.stmt) =
  match st.Ast.s with
  | Ast.Expr e -> walk_expr ctx scopes out ~depth e
  | Ast.Decl (_, name, init) ->
    (match init with
    | Some e -> walk_expr ctx scopes out ~depth e
    | None -> ());
    (match scopes with
    | t :: _ -> Hashtbl.replace t name Arm
    | [] -> ())
  | Ast.If (c, t, f) ->
    walk_expr ctx scopes out ~depth c;
    walk_block ctx scopes out ~depth t;
    walk_block ctx scopes out ~depth f
  | Ast.While (c, body) ->
    walk_expr ctx scopes out ~depth c;
    walk_block ctx scopes out ~depth body
  | Ast.Do_while (body, c) ->
    walk_block ctx scopes out ~depth body;
    walk_expr ctx scopes out ~depth c
  | Ast.For (init, cond, step, body) ->
    let scopes = Hashtbl.create 4 :: scopes in
    (match init with
    | Some st -> walk_stmt ctx scopes out ~depth st
    | None -> ());
    (match cond with
    | Some c -> walk_expr ctx scopes out ~depth c
    | None -> ());
    (match step with
    | Some s -> walk_expr ctx scopes out ~depth s
    | None -> ());
    walk_block ctx scopes out ~depth body
  | Ast.Return (Some e) -> walk_expr ctx scopes out ~depth e
  | Ast.Return None | Ast.Break | Ast.Continue | Ast.Delay -> ()
  | Ast.Block body -> walk_block ctx scopes out ~depth body
  | Ast.Constrain (_, _, body) -> walk_block ctx scopes out ~depth body
  | Ast.Chan_send (ch, e) ->
    walk_expr ctx scopes out ~depth e;
    add_chan out ~depth ch Send st.Ast.sloc
  | Ast.Par branches ->
    (* a sibling sees everything the nested arms may do *)
    List.iter
      (fun b -> walk_block ctx (Hashtbl.create 4 :: scopes) out
                  ~depth:(depth + 1) b)
      branches

and walk_block ctx scopes (out : effects) ~depth body =
  let scopes = Hashtbl.create 4 :: scopes in
  List.iter (walk_stmt ctx scopes out ~depth) body

(* --- conflict detection ------------------------------------------------ *)

(* [addressable n]: the enclosing local or parameter [n] can be pointed
   to, being an array or having its address taken. *)
let may_alias ~addressable a b =
  match (a, b) with
  | Pointer, Scalar n | Scalar n, Pointer -> addressable n
  | Pointer, _ | _, Pointer -> true
  | x, y -> x = y

(* The locals and parameters of [f] a pointer can reach: the arrays, and
   every name whose address is taken anywhere in [f]. *)
let addressable_locals (f : Ast.func) =
  let names = Hashtbl.create 8 in
  let add name = Hashtbl.replace names name () in
  List.iter
    (function Ctypes.Array _, name -> add name | _ -> ())
    f.Ast.f_params;
  Ast.iter_func
    ~stmt:(fun st ->
      match st.Ast.s with
      | Ast.Decl (Ctypes.Array _, name, _) -> add name
      | _ -> ())
    ~expr:(fun e ->
      match e.Ast.e with
      | Ast.Addr_of a -> (
        match (strip_casts a).Ast.e with Ast.Var name -> add name | _ -> ())
      | _ -> ())
    f;
  Hashtbl.mem names

(* Race diagnostics between two sibling arms, one per (target, shape). *)
let pair_races dialect ~addressable (i, ei) (j, ej) =
  let may_alias = may_alias ~addressable in
  let seen = Hashtbl.create 8 in
  let diags = ref [] in
  let report shape target wloc oloc =
    let key = (shape, describe_target target) in
    if not (Hashtbl.mem seen key) then begin
      Hashtbl.replace seen key ();
      let kind =
        match shape with `Ww -> Race_ww target | `Rw -> Race_rw target
      in
      let msg =
        Printf.sprintf "%s race on %s between par arms %d and %d"
          (match shape with `Ww -> "write/write" | `Rw -> "read/write")
          (describe_target target) (i + 1) (j + 1)
      in
      diags :=
        { d_kind = kind;
          d_severity = severity dialect kind ~certain:true;
          d_loc = wloc; d_other = Some oloc; d_msg = msg }
        :: !diags
    end
  in
  List.iter
    (fun w ->
      if w.a_kind = Write then
        List.iter
          (fun a ->
            if may_alias w.a_target a.a_target then
              match a.a_kind with
              | Write -> report `Ww w.a_target w.a_loc a.a_loc
              | Read -> report `Rw w.a_target w.a_loc a.a_loc)
          ej.acc)
    ei.acc;
  (* reads in arm i against writes in arm j (write/write already seen) *)
  List.iter
    (fun w ->
      if w.a_kind = Write then
        List.iter
          (fun a ->
            if a.a_kind = Read && may_alias w.a_target a.a_target then
              report `Rw w.a_target w.a_loc a.a_loc)
          ei.acc)
    ej.acc;
  List.rev !diags

(* Channel lint over the arms of one par block.  [confined ch] says every
   use of the channel in the whole program sits inside this par statement:
   then a missing partner cannot exist anywhere and the deadlock is
   certain rather than merely possible. *)
let par_chan_lint dialect ~confined (arms : (int * effects) list) =
  let diags = ref [] in
  let emit kind ~certain loc msg =
    diags :=
      { d_kind = kind; d_severity = severity dialect kind ~certain;
        d_loc = loc; d_other = None; d_msg = msg }
      :: !diags
  in
  let channels =
    List.sort_uniq compare
      (List.concat_map
         (fun (_, e) -> List.map (fun u -> u.c_chan) e.chans)
         arms)
  in
  List.iter
    (fun ch ->
      let uses_of (_, e) = List.filter (fun u -> u.c_chan = ch) e.chans in
      let users = List.filter (fun arm -> uses_of arm <> []) arms in
      if List.length users > 2 then begin
        let loc =
          match uses_of (List.hd users) with
          | u :: _ -> u.c_loc
          | [] -> Ast.no_loc
        in
        emit (Chan_fan ch) ~certain:true loc
          (Printf.sprintf
             "channel '%s' is used by %d par arms; rendezvous pairing is \
              nondeterministic"
             ch (List.length users))
      end;
      List.iter
        (fun ((i, e) as arm) ->
          let mine = uses_of arm in
          let sends = List.filter (fun u -> u.c_end = Send) mine
          and recvs = List.filter (fun u -> u.c_end = Recv) mine in
          let partner endpoint =
            List.exists
              (fun ((j, _) as other) ->
                j <> i
                && List.exists (fun u -> u.c_end = endpoint) (uses_of other))
              users
          in
          let serial endpoint =
            List.exists
              (fun u -> u.c_chan = ch && u.c_end = endpoint)
              e.serial
          in
          if
            serial Send && serial Recv
            && not (List.exists (fun (j, _) -> j <> i) users)
          then
            emit (Chan_self ch) ~certain:(confined ch)
              (match sends with u :: _ -> u.c_loc | [] -> Ast.no_loc)
              (Printf.sprintf
                 "par arm %d both sends and receives on channel '%s' with \
                  no partner arm: the rendezvous can never complete"
                 (i + 1) ch)
          else begin
            if sends <> [] && not (partner Recv) then
              emit (Chan_unmatched_send ch) ~certain:(confined ch)
                (List.hd sends).c_loc
                (Printf.sprintf
                   "par arm %d sends on channel '%s' but no sibling arm \
                    receives from it"
                   (i + 1) ch);
            if recvs <> [] && not (partner Send) then
              emit (Chan_unmatched_recv ch) ~certain:(confined ch)
                (List.hd recvs).c_loc
                (Printf.sprintf
                   "par arm %d receives on channel '%s' but no sibling arm \
                    sends to it"
                   (i + 1) ch)
          end)
        arms)
    channels;
  List.rev !diags

(* --- the driver -------------------------------------------------------- *)

(* Count every endpoint use of each channel in the program, so a par block
   can tell whether it confines all uses of a channel. *)
let program_chan_uses ctx =
  let counts = Hashtbl.create 8 in
  let bump ch =
    Hashtbl.replace counts ch (1 + Option.value ~default:0
                                     (Hashtbl.find_opt counts ch))
  in
  List.iter
    (fun (f : Ast.func) ->
      Ast.iter_func
        ~stmt:(fun st ->
          match st.Ast.s with Ast.Chan_send (ch, _) -> bump ch | _ -> ())
        ~expr:(fun e ->
          match e.Ast.e with Ast.Chan_recv ch -> bump ch | _ -> ())
        f)
    ctx.program.Ast.funcs;
  counts

let check_par ctx dialect ~total_uses ~addressable scopes
    (branches : Ast.block list) =
  let arms =
    List.mapi
      (fun i b ->
        let out = new_effects () in
        walk_block ctx scopes out ~depth:0 b;
        (i, out))
      branches
  in
  let races =
    let rec pairs = function
      | [] -> []
      | a :: rest ->
        List.concat_map (fun b -> pair_races dialect ~addressable a b) rest
        @ pairs rest
    in
    pairs arms
  in
  let confined ch =
    let here =
      List.fold_left
        (fun n (_, e) ->
          n + List.length (List.filter (fun u -> u.c_chan = ch) e.chans))
        0 arms
    in
    match Hashtbl.find_opt total_uses ch with
    | Some total -> total = here
    | None -> true
  in
  races @ par_chan_lint dialect ~confined arms

(* Structural walk of a function body: find every [par] (including nested
   ones inside arms), carrying the lexical scope so arm effects can tell
   arm-private storage from the enclosing function's shared storage. *)
let check_func ctx dialect ~total_uses (f : Ast.func) =
  (* walked only when the function has a par *)
  let addressable = lazy (addressable_locals f) in
  let addressable n = Lazy.force addressable n in
  let diags = ref [] in
  let rec go_stmt (scopes : scopes) (st : Ast.stmt) =
    match st.Ast.s with
    | Ast.Decl (_, name, _) -> (
      match scopes with
      | t :: _ -> Hashtbl.replace t name Enclosing
      | [] -> ())
    | Ast.Par branches ->
      diags :=
        !diags @ check_par ctx dialect ~total_uses ~addressable scopes branches;
      List.iter
        (fun b -> go_block (Hashtbl.create 4 :: scopes) b)
        branches
    | Ast.If (_, t, e) ->
      go_block (Hashtbl.create 4 :: scopes) t;
      go_block (Hashtbl.create 4 :: scopes) e
    | Ast.While (_, body) | Ast.Do_while (body, _)
    | Ast.Constrain (_, _, body) | Ast.Block body ->
      go_block (Hashtbl.create 4 :: scopes) body
    | Ast.For (init, _, _, body) ->
      let scopes = Hashtbl.create 4 :: scopes in
      (match init with Some st -> go_stmt scopes st | None -> ());
      go_block scopes body
    | Ast.Expr _ | Ast.Return _ | Ast.Break | Ast.Continue
    | Ast.Chan_send _ | Ast.Delay -> ()
  and go_block scopes body = List.iter (go_stmt scopes) body in
  let params : scopes =
    let t = Hashtbl.create 8 in
    List.iter (fun (_, n) -> Hashtbl.replace t n Enclosing) f.Ast.f_params;
    [ t ]
  in
  go_block (Hashtbl.create 8 :: params) f.Ast.f_body;
  !diags

let check_program ~(dialect : Dialect.t) (program : Ast.program) : diag list =
  let ctx = { program; summaries = Hashtbl.create 16; call_stack = [] } in
  let total_uses = program_chan_uses ctx in
  List.concat_map (check_func ctx dialect ~total_uses) program.Ast.funcs

(* --- pass-manager integration ------------------------------------------ *)

let pass (dialect : Dialect.t) : Passes.program_pass =
  Passes.program_pass ~preserves_semantics:false "conc-check" (fun p ->
      let ds = check_program ~dialect p in
      List.iter (fun d -> prerr_endline (render d)) (warnings ds);
      match errors ds with [] -> p | es -> raise (Check_failed es))
