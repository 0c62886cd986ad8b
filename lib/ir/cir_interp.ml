(* CIR interpreter: executes a lowered function directly.

   Used as the mid-level oracle — tests check AST interpreter ==
   CIR interpreter == every backend's hardware simulation — and by the
   ILP-limit study, which consumes the dynamic instruction trace this
   interpreter can record.

   Its machine is the one Bitvec datapath every CIR simulator shares:
   Rtlsim and the SystemC kernel clock it one FSMD state at a time, Asim
   times its tokens around it, and [run] walks the CFG over it. *)

exception Runtime_error of string
exception Timeout

let error fmt = Printf.ksprintf (fun m -> raise (Runtime_error m)) fmt

type machine = {
  func : Cir.func;
  regs : Bitvec.t array;
  memories : Bitvec.t array array;
}

let arguments (func : Cir.func) args =
  let expected = List.length func.Cir.fn_params in
  if List.length args <> expected then
    error "%s expects %d args" func.Cir.fn_name expected;
  List.map2
    (fun (_, r) v ->
      (r, Bitvec.resize ~signed:true ~width:(Cir.reg_width func r) v))
    func.Cir.fn_params args

let start (func : Cir.func) ~args =
  let regs =
    Array.init func.Cir.fn_reg_count (fun r ->
        Bitvec.zero (max 1 func.Cir.fn_reg_widths.(r)))
  in
  let memories =
    Array.map
      (fun (rg : Cir.region) ->
        match rg.rg_init with
        | Some init -> Array.copy init
        | None -> Array.make rg.rg_words (Bitvec.zero rg.rg_width))
      func.Cir.fn_regions
  in
  List.iter (fun (_, r, init) -> regs.(r) <- init) func.Cir.fn_globals;
  List.iter (fun (r, v) -> regs.(r) <- v) (arguments func args);
  { func; regs; memories }

let value m = function
  | Cir.O_imm bv -> bv
  | Cir.O_reg r -> m.regs.(r)

(* Total memory semantics: a store past the end of its region is
   ignored, and a load there reads zero.  If-conversion makes memory
   accesses speculative, so they must be safe on the not-taken path. *)
let commit m ~region ~addr v =
  let mem = m.memories.(region) in
  if addr < Array.length mem then mem.(addr) <- v

let step m instr =
  let regs = m.regs in
  match instr with
  | Cir.I_bin { op; dst; a; b } ->
    regs.(dst) <- Netlist.apply_binop op (value m a) (value m b)
  | Cir.I_un { op; dst; a } -> regs.(dst) <- Netlist.apply_unop op (value m a)
  | Cir.I_mov { dst; src } -> regs.(dst) <- value m src
  | Cir.I_cast { dst; signed; src } ->
    regs.(dst) <-
      Bitvec.resize ~signed ~width:(Cir.reg_width m.func dst) (value m src)
  | Cir.I_mux { dst; sel; if_true; if_false } ->
    regs.(dst) <-
      (if Bitvec.to_bool (value m sel) then value m if_true
       else value m if_false)
  | Cir.I_load { dst; region; addr } ->
    let mem = m.memories.(region) in
    let a = Bitvec.to_int_unsigned (value m addr) in
    regs.(dst) <-
      (if a < Array.length mem then mem.(a)
       else Bitvec.zero (Cir.reg_width m.func dst))
  | Cir.I_store { region; addr; value = v } ->
    commit m ~region ~addr:(Bitvec.to_int_unsigned (value m addr)) (value m v)

let globals m =
  List.map (fun (name, r, _) -> (name, m.regs.(r))) m.func.Cir.fn_globals

let memories m =
  Array.to_list
    (Array.mapi
       (fun i (rg : Cir.region) -> (rg.rg_name, m.memories.(i)))
       m.func.Cir.fn_regions)

type outcome = {
  return_value : Bitvec.t option;
  dynamic_instrs : int;
  globals : (string * Bitvec.t) list;
  memories : (string * Bitvec.t array) list;
  trace : (int * Cir.instr) list; (* in execution order when recorded *)
}

(** Execute [func] with argument values bound to its parameter registers.
    [max_steps] bounds dynamic instructions. *)
let run ?(max_steps = 10_000_000) ?(record_trace = false) (func : Cir.func)
    ~args : outcome =
  let m = start func ~args in
  let executed = ref 0 in
  let trace = ref [] in
  let rec run_block id =
    let blk = Cir.block func id in
    List.iter
      (fun instr ->
        if !executed > max_steps then raise Timeout;
        if record_trace then trace := (id, instr) :: !trace;
        incr executed;
        step m instr)
      blk.Cir.instrs;
    incr executed;
    match blk.Cir.term with
    | Cir.T_jump next -> run_block next
    | Cir.T_branch { cond; if_true; if_false } ->
      if Bitvec.to_bool (value m cond) then run_block if_true
      else run_block if_false
    | Cir.T_return v -> Option.map (value m) v
  in
  let return_value = run_block func.Cir.fn_entry in
  { return_value;
    dynamic_instrs = !executed;
    globals = globals m;
    memories = memories m;
    trace = List.rev !trace }
