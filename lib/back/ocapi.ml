(* Ocapi backend [Schaumont et al., DAC 1998; IMEC].

   The paper: "In IMEC's Ocapi system, the user's C++ program runs to
   generate a data structure that represents hardware.  Supplied classes
   provide mechanisms for specifying datapaths, finite-state machines,
   etc.  The result is translated into a language such as Verilog and
   synthesized."  Each FSM state gets a cycle.

   Here the host language is OCaml: this module is a combinator library
   whose *evaluation* builds an FSMD data structure — run the program, get
   the hardware.  Expressions build datapath operators, [add_state]
   defines a state (one cycle each, exactly Ocapi's timing rule), and
   [build] produces the same Fsmd.t the scheduled backends target, so all
   the simulation/elaboration/area machinery applies. *)

type exp =
  | Const of int * int (* value, width *)
  | Reg of int (* CIR register id *)
  | Read of int * exp (* region, address *)
  | Bin of Netlist.binop * exp * exp
  | Un of Netlist.unop * exp
  | Mux of exp * exp * exp

type action = Set of int * exp | Write of int * exp * exp

type transition =
  | Goto of int
  | Branch of exp * int * int
  | Done of exp option

type state_spec = { actions : action list; transition : transition }

type builder = {
  name : string;
  mutable widths : int list; (* reversed *)
  mutable reg_count : int;
  mutable params : (string * int) list; (* reversed *)
  mutable globals : (string * int * Bitvec.t) list; (* reversed *)
  mutable regions : Cir.region list; (* reversed *)
  mutable states : state_spec list; (* reversed *)
  mutable ret_width : int;
}

let create ~name =
  { name; widths = []; reg_count = 0; params = []; globals = [];
    regions = []; states = []; ret_width = 0 }

let new_reg b ~width =
  b.widths <- width :: b.widths;
  b.reg_count <- b.reg_count + 1;
  b.reg_count - 1

(** A named input port (entry parameter). *)
let input b ~name ~width =
  let r = new_reg b ~width in
  b.params <- (name, r) :: b.params;
  r

(** An architectural register, observable as output [g_<name>]. *)
let register b ~name ~width ~init =
  let r = new_reg b ~width in
  b.globals <- (name, r, Bitvec.of_int ~width init) :: b.globals;
  r

(** A scratch register. *)
let wire b ~width = new_reg b ~width

(** An on-chip memory. *)
let memory b ~name ~width ~depth =
  b.regions <-
    { Cir.rg_name = name; rg_words = depth; rg_width = width; rg_init = None }
    :: b.regions;
  List.length b.regions - 1

let set_result_width b width = b.ret_width <- width

(* expression constructors *)
let const ~width v = Const (v, width)
let reg r = Reg r
let read region addr = Read (region, addr)
let ( +: ) a b = Bin (Netlist.B_add, a, b)
let ( -: ) a b = Bin (Netlist.B_sub, a, b)
let ( *: ) a b = Bin (Netlist.B_mul, a, b)
let ( ==: ) a b = Bin (Netlist.B_eq, a, b)

(** Define a state executing [actions] this cycle, then [transition].
    Action right-hand sides all read the state's *entry* values (parallel
    register-transfer semantics); the transition expression evaluates
    *after* the actions and therefore observes the updated values — test
    the incremented counter, not the old one. *)
let add_state b actions transition =
  b.states <- { actions; transition } :: b.states;
  List.length b.states - 1

exception Build_error of string

(* Lower an Ocapi expression to CIR instructions, returning the operand. *)
let rec lower_exp b widths instrs = function
  | Const (v, width) -> Cir.O_imm (Bitvec.of_int ~width v)
  | Reg r -> Cir.O_reg r
  | Read (region, addr) ->
    let addr_op = lower_exp b widths instrs addr in
    let regions = Array.of_list (List.rev b.regions) in
    if region < 0 || region >= Array.length regions then
      raise (Build_error "bad region id");
    let dst = new_reg b ~width:regions.(region).Cir.rg_width in
    widths := (dst, regions.(region).Cir.rg_width) :: !widths;
    instrs := Cir.I_load { dst; region; addr = addr_op } :: !instrs;
    Cir.O_reg dst
  | Bin (op, x, y) ->
    let a = lower_exp b widths instrs x in
    let bo = lower_exp b widths instrs y in
    let width =
      if Netlist.is_comparison op then 1
      else operand_width b !widths a
    in
    let dst = new_reg b ~width in
    widths := (dst, width) :: !widths;
    instrs := Cir.I_bin { op; dst; a; b = bo } :: !instrs;
    Cir.O_reg dst
  | Un (op, x) ->
    let a = lower_exp b widths instrs x in
    let width =
      match op with
      | Netlist.U_reduce_or -> 1
      | Netlist.U_not | Netlist.U_neg -> operand_width b !widths a
    in
    let dst = new_reg b ~width in
    widths := (dst, width) :: !widths;
    instrs := Cir.I_un { op; dst; a } :: !instrs;
    Cir.O_reg dst
  | Mux (sel, x, y) ->
    let sel_op = lower_exp b widths instrs sel in
    let a = lower_exp b widths instrs x in
    let bo = lower_exp b widths instrs y in
    let width = operand_width b !widths a in
    let dst = new_reg b ~width in
    widths := (dst, width) :: !widths;
    instrs :=
      Cir.I_mux { dst; sel = sel_op; if_true = a; if_false = bo } :: !instrs;
    Cir.O_reg dst

and operand_width b extra = function
  | Cir.O_imm bv -> Bitvec.width bv
  | Cir.O_reg r -> (
    match List.assoc_opt r extra with
    | Some w -> w
    | None -> (
      (* widths list is reversed; index from the end *)
      let all = Array.of_list (List.rev b.widths) in
      if r < Array.length all then all.(r)
      else raise (Build_error "unknown register width")))

(** Evaluate the builder into an FSMD (one state = one cycle). *)
let build (b : builder) : Fsmd.t =
  let states = Array.of_list (List.rev b.states) in
  if Array.length states = 0 then raise (Build_error "no states defined");
  (* One CIR block per state so the FSMD constructor can reuse the
     one-block-one-state policy. *)
  let blocks = ref [] in
  Array.iteri
    (fun i spec ->
      let widths = ref [] and instrs = ref [] in
      (* Register-transfer semantics: all right-hand sides evaluate on the
         state's entry values (in parallel, like Verilog non-blocking
         assignments), then commit — so stage every expression first. *)
      let staged =
        List.map
          (fun action ->
            match action with
            | Set (r, e) -> `Set (r, lower_exp b widths instrs e)
            | Write (region, addr, value) ->
              let a = lower_exp b widths instrs addr in
              let v = lower_exp b widths instrs value in
              `Write (region, a, v))
          spec.actions
      in
      List.iter
        (fun staged_action ->
          match staged_action with
          | `Set (r, v) -> instrs := Cir.I_mov { dst = r; src = v } :: !instrs
          | `Write (region, a, v) ->
            instrs := Cir.I_store { region; addr = a; value = v } :: !instrs)
        staged;
      let term =
        match spec.transition with
        | Goto s -> Cir.T_jump s
        | Branch (e, t, f) ->
          let cond = lower_exp b widths instrs e in
          Cir.T_branch { cond; if_true = t; if_false = f }
        | Done e ->
          let v = Option.map (lower_exp b widths instrs) e in
          Cir.T_return v
      in
      blocks :=
        { Cir.b_id = i; instrs = List.rev !instrs; term } :: !blocks)
    states;
  let func =
    { Cir.fn_name = b.name;
      fn_params = List.rev b.params;
      fn_ret_width = b.ret_width;
      fn_blocks = Array.of_list (List.rev !blocks);
      fn_entry = 0;
      fn_reg_widths = Array.of_list (List.rev b.widths);
      fn_reg_count = b.reg_count;
      fn_regions = Array.of_list (List.rev b.regions);
      fn_globals = List.rev b.globals }
  in
  Fsmd.of_func func ~schedule_block:(Fsmd.transmogrifier_schedule func)

(** Wrap the generated structure as a Design.  The pass trace stays
    empty: a structural EDSL runs no compilation pipeline. *)
let to_design (b : builder) : Design.t =
  let fsmd = build b in
  Design.make ~name:b.name ~backend:"ocapi"
    ~clock_period:(Fsmd_common.clock_period fsmd)
    ~stats:[ ("states", string_of_int (Fsmd.num_states fsmd)) ]
    (Design.Fsmd fsmd)

let descriptor =
  Backend.make ~name:"ocapi"
    ~capabilities:{ Backend.default_capabilities with
                    Backend.c_frontend = false }
    ~dialect:Dialect.ocapi
    (fun ~config:_ _program ~entry:_ -> raise (Backend.No_c_frontend "ocapi"))
