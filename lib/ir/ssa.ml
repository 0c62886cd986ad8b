(* SSA construction over CIR (Cytron-style: phi insertion at dominance
   frontiers, renaming down the dominator tree).

   The result keeps the CIR block structure but rewrites instructions over
   fresh single-assignment registers and attaches phi nodes per block.
   The CASH backend builds its dataflow circuit from this form (SSA defs
   become dataflow nodes, phis at loop headers become merge/mu nodes).
   There is no evaluator here: Asim executes the SSA form, phis included,
   on Cir_interp's machine, and tests run it to check semantics are
   preserved. *)

type phi = {
  p_dst : Cir.reg;
  p_width : int;
  p_srcs : (int * Cir.operand) list; (* predecessor block -> value *)
}

type t = {
  func : Cir.func; (* renamed body (registers are SSA names) *)
  phis : phi list array; (* phi nodes at each block, in parallel *)
  cfg : Cfg.t; (* CFG of the *original* function: same shape *)
  ssa_of_param : (string * Cir.reg) list;
}

let operand_map f = function
  | Cir.O_reg r -> Cir.O_reg (f r)
  | Cir.O_imm bv -> Cir.O_imm bv

let rewrite_instr ~use ~def instr =
  match instr with
  | Cir.I_bin { op; dst; a; b } ->
    let a = operand_map use a and b = operand_map use b in
    Cir.I_bin { op; dst = def dst; a; b }
  | Cir.I_un { op; dst; a } ->
    let a = operand_map use a in
    Cir.I_un { op; dst = def dst; a }
  | Cir.I_mov { dst; src } ->
    let src = operand_map use src in
    Cir.I_mov { dst = def dst; src }
  | Cir.I_cast { dst; signed; src } ->
    let src = operand_map use src in
    Cir.I_cast { dst = def dst; signed; src }
  | Cir.I_mux { dst; sel; if_true; if_false } ->
    let sel = operand_map use sel
    and if_true = operand_map use if_true
    and if_false = operand_map use if_false in
    Cir.I_mux { dst = def dst; sel; if_true; if_false }
  | Cir.I_load { dst; region; addr } ->
    let addr = operand_map use addr in
    Cir.I_load { dst = def dst; region; addr }
  | Cir.I_store { region; addr; value } ->
    Cir.I_store
      { region; addr = operand_map use addr; value = operand_map use value }

let rewrite_term ~use = function
  | Cir.T_jump l -> Cir.T_jump l
  | Cir.T_branch { cond; if_true; if_false } ->
    Cir.T_branch { cond = operand_map use cond; if_true; if_false }
  | Cir.T_return v -> Cir.T_return (Option.map (operand_map use) v)

(** Convert [func] to SSA. *)
let of_func (func : Cir.func) : t =
  let cfg = Cfg.build func in
  let n = Cir.num_blocks func in
  let df = Cfg.dominance_frontiers cfg in
  (* def sites per original register *)
  let def_sites = Hashtbl.create 64 in
  let add_def r b =
    let existing =
      match Hashtbl.find_opt def_sites r with Some l -> l | None -> []
    in
    if not (List.mem b existing) then Hashtbl.replace def_sites r (b :: existing)
  in
  for b = 0 to n - 1 do
    if Cfg.reachable cfg b then
      List.iter
        (fun instr ->
          match Cir.def_of instr with
          | Some r -> add_def r b
          | None -> ())
        (Cir.block func b).Cir.instrs
  done;
  (* Parameters and globals are defined at entry. *)
  List.iter (fun (_, r) -> add_def r func.Cir.fn_entry) func.Cir.fn_params;
  List.iter (fun (_, r, _) -> add_def r func.Cir.fn_entry) func.Cir.fn_globals;
  (* Liveness over the original registers, for pruned SSA: a phi is only
     placed where the variable is live-in, so single-definition
     temporaries do not grow dead phis at every join they flow past. *)
  let upward_exposed = Array.make n [] and killed = Array.make n [] in
  for b = 0 to n - 1 do
    let defined = Hashtbl.create 8 in
    let ue = ref [] in
    let use r =
      if not (Hashtbl.mem defined r) && not (List.mem r !ue) then
        ue := r :: !ue
    in
    List.iter
      (fun instr ->
        List.iter use (Cir.uses_of instr);
        match Cir.def_of instr with
        | Some r -> Hashtbl.replace defined r ()
        | None -> ())
      (Cir.block func b).Cir.instrs;
    List.iter use (Cir.uses_of_terminator (Cir.block func b).Cir.term);
    upward_exposed.(b) <- !ue;
    killed.(b) <- Hashtbl.fold (fun r () acc -> r :: acc) defined []
  done;
  let module Iset = Set.Make (Int) in
  let live_in = Array.make n Iset.empty in
  let live_changed = ref true in
  while !live_changed do
    live_changed := false;
    for b = n - 1 downto 0 do
      let live_out =
        List.fold_left
          (fun acc s -> Iset.union acc live_in.(s))
          Iset.empty
          (Cir.successors (Cir.block func b))
      in
      let li =
        Iset.union
          (Iset.of_list upward_exposed.(b))
          (Iset.diff live_out (Iset.of_list killed.(b)))
      in
      if not (Iset.equal li live_in.(b)) then begin
        live_in.(b) <- li;
        live_changed := true
      end
    done
  done;
  (* phi placement: iterated dominance frontier per variable, pruned by
     liveness *)
  let needs_phi = Hashtbl.create 64 in (* (block, reg) -> unit *)
  Hashtbl.iter
    (fun r sites ->
      let worklist = Queue.create () in
      List.iter (fun s -> Queue.add s worklist) sites;
      let placed = Hashtbl.create 8 in
      while not (Queue.is_empty worklist) do
        let b = Queue.take worklist in
        List.iter
          (fun frontier ->
            if not (Hashtbl.mem placed frontier) then begin
              Hashtbl.replace placed frontier ();
              if Iset.mem r live_in.(frontier) then
                Hashtbl.replace needs_phi (frontier, r) ();
              Queue.add frontier worklist
            end)
          df.(b)
      done)
    def_sites;
  (* renaming *)
  let reg_widths = ref (Array.copy func.Cir.fn_reg_widths) in
  let reg_count = ref func.Cir.fn_reg_count in
  let fresh width =
    if !reg_count = Array.length !reg_widths then begin
      let bigger = Array.make (2 * !reg_count) 0 in
      Array.blit !reg_widths 0 bigger 0 !reg_count;
      reg_widths := bigger
    end;
    !reg_widths.(!reg_count) <- width;
    incr reg_count;
    !reg_count - 1
  in
  let stacks = Hashtbl.create 64 in (* orig reg -> current ssa name stack *)
  let top r =
    match Hashtbl.find_opt stacks r with
    | Some (name :: _) -> name
    | Some [] | None -> r (* use before def: keep original (reads as 0) *)
  in
  let push r name =
    let s = match Hashtbl.find_opt stacks r with Some s -> s | None -> [] in
    Hashtbl.replace stacks r (name :: s)
  in
  let pop r =
    match Hashtbl.find_opt stacks r with
    | Some (_ :: s) -> Hashtbl.replace stacks r s
    | Some [] | None -> ()
  in
  let new_blocks =
    Array.map
      (fun blk -> { Cir.b_id = blk.Cir.b_id; instrs = []; term = blk.Cir.term })
      func.Cir.fn_blocks
  in
  let phis : (Cir.reg * int * Cir.reg * (int * Cir.operand) list ref) list array
    =
    Array.make n []
  in
  (* materialize phi slots: (orig reg, width, ssa dst placeholder later).
     An entry phi's value on the call edge (-1) is the original register:
     the parameter, the global's initial value, or zero. *)
  for b = 0 to n - 1 do
    let here =
      Hashtbl.fold
        (fun (blk, r) () acc -> if blk = b then r :: acc else acc)
        needs_phi []
    in
    phis.(b) <-
      List.map
        (fun r ->
          let call = if b = func.Cir.fn_entry then [ (-1, Cir.O_reg r) ] else [] in
          (r, func.Cir.fn_reg_widths.(r), -1, ref call))
        (List.sort_uniq compare here)
  done;
  (* children in dominator tree *)
  let children = Array.make n [] in
  Array.iter
    (fun b ->
      if b <> func.Cir.fn_entry && Cfg.reachable cfg b then
        children.(cfg.Cfg.idom.(b)) <- b :: children.(cfg.Cfg.idom.(b)))
    cfg.Cfg.rpo;
  let rec rename b =
    let pushed = ref [] in
    (* phi defs first *)
    phis.(b) <-
      List.map
        (fun (orig, width, _, srcs) ->
          let name = fresh width in
          push orig name;
          pushed := orig :: !pushed;
          (orig, width, name, srcs))
        phis.(b);
    let new_instrs =
      List.map
        (fun instr ->
          let rewritten =
            rewrite_instr ~use:top
              ~def:(fun orig ->
                let name = fresh func.Cir.fn_reg_widths.(orig) in
                push orig name;
                pushed := orig :: !pushed;
                name)
              instr
          in
          rewritten)
        (Cir.block func b).Cir.instrs
    in
    new_blocks.(b).Cir.instrs <- new_instrs;
    new_blocks.(b).Cir.term <- rewrite_term ~use:top (Cir.block func b).Cir.term;
    (* fill phi arguments of successors *)
    List.iter
      (fun s ->
        phis.(s) <-
          List.map
            (fun (orig, width, name, srcs) ->
              srcs := (b, Cir.O_reg (top orig)) :: !srcs;
              (orig, width, name, srcs))
            phis.(s))
      (Cir.successors (Cir.block func b));
    List.iter rename children.(b);
    List.iter pop !pushed
  in
  (* Parameters/globals keep their original registers as their first SSA
     definition (they are defined "before" the entry block). *)
  rename func.Cir.fn_entry;
  let final_phis =
    Array.map
      (fun l ->
        List.filter_map
          (fun (_, width, name, srcs) ->
            if name = -1 then None
            else Some { p_dst = name; p_width = width; p_srcs = List.rev !srcs })
          l)
      phis
  in
  let func' =
    { func with
      Cir.fn_blocks = new_blocks;
      fn_reg_widths = Array.sub !reg_widths 0 !reg_count;
      fn_reg_count = !reg_count }
  in
  { func = func';
    phis = final_phis;
    cfg;
    ssa_of_param = func.Cir.fn_params }

(** Verify the single-assignment property; returns offending registers. *)
let verify t =
  let defined = Hashtbl.create 64 in
  let violations = ref [] in
  let define r =
    if Hashtbl.mem defined r then violations := r :: !violations
    else Hashtbl.replace defined r ()
  in
  Array.iteri
    (fun b blk ->
      List.iter (fun phi -> define phi.p_dst) t.phis.(b);
      List.iter
        (fun instr ->
          match Cir.def_of instr with Some r -> define r | None -> ())
        blk.Cir.instrs)
    t.func.Cir.fn_blocks;
  List.rev !violations
