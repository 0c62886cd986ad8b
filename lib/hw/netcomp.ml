(* Compiled netlist simulation.

   Neteval walks the node graph on every settle (and on every tick),
   re-dispatching on constructors and boxing every intermediate value.
   Here the netlist builds its own simulator instead: one compile pass
   packs every combinational node into two ints of a flat code array
   (opcode, widths, operand ids; the node id is the destination), in id
   order, which is topological for combinational deps.  A settle is then
   one straight pass over that array, reading and writing a single
   unboxed [int] value array (values are stored masked, as unsigned bit
   patterns); a tick latches register next-values into a double buffer,
   commits memory write ports and swaps — no graph traversal anywhere on
   the cycle path.  The engine stays small (about three words per node)
   because a design keeps its engines for as long as it lives.

   Fidelity: arithmetic is Intalu's, bit-identical to Bitvec at widths
   <= 62.  The engine holds only a [compilable] netlist, and [create]
   refuses any other: a design with wider signals runs on the
   event-driven interpreter, which Design picks for it.

   Observation: probes reproduce Neteval's committed-change stream — an
   id-order walk comparing each signal against a shadow array (seeded
   with 1-bit zeros, exactly like Neteval's value array) fires the probe
   for every value that changed during the settle.  The walk, and the
   shadow array itself, exist only once a probe is attached, so
   unobserved cycles pay nothing. *)

(* operand field of the packed encoding (see [compile] below) *)
let operand_bits = 21
let operand_mask = (1 lsl operand_bits) - 1

let[@inline] to_bits bv = Int64.to_int (Bitvec.to_int64_unsigned bv)

let compilable nl =
  let ok = ref true in
  let check_w w = if w < 1 || w > Intalu.width_limit then ok := false in
  let n = Netlist.length nl in
  (* node ids must fit a packed operand field *)
  if n > operand_mask + 1 then ok := false;
  for s = 0 to n - 1 do
    check_w (Netlist.width nl s);
    (* one id-order pass settles only if every dep comes first; the
       settle loop reads deps unchecked *)
    let before d = if d < 0 || d >= s then ok := false in
    match Netlist.node nl s with
    | Netlist.Binop (op, a, b) ->
      before a;
      before b;
      (* Bitvec raises Width_mismatch on width-mixed operands (and eq/ne
         silently compare unequal); shifts accept any amount width. *)
      (match op with
      | Netlist.B_shl | Netlist.B_lshr | Netlist.B_ashr -> ()
      | _ -> if Netlist.width nl a <> Netlist.width nl b then ok := false)
    | Netlist.Unop (_, a)
    | Netlist.Extract { arg = a; _ }
    | Netlist.Zext { arg = a; _ }
    | Netlist.Sext { arg = a; _ }
    | Netlist.Mem_read { addr = a; _ } -> before a
    | Netlist.Concat { hi; lo } ->
      before hi;
      before lo
    | Netlist.Mux { sel; if_true; if_false } ->
      before sel;
      before if_true;
      before if_false
    | Netlist.Const _ | Netlist.Input _ | Netlist.Reg _ -> ()
  done;
  Array.iter
    (fun (m : Netlist.mem) ->
      check_w m.word_width;
      (match m.write_port with
      | Some (_, _, data) ->
        if Netlist.width nl data <> m.word_width then ok := false
      | None -> ());
      match m.init with
      | Some cells ->
        Array.iter
          (fun c -> if Bitvec.width c <> m.word_width then ok := false)
          cells
      | None -> ())
    (Netlist.mems nl);
  !ok

type reg = { rs : int; next : int; enable : int (* -1 = always enabled *) }

type wport = { wmem : int; we : int; waddr : int; wdata : int; wdepth : int }

type t = {
  netlist : Netlist.t;
  values : int array; (* masked unsigned bit patterns, one per signal *)
  code : int array; (* two packed ints per evaluated node, in id order *)
  evaluated : int; (* nodes a settle evaluates *)
  input_nodes : (int * string) array;
  regs : reg array;
  reg_buf : int array; (* double buffer: next values latched here *)
  reg_init : (int * int) array; (* signal id, initial bits — for [reset] *)
  mem_state : int array array;
  mem_init : int array array;
  wports : wport array;
  mutable ccycle : int;
  cstats : Neteval.stats;
  mutable probe : Neteval.probe option;
  mutable prev : Bitvec.t array;
      (* shadow values for the observed-change walk; empty until a probe
         is attached *)
}

(* The packed encoding.  Each evaluated node [s] is two ints, in id
   order:
     word 0: opcode (5 bits) | width A (7) | width D (7) | s (the destination)
     word 1: operand a (21 bits) | operand b (21) | operand c (21)
   Width D is the node's own width; width A is the one other width the
   operator needs (the operand width of a binop, the low half of a concat,
   the argument of a sign extension).  Operands are signal ids, except
   that an extract's b is its low bit and a memory read's a is the memory
   index.  Id order is topological for combinational deps ([compilable]
   checks it), so a settle is one pass over the array.  A binop's opcode
   is its [Intalu.binop_index]; the other opcodes follow. *)
let op_not = 19
let op_neg = 20
let op_reduce_or = 21
let op_mux = 22
let op_concat = 23
let op_extract = 24
let op_zext = 25
let op_sext = 26
let op_mem_read = 27

let create nl =
  if not (compilable nl) then
    invalid_arg
      (Printf.sprintf "Netcomp: netlist %S is not compilable"
         (Netlist.name nl));
  let n = Netlist.length nl in
  let width = Netlist.width nl in
  let values = Array.make (max n 1) 0 in
  let mems = Netlist.mems nl in
  let mem_init =
    Array.map
      (fun (m : Netlist.mem) ->
        match m.Netlist.init with
        | Some cells -> Array.map to_bits cells
        | None -> Array.make m.Netlist.depth 0)
      mems
  in
  let mem_state = Array.map Array.copy mem_init in
  let input_nodes = ref [] in
  let regs = ref [] in
  let reg_init = ref [] in
  let evaluated = ref 0 in
  for s = 0 to n - 1 do
    match Netlist.node nl s with
    | Netlist.Const _ | Netlist.Input _ | Netlist.Reg _ -> ()
    | _ -> incr evaluated
  done;
  let code = Array.make (2 * !evaluated) 0 in
  let evaluated = ref 0 in
  for s = 0 to n - 1 do
    let wd = width s in
    let emit op ~wa a b c =
      let k = 2 * !evaluated in
      code.(k) <- op lor (wa lsl 5) lor (wd lsl 12) lor (s lsl 19);
      code.(k + 1) <-
        a lor (b lsl operand_bits) lor (c lsl (2 * operand_bits));
      incr evaluated
    in
    match Netlist.node nl s with
    | Netlist.Const bv -> values.(s) <- to_bits bv
    | Netlist.Input name -> input_nodes := (s, name) :: !input_nodes
    | Netlist.Reg { init; next; enable } ->
      values.(s) <- to_bits init;
      reg_init := (s, values.(s)) :: !reg_init;
      if next >= 0 then begin
        let enable = match enable with Some e -> e | None -> -1 in
        regs := { rs = s; next; enable } :: !regs
      end
    | Netlist.Unop (op, a) ->
      let op =
        match op with
        | Netlist.U_not -> op_not
        | Netlist.U_neg -> op_neg
        | Netlist.U_reduce_or -> op_reduce_or
      in
      emit op ~wa:0 a 0 0
    | Netlist.Binop (op, a, b) ->
      (* arithmetic results carry the operand width, comparisons are
         1-bit; [compilable] guarantees width b = width a except for
         shifts, whose amount may have any width *)
      emit (Intalu.binop_index op) ~wa:(width a) a b 0
    | Netlist.Mux { sel; if_true; if_false } ->
      emit op_mux ~wa:0 sel if_true if_false
    | Netlist.Concat { hi; lo } -> emit op_concat ~wa:(width lo) hi lo 0
    | Netlist.Extract { lo; arg; _ } -> emit op_extract ~wa:0 arg lo 0
    | Netlist.Zext { arg; _ } -> emit op_zext ~wa:0 arg 0 0
    | Netlist.Sext { arg; _ } -> emit op_sext ~wa:(width arg) arg 0 0
    | Netlist.Mem_read { mem; addr } -> emit op_mem_read ~wa:0 mem addr 0
  done;
  let wports =
    let acc = ref [] in
    Array.iteri
      (fun i (mm : Netlist.mem) ->
        match mm.Netlist.write_port with
        | Some (we, waddr, wdata) ->
          acc :=
            { wmem = i; we; waddr; wdata; wdepth = mm.Netlist.depth } :: !acc
        | None -> ())
      mems;
    Array.of_list (List.rev !acc)
  in
  let regs = Array.of_list (List.rev !regs) in
  { netlist = nl;
    values;
    code;
    evaluated = !evaluated;
    input_nodes = Array.of_list (List.rev !input_nodes);
    regs;
    reg_buf = Array.make (max (Array.length regs) 1) 0;
    reg_init = Array.of_list !reg_init;
    mem_state;
    mem_init;
    wports;
    ccycle = 0;
    cstats =
      { Neteval.cycles = 0; settles = 0; nodes_evaluated = 0; events = 0;
        wall_time = 0. };
    probe = None;
    prev = [||] }

(* Back to power-on state, keeping the compiled code: registers and
   memories reload their initial images, the cycle counter and the
   probe's shadow array rewind.  This is what makes the engine reusable —
   compile once, run many. *)
let reset c =
  Array.iter (fun (s, b) -> c.values.(s) <- b) c.reg_init;
  Array.iteri
    (fun i init -> Array.blit init 0 c.mem_state.(i) 0 (Array.length init))
    c.mem_init;
  c.ccycle <- 0;
  c.cstats.Neteval.cycles <- 0;
  Array.fill c.prev 0 (Array.length c.prev) (Bitvec.zero 1)

let set_probe c p =
  if Array.length c.prev = 0 then
    c.prev <- Array.make (Netlist.length c.netlist) (Bitvec.zero 1);
  c.probe <- Some p

let value c s =
  Bitvec.make ~width:(Netlist.width c.netlist s) (Int64.of_int c.values.(s))

(* The observed-change walk: id order over all signals, exactly the
   committed-change stream Neteval's settle produces (its value array is
   likewise seeded with 1-bit zeros, so the first settle reports every
   signal whose settled value differs from a 1-bit zero). *)
let notify_changes c (p : Neteval.probe) =
  for s = 0 to Array.length c.prev - 1 do
    let v = value c s in
    if not (Bitvec.equal v c.prev.(s)) then begin
      c.prev.(s) <- v;
      c.cstats.Neteval.events <- c.cstats.Neteval.events + 1;
      p.Neteval.on_value ~cycle:c.ccycle s v
    end
  done

let set_inputs c inputs =
  Array.iter
    (fun (s, name) ->
      let w = Netlist.width c.netlist s in
      let bv =
        match List.assoc_opt name inputs with
        | Some bv -> Bitvec.resize ~signed:false ~width:w bv
        | None -> Bitvec.zero w
      in
      c.values.(s) <- to_bits bv)
    c.input_nodes

(* One pass over the packed code.  [create] took the netlist only once
   [compilable] had range-checked every operand id (each dep is a node
   id below its user's), so the loop reads values unchecked. *)
let run_code v mem_state code evaluated =
  let get i = Array.unsafe_get v i in
  for k = 0 to evaluated - 1 do
    let w0 = Array.unsafe_get code (2 * k)
    and w1 = Array.unsafe_get code ((2 * k) + 1) in
    let a = w1 land operand_mask in
    let b = (w1 lsr operand_bits) land operand_mask in
    let wa = (w0 lsr 5) land 127 and wd = (w0 lsr 12) land 127 in
    Array.unsafe_set v (w0 lsr 19)
      (match w0 land 31 with
      | 19 (* not *) -> get a lxor Intalu.masks.(wd)
      | 20 (* neg *) -> -get a land Intalu.masks.(wd)
      | 21 (* reduce_or *) -> if get a = 0 then 0 else 1
      | 22 (* mux *) ->
        if get a <> 0 then get b
        else get ((w1 lsr (2 * operand_bits)) land operand_mask)
      | 23 (* concat *) -> (get a lsl wa) lor get b
      | 24 (* extract *) -> (get a lsr b) land Intalu.masks.(wd)
      | 25 (* zext *) -> get a
      | 26 (* sext *) -> Intalu.sx (get a) wa land Intalu.masks.(wd)
      | 27 (* mem_read *) ->
        let contents = mem_state.(a) and addr = get b in
        if addr < Array.length contents then contents.(addr) else 0
      | op (* a binop *) -> Intalu.binop op wa (get a) (get b))
  done

let settle_resolved c =
  c.cstats.Neteval.settles <- c.cstats.Neteval.settles + 1;
  c.cstats.Neteval.nodes_evaluated <-
    c.cstats.Neteval.nodes_evaluated + c.evaluated;
  run_code c.values c.mem_state c.code c.evaluated;
  match c.probe with None -> () | Some p -> notify_changes c p

let settle c ~inputs =
  set_inputs c inputs;
  settle_resolved c

let tick c =
  let v = c.values in
  (* phase 1: latch next values (read-before-write across registers) *)
  let nregs = Array.length c.regs in
  for i = 0 to nregs - 1 do
    let r = c.regs.(i) in
    c.reg_buf.(i) <-
      (if r.enable >= 0 && v.(r.enable) = 0 then v.(r.rs) else v.(r.next))
  done;
  (* memory write ports read pre-commit values too *)
  for i = 0 to Array.length c.wports - 1 do
    let p = c.wports.(i) in
    if v.(p.we) <> 0 then begin
      let a = v.(p.waddr) in
      if a < p.wdepth then c.mem_state.(p.wmem).(a) <- v.(p.wdata)
    end
  done;
  (* phase 2: commit *)
  for i = 0 to nregs - 1 do
    v.(c.regs.(i).rs) <- c.reg_buf.(i)
  done;
  c.ccycle <- c.ccycle + 1;
  c.cstats.Neteval.cycles <- c.ccycle

let output_signal c name =
  match List.assoc_opt name (Netlist.outputs c.netlist) with
  | Some s -> s
  | None ->
    invalid_arg
      (Printf.sprintf
         "Netcomp.drive: netlist %S has no output %S (outputs: %s)"
         (Netlist.name c.netlist) name
         (match Netlist.outputs c.netlist with
         | [] -> "<none>"
         | outs -> String.concat ", " (List.map fst outs)))

let stats c = c.cstats

let drive c ~inputs ~done_name ~max_cycles =
  let done_sig = output_signal c done_name in
  set_inputs c inputs;
  let t0 = Sys.time () in
  let rec go () =
    settle_resolved c;
    if c.values.(done_sig) <> 0 then
      Ok
        ( List.map (fun (n, s) -> (n, value c s)) (Netlist.outputs c.netlist),
          c.ccycle )
    else if c.ccycle >= max_cycles then Error `Timeout
    else begin
      tick c;
      go ()
    end
  in
  let r = go () in
  c.cstats.Neteval.wall_time <-
    c.cstats.Neteval.wall_time +. (Sys.time () -. t0);
  r
