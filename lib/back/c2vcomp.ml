(* Compiled C2Verilog simulation.

   C2v_machine interprets the stack code over boxed 64-bit Bitvec words
   and allocates the whole unified memory on every run.  Here the code is
   decoded once into flat int arrays (opcode, two operands, cycle cost per
   instruction) and run over unboxed int words, and the engine keeps its
   memory between runs:

   - memory is two segments that grow to the words a run touches: [low]
     for globals and the stack ([0, heap_base)), [heap] for the malloc
     heap ([heap_base, memory_words)).  A word never written reads as
     zero, as in the oracle's fresh memory;
   - each run records what it dirtied (a range of globals, the stack up
     to its high-water mark, the heap up to its high-water mark), and the
     next run rewrites only those words back to the initial image.

   Fidelity: every word the oracle holds is a 64-bit pattern; here it is
   the OCaml int whose sign extension is that pattern.  That is exact
   when every operator width is at most 62 bits (results are masked
   below bit 62), every constant and initial word fits, and every
   argument fits.  [create] takes only a design [compilable] accepts,
   and [execute] only argument words [words] converted, so nothing else
   reaches this engine; Design runs anything else on C2v_machine.
   Faults raise C2v_machine's exceptions with C2v_machine's messages, in
   the same order. *)

(* addresses and return pcs are 32-bit values on the machine *)
let mask32 = 0xFFFF_FFFF

(* the int word for a 64-bit pattern, when one represents it exactly *)
let word_of_pattern p =
  let v = Int64.to_int p in
  if Int64.equal (Int64.of_int v) p then Some v else None

let arg_fits v =
  Option.is_some (word_of_pattern (Bitvec.to_int64_unsigned v))

type words = int list

let words args =
  if List.for_all arg_fits args then
    Some (List.map (fun v -> Int64.to_int (Bitvec.to_int64_unsigned v)) args)
  else None

(* --- decoding ---------------------------------------------------------- *)

(* Opcodes.  Operand x/y per instruction as noted. *)
let op_push = 0 (* x: the word (constants and global addresses) *)
let op_push_frame = 1 (* x: FP offset *)
let op_load = 2
let op_store = 3
let op_mask = 4 (* x: width (narrowing and zero-extending casts) *)
let op_sext = 5 (* x: source width, y: target width *)
let op_dup = 6
let op_drop = 7
let op_jump = 8 (* x: target *)
let op_jump_if_zero = 9 (* x: target *)
let op_call = 10 (* x: target *)
let op_enter = 11 (* x: local words *)
let op_ret = 12 (* x: argument words, y: 1 when a value returns *)
let op_alloc = 13
let op_halt = 14
let op_not = 15 (* unary and binary operators: x is the width *)
let op_neg = 16
let op_reduce_or = 17
let op_binop = 18 (* + the binop's Intalu.binop_index *)

let width_ok w = w >= 1 && w <= Intalu.width_limit

(* [None] when the instruction needs more than the int engine offers *)
let decode : C2verilog.instr -> (int * int * int) option = function
  | C2verilog.Push c ->
    Option.map (fun v -> (op_push, v, 0)) (word_of_pattern c)
  | C2verilog.Push_global_addr a -> Some (op_push, a land mask32, 0)
  | C2verilog.Push_frame_addr off -> Some (op_push_frame, off, 0)
  | C2verilog.Load -> Some (op_load, 0, 0)
  | C2verilog.Store -> Some (op_store, 0, 0)
  | C2verilog.Bin (op, w) ->
    if width_ok w then Some (op_binop + Intalu.binop_index op, w, 0) else None
  | C2verilog.Un (op, w) ->
    if not (width_ok w) then None
    else
      Some
        ( (match op with
          | Netlist.U_not -> op_not
          | Netlist.U_neg -> op_neg
          | Netlist.U_reduce_or -> op_reduce_or),
          w,
          0 )
  | C2verilog.Cast { signed; from_width; to_width } ->
    if not (width_ok from_width && width_ok to_width) then None
    else if to_width > from_width && signed then
      Some (op_sext, from_width, to_width)
    else Some (op_mask, min from_width to_width, 0)
  | C2verilog.Dup -> Some (op_dup, 0, 0)
  | C2verilog.Drop -> Some (op_drop, 0, 0)
  | C2verilog.Jump t -> Some (op_jump, t, 0)
  | C2verilog.Jump_if_zero t -> Some (op_jump_if_zero, t, 0)
  | C2verilog.Call (t, _) -> Some (op_call, t, 0)
  | C2verilog.Enter locals -> Some (op_enter, locals, 0)
  | C2verilog.Ret { args; has_value } ->
    Some (op_ret, args, if has_value then 1 else 0)
  | C2verilog.Alloc -> Some (op_alloc, 0, 0)
  | C2verilog.Halt _ -> Some (op_halt, 0, 0)

(* --- the engine -------------------------------------------------------- *)

type t = {
  src : C2verilog.compiled;
  ret_width : int;
  ops : int array;
  xs : int array;
  ys : int array;
  costs : int array; (* C2verilog.cycles_of_instr, per pc *)
  image : int array; (* initial words of [0, stack_base) *)
  stack_base : int;
  heap_base : int;
  memory_words : int;
  mutable low : int array; (* addresses [0, heap_base), grown on demand *)
  mutable heap : int array; (* addresses [heap_base, memory_words) *)
  (* what the last run dirtied, rewritten at the start of the next *)
  mutable globals_lo : int;
  mutable globals_hi : int; (* [globals_lo, globals_hi) within the image *)
  mutable stack_top : int; (* [stack_base, stack_top) *)
  mutable heap_top : int; (* heap indices [0, heap_top) *)
  mutable sp : int;
  mutable fp : int;
  mutable hp : int;
  mutable pc : int;
  mutable cycles : int;
  mutable executed : int;
}

let compilable (compiled : C2verilog.compiled) =
  let c = compiled in
  c.C2verilog.stack_base <= c.C2verilog.heap_base
  && c.C2verilog.heap_base <= c.C2verilog.memory_words
  && Array.for_all (fun i -> Option.is_some (decode i)) c.C2verilog.code
  && List.for_all
       (fun (addr, v) ->
         addr >= 0
         && addr < c.C2verilog.stack_base
         && arg_fits v)
       c.C2verilog.initial_memory

let create (src : C2verilog.compiled) ~ret_width =
  if not (compilable src) then
    invalid_arg "C2vcomp: the program is not compilable";
  let n = Array.length src.C2verilog.code in
  let ops = Array.make n 0 and xs = Array.make n 0 and ys = Array.make n 0 in
  Array.iteri
    (fun pc instr ->
      match decode instr with
      | Some (op, x, y) ->
        ops.(pc) <- op;
        xs.(pc) <- x;
        ys.(pc) <- y
      | None -> assert false (* [compilable] *))
    src.C2verilog.code;
  let stack_base = src.C2verilog.stack_base in
  let heap_base = src.C2verilog.heap_base in
  let image = Array.make stack_base 0 in
  List.iter
    (fun (addr, v) -> image.(addr) <- Int64.to_int (Bitvec.to_int64_unsigned v))
    src.C2verilog.initial_memory;
  let low = Array.make (min heap_base (stack_base + 1024)) 0 in
  Array.blit image 0 low 0 stack_base;
  { src;
    ret_width;
    ops;
    xs;
    ys;
    costs = Array.map C2verilog.cycles_of_instr src.C2verilog.code;
    image;
    stack_base;
    heap_base;
    memory_words = src.C2verilog.memory_words;
    low;
    heap = [||];
    globals_lo = stack_base;
    globals_hi = 0;
    stack_top = stack_base;
    heap_top = 0;
    sp = 0;
    fp = 0;
    hp = 0;
    pc = 0;
    cycles = 0;
    executed = 0 }

let fault fmt =
  Printf.ksprintf (fun m -> raise (C2v_machine.Runtime_error m)) fmt

(* --- memory ------------------------------------------------------------ *)

let grown a ~need ~limit =
  let b = Array.make (min limit (max need (2 * Array.length a))) 0 in
  Array.blit a 0 b 0 (Array.length a);
  b

(* The stack region [stack_base, top) joins the dirty range. *)
let extend_stack c top =
  if top > Array.length c.low then
    c.low <- grown c.low ~need:top ~limit:c.heap_base;
  c.stack_top <- top

(* Every address below is in [0, memory_words). *)
let read c a =
  if a < c.heap_base then if a < Array.length c.low then c.low.(a) else 0
  else
    let i = a - c.heap_base in
    if i < Array.length c.heap then c.heap.(i) else 0

let write c a v =
  if a < c.stack_base then begin
    c.low.(a) <- v;
    if a < c.globals_lo then c.globals_lo <- a;
    if a >= c.globals_hi then c.globals_hi <- a + 1
  end
  else if a < c.heap_base then begin
    if a >= c.stack_top then extend_stack c (a + 1);
    c.low.(a) <- v
  end
  else begin
    let i = a - c.heap_base in
    if i >= c.heap_top then begin
      if i >= Array.length c.heap then
        c.heap <-
          grown c.heap ~need:(max 256 (i + 1))
            ~limit:(c.memory_words - c.heap_base);
      c.heap_top <- i + 1
    end;
    c.heap.(i) <- v
  end

(* Back to the initial image, rewriting only what the last run dirtied. *)
let restore c =
  if c.globals_hi > c.globals_lo then
    Array.blit c.image c.globals_lo c.low c.globals_lo
      (c.globals_hi - c.globals_lo);
  c.globals_lo <- c.stack_base;
  c.globals_hi <- 0;
  Array.fill c.low c.stack_base (c.stack_top - c.stack_base) 0;
  c.stack_top <- c.stack_base;
  Array.fill c.heap 0 c.heap_top 0;
  c.heap_top <- 0

let push_slow c v =
  let sp = c.sp in
  if sp >= c.heap_base then fault "stack overflow";
  if sp < 0 then fault "stack underflow";
  write c sp v;
  c.sp <- sp + 1

let[@inline] push c v =
  let sp = c.sp in
  if sp >= c.stack_top || sp < c.stack_base then push_slow c v
  else begin
    c.low.(sp) <- v;
    c.sp <- sp + 1
  end

let[@inline] pop c =
  let sp = c.sp in
  if sp <= 0 then fault "stack underflow";
  let sp = sp - 1 in
  c.sp <- sp;
  if sp < Array.length c.low then c.low.(sp) else read c sp

(* locals read as zero: [sp, top) with top < heap_base *)
let zero_frame c sp top =
  if sp >= c.stack_base then begin
    (* words at or above the dirty range are zero already *)
    let dirty = min top c.stack_top in
    if dirty > sp then Array.fill c.low sp (dirty - sp) 0;
    if top > c.stack_top then extend_stack c top
  end
  else
    for a = sp to top - 1 do
      write c a 0
    done

(* --- execution --------------------------------------------------------- *)

let step c =
  let pc = c.pc in
  if pc < 0 || pc >= Array.length c.ops then fault "pc out of range";
  c.cycles <- c.cycles + c.costs.(pc);
  c.executed <- c.executed + 1;
  let next = pc + 1 in
  let x = c.xs.(pc) in
  match c.ops.(pc) with
  | 0 (* push *) ->
    push c x;
    c.pc <- next
  | 1 (* push_frame *) ->
    push c ((c.fp + x) land mask32);
    c.pc <- next
  | 2 (* load *) ->
    let a = pop c in
    if a < 0 || a >= c.memory_words then fault "load out of memory (%d)" a;
    push c (read c a);
    c.pc <- next
  | 3 (* store *) ->
    let v = pop c in
    let a = pop c in
    if a < 0 || a >= c.memory_words then fault "store out of memory (%d)" a;
    write c a v;
    c.pc <- next
  | 4 (* mask *) ->
    push c (pop c land Intalu.masks.(x));
    c.pc <- next
  | 5 (* sext *) ->
    let v = pop c land Intalu.masks.(x) in
    push c (Intalu.sx v x land Intalu.masks.(c.ys.(pc)));
    c.pc <- next
  | 6 (* dup *) ->
    let v = pop c in
    push c v;
    push c v;
    c.pc <- next
  | 7 (* drop *) ->
    ignore (pop c);
    c.pc <- next
  | 8 (* jump *) -> c.pc <- x
  | 9 (* jump_if_zero *) -> c.pc <- (if pop c = 0 then x else next)
  | 10 (* call *) ->
    push c (next land mask32);
    c.pc <- x
  | 11 (* enter *) ->
    push c (c.fp land mask32);
    let sp = c.sp in
    c.fp <- sp;
    if sp + x >= c.heap_base then fault "stack overflow";
    zero_frame c sp (sp + x);
    c.sp <- sp + x;
    c.pc <- next
  | 12 (* ret *) ->
    let has_value = c.ys.(pc) = 1 in
    let value = if has_value then pop c else 0 in
    let fp = c.fp in
    if fp < 2 || fp > c.memory_words then
      fault "frame pointer out of memory (%d)" fp;
    let saved_fp = read c (fp - 1) and ret_pc = read c (fp - 2) in
    c.sp <- fp - 2 - x;
    c.fp <- saved_fp;
    if has_value then push c value;
    c.pc <- ret_pc
  | 13 (* alloc *) ->
    let words = max 1 (Intalu.sx (pop c land mask32) 32) in
    if c.hp + words >= c.memory_words then fault "heap exhausted";
    push c (c.hp land mask32);
    c.hp <- c.hp + words;
    c.pc <- next
  | 14 (* halt *) -> fault "halt reached outside the boot protocol"
  | 15 (* not *) ->
    push c (lnot (pop c) land Intalu.masks.(x));
    c.pc <- next
  | 16 (* neg *) ->
    push c (-pop c land Intalu.masks.(x));
    c.pc <- next
  | 17 (* reduce_or *) ->
    push c (if pop c land Intalu.masks.(x) = 0 then 0 else 1);
    c.pc <- next
  | op ->
    let m = Intalu.masks.(x) in
    let b = pop c land m in
    let a = pop c land m in
    push c (Intalu.binop (op - op_binop) x a b);
    c.pc <- next

let execute c words : C2v_machine.outcome =
  restore c;
  let src = c.src in
  if List.length words <> src.C2verilog.entry_args then
    fault "expected %d arguments" src.C2verilog.entry_args;
  c.pc <- src.C2verilog.entry_pc;
  c.sp <- c.stack_base;
  c.fp <- c.stack_base;
  c.hp <- c.heap_base;
  c.cycles <- 0;
  c.executed <- 0;
  (* boot protocol: args, then a return pc beyond the code *)
  let halt_pc = Array.length c.ops in
  List.iter (push c) words;
  push c (halt_pc land mask32);
  while c.pc <> halt_pc do
    if c.cycles > C2v_machine.max_cycles then raise C2v_machine.Timeout;
    step c
  done;
  let bv w v = Bitvec.make ~width:w (Int64.of_int v) in
  let return_value =
    if c.ret_width > 0 && c.sp > c.stack_base then
      Some (bv c.ret_width (pop c))
    else None
  in
  let globals, memories =
    C2v_machine.observe src ~word:(fun a w -> bv w (read c a))
  in
  { C2v_machine.return_value;
    cycles = c.cycles;
    instructions_executed = c.executed;
    globals;
    memories }
