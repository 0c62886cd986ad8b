(* The C2Verilog execution engine: a word stack machine with a code ROM
   and one unified RAM, simulated cycle-by-cycle under the backend's rule
   set.  The backend wrapper lives in C2v_backend.

   Memory map (word addresses):
     [0, stack_base)         scalar and array globals
     [stack_base, heap_base) the combined evaluation/call stack, growing up
     [heap_base, ...)        the malloc heap, bump-allocated

   The invariant maintained throughout is that every stored word is
   already masked to its C type's width, so each [Bin (op, w)]
   reinterprets its operands at width [w] and pushes a masked result.

   The RAM is [memory_words] long, but only the part a run has touched
   is allocated: it grows as stores reach further, and a word never
   stored reads as zero.  A whole 65,536-word RAM per run ends a major
   collection cycle every few runs, and each cycle end stops every
   domain for a minor collection. *)

exception Runtime_error of string
exception Timeout

let error fmt = Printf.ksprintf (fun m -> raise (Runtime_error m)) fmt

type state = {
  compiled : C2verilog.compiled;
  mutable mem : Bitvec.t array;
      (* the touched prefix of the RAM: 64-bit words, each masked to its
         value width *)
  mutable pc : int;
  mutable sp : int; (* next free slot *)
  mutable fp : int;
  mutable hp : int; (* heap bump pointer *)
  mutable cycles : int;
  mutable executed : int;
}

let word_width = 64

let read st addr =
  if addr < Array.length st.mem then st.mem.(addr) else Bitvec.zero word_width

let write st addr v =
  let size = Array.length st.mem in
  if addr >= size then begin
    let bigger =
      Array.make
        (min st.compiled.C2verilog.memory_words (max (addr + 1) (2 * size)))
        (Bitvec.zero word_width)
    in
    Array.blit st.mem 0 bigger 0 size;
    st.mem <- bigger
  end;
  st.mem.(addr) <- v

let push st v =
  if st.sp >= st.compiled.C2verilog.heap_base then error "stack overflow";
  if st.sp < 0 then error "stack underflow";
  write st st.sp (Bitvec.zero_extend ~width:word_width v);
  st.sp <- st.sp + 1

let pop st =
  if st.sp <= 0 then error "stack underflow";
  st.sp <- st.sp - 1;
  read st st.sp

let at_width w v = Bitvec.resize ~signed:false ~width:w v

let step st =
  let code = st.compiled.C2verilog.code in
  if st.pc < 0 || st.pc >= Array.length code then error "pc out of range";
  let instr = code.(st.pc) in
  st.cycles <- st.cycles + C2verilog.cycles_of_instr instr;
  st.executed <- st.executed + 1;
  let next = st.pc + 1 in
  (match instr with
  | C2verilog.Push v ->
    push st (Bitvec.of_int64 ~width:word_width v);
    st.pc <- next
  | C2verilog.Push_global_addr a ->
    push st (Bitvec.of_int ~width:32 a);
    st.pc <- next
  | C2verilog.Push_frame_addr off ->
    push st (Bitvec.of_int ~width:32 (st.fp + off));
    st.pc <- next
  | C2verilog.Load ->
    let addr = Bitvec.to_int_unsigned (pop st) in
    if addr < 0 || addr >= st.compiled.C2verilog.memory_words then
      error "load out of memory (%d)" addr;
    push st (read st addr);
    st.pc <- next
  | C2verilog.Store ->
    let v = pop st in
    let addr = Bitvec.to_int_unsigned (pop st) in
    if addr < 0 || addr >= st.compiled.C2verilog.memory_words then
      error "store out of memory (%d)" addr;
    write st addr v;
    st.pc <- next
  | C2verilog.Bin (op, w) ->
    let b = at_width w (pop st) in
    let a = at_width w (pop st) in
    push st (Netlist.apply_binop op a b);
    st.pc <- next
  | C2verilog.Un (op, w) ->
    let a = at_width w (pop st) in
    push st (Netlist.apply_unop op a);
    st.pc <- next
  | C2verilog.Cast { signed; from_width; to_width } ->
    let v = Bitvec.resize ~signed:false ~width:from_width (pop st) in
    push st (Bitvec.resize ~signed ~width:to_width v);
    st.pc <- next
  | C2verilog.Dup ->
    let v = pop st in
    push st v;
    push st v;
    st.pc <- next
  | C2verilog.Drop ->
    ignore (pop st);
    st.pc <- next
  | C2verilog.Jump target -> st.pc <- target
  | C2verilog.Jump_if_zero target ->
    let v = pop st in
    st.pc <- (if Bitvec.is_zero v then target else next)
  | C2verilog.Call (target, _nargs) ->
    push st (Bitvec.of_int ~width:32 next);
    st.pc <- target
  | C2verilog.Enter locals ->
    push st (Bitvec.of_int ~width:32 st.fp);
    st.fp <- st.sp;
    if st.sp + locals >= st.compiled.C2verilog.heap_base then
      error "stack overflow";
    (* locals read as zero *)
    for i = st.sp to st.sp + locals - 1 do
      write st i (Bitvec.zero word_width)
    done;
    st.sp <- st.sp + locals;
    st.pc <- next
  | C2verilog.Ret { args; has_value } ->
    let value = if has_value then Some (pop st) else None in
    (* a frame the program overwrote can name any frame pointer *)
    if st.fp < 2 || st.fp > st.compiled.C2verilog.memory_words then
      error "frame pointer out of memory (%d)" st.fp;
    st.sp <- st.fp;
    let saved_fp = Bitvec.to_int_unsigned (read st (st.sp - 1)) in
    let ret_pc = Bitvec.to_int_unsigned (read st (st.sp - 2)) in
    st.sp <- st.sp - 2 - args;
    st.fp <- saved_fp;
    (match value with Some v -> push st v | None -> ());
    st.pc <- ret_pc
  | C2verilog.Alloc ->
    let words = max 1 (Bitvec.to_int (at_width 32 (pop st))) in
    if st.hp + words >= st.compiled.C2verilog.memory_words then
      error "heap exhausted";
    push st (Bitvec.of_int ~width:32 st.hp);
    st.hp <- st.hp + words;
    st.pc <- next
  | C2verilog.Halt _ -> error "halt reached outside the boot protocol")

type outcome = {
  return_value : Bitvec.t option;
  cycles : int;
  instructions_executed : int;
  globals : (string * Bitvec.t) list;
  memories : (string * Bitvec.t array) list;
}

let observe (compiled : C2verilog.compiled) ~word =
  Hashtbl.fold
    (fun name (b : C2verilog.var_binding) (scalars, arrays) ->
      match b.C2verilog.ty with
      | Ctypes.Array (elt, n) ->
        let w = max 1 (Ctypes.width elt) in
        ( scalars,
          (name, Bitvec.init_array n (fun i -> word (b.C2verilog.offset + i) w))
          :: arrays )
      | Ctypes.Void | Ctypes.Integer _ | Ctypes.Pointer _ | Ctypes.Function _
        ->
        let w = max 1 (Ctypes.width b.C2verilog.ty) in
        ((name, word b.C2verilog.offset w) :: scalars, arrays))
    compiled.C2verilog.globals_layout ([], [])

let max_cycles = 50_000_000

let run ?(max_cycles = max_cycles) (compiled : C2verilog.compiled)
    ~(ret_width : int) ~args : outcome =
  let st =
    { compiled;
      mem =
        Array.make
          (min compiled.C2verilog.memory_words
             (compiled.C2verilog.stack_base + 1024))
          (Bitvec.zero word_width);
      pc = compiled.C2verilog.entry_pc;
      sp = compiled.C2verilog.stack_base;
      fp = compiled.C2verilog.stack_base;
      hp = compiled.C2verilog.heap_base;
      cycles = 0;
      executed = 0 }
  in
  List.iter (fun (addr, v) -> write st addr v) compiled.C2verilog.initial_memory;
  if List.length args <> compiled.C2verilog.entry_args then
    error "expected %d arguments" compiled.C2verilog.entry_args;
  (* boot protocol: args, then a return pc beyond the code *)
  let halt_pc = Array.length compiled.C2verilog.code in
  List.iter (fun v -> push st v) args;
  push st (Bitvec.of_int ~width:32 halt_pc);
  while st.pc <> halt_pc do
    if st.cycles > max_cycles then raise Timeout;
    step st
  done;
  let return_value =
    if ret_width > 0 && st.sp > compiled.C2verilog.stack_base then
      Some (Bitvec.resize ~signed:false ~width:ret_width (pop st))
    else None
  in
  let globals, memories =
    observe compiled ~word:(fun addr w ->
        Bitvec.resize ~signed:false ~width:w (read st addr))
  in
  { return_value;
    cycles = st.cycles;
    instructions_executed = st.executed;
    globals;
    memories }
