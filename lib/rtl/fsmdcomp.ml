(* Compiled FSMD simulation.

   Rtlsim interprets: every cycle it walks the current state's
   instruction list, matching on constructors and evaluating operands
   through boxed Bitvec values.  Here the FSMD is compiled once — each
   instruction becomes one specialized [unit -> unit] closure and each
   transition a [unit -> int] closure (-1 = halt) — and the compiled
   engine can then execute any number of runs: a cycle is a
   straight-line run over a closure array, and a fresh run just blits
   the precomputed initial register/memory images back in.

   Register file representation: Rtlsim registers carry *dynamic* widths
   (an I_bin writes an operand-width result, a comparison a 1-bit one, a
   mov copies the source's width), so the compiled engine keeps two
   parallel unboxed arrays — masked bit patterns and current widths —
   instead of one Bitvec array.  Memory cells get the same treatment
   (stores deposit the stored value's width).  All arithmetic is
   Intalu's, bit-identical to Bitvec at widths <= 62.  Operand-width
   mismatches take a slow path through Netlist.apply_binop so they
   raise (or, for eq/ne, compare unequal) exactly as the interpreter
   would.

   The engine holds only a [compilable] FSMD, one whose registers,
   immediates, memories and globals all fit 62 bits; [create] refuses
   any other.  Design runs such an FSMD on the interpreter instead, and
   the interpreter stays this engine's differential oracle (chlsc
   compile --verify-sim, test/test_simcomp.ml). *)

let[@inline] to_bits bv = Int64.to_int (Bitvec.to_int64_unsigned bv)

(* operand source, resolved at compile time *)
type src = SImm of int * int (* bits, width *) | SReg of int

let compilable (fsmd : Fsmd.t) =
  let func = fsmd.Fsmd.func in
  let ok = ref true in
  let chk_w w = if w > Intalu.width_limit then ok := false in
  Array.iter chk_w func.Cir.fn_reg_widths;
  Array.iter
    (fun (rg : Cir.region) ->
      if rg.Cir.rg_width < 1 then ok := false;
      chk_w rg.Cir.rg_width;
      match rg.Cir.rg_init with
      | Some cells -> Array.iter (fun c -> chk_w (Bitvec.width c)) cells
      | None -> ())
    func.Cir.fn_regions;
  List.iter (fun (_, _, init) -> chk_w (Bitvec.width init)) func.Cir.fn_globals;
  let chk_op = function
    | Cir.O_imm bv -> chk_w (Bitvec.width bv)
    | Cir.O_reg _ -> ()
  in
  (* leave zero-width cast/load destinations to the interpreter: those
     crash in Bitvec, and the interpreter reproduces the crash exactly *)
  let chk_dst_w dst = if Cir.reg_width func dst < 1 then ok := false in
  Array.iter
    (fun (st : Fsmd.state) ->
      List.iter
        (fun instr ->
          match instr with
          | Cir.I_bin { a; b; _ } -> chk_op a; chk_op b
          | Cir.I_un { a; _ } -> chk_op a
          | Cir.I_mov { src; _ } -> chk_op src
          | Cir.I_cast { dst; src; _ } -> chk_dst_w dst; chk_op src
          | Cir.I_mux { sel; if_true; if_false; _ } ->
            chk_op sel; chk_op if_true; chk_op if_false
          | Cir.I_load { dst; addr; _ } -> chk_dst_w dst; chk_op addr
          | Cir.I_store { addr; value; _ } -> chk_op addr; chk_op value)
        st.Fsmd.actions;
      match st.Fsmd.next with
      | Fsmd.N_branch { cond; _ } -> chk_op cond
      | Fsmd.N_halt (Some op) -> chk_op op
      | Fsmd.N_goto _ | Fsmd.N_halt None -> ())
    fsmd.Fsmd.states;
  !ok

type t = {
  fsmd : Fsmd.t;
  nregs : int;
  (* live register file: masked bit patterns + current dynamic widths *)
  reg_bits : int array;
  reg_w : int array;
  (* initial images (globals applied), blitted in at each run's start *)
  reg_init_bits : int array;
  reg_init_w : int array;
  mem_bits : int array array;
  mem_w : int array array;
  mem_init_bits : int array array;
  mem_init_w : int array array;
  (* per-state compiled actions + transition (-1 = halt) *)
  states : ((unit -> unit) array * (unit -> int)) array;
  (* non-forwarding stores buffer here until the clock edge *)
  sb_region : int array;
  sb_addr : int array;
  sb_bits : int array;
  sb_w : int array;
  sb_n : int ref;
  (* trace support; store closures consult [traced] so untraced runs
     never build the log *)
  traced : bool ref;
  store_log : (int * int * Bitvec.t) list ref;
  result : Bitvec.t option ref;
}

let create (fsmd : Fsmd.t) : t =
  if not (compilable fsmd) then
    invalid_arg
      (Printf.sprintf "Fsmdcomp: FSMD %S is not compilable"
         fsmd.Fsmd.fd_name);
  let func = fsmd.Fsmd.func in
  let nregs = func.Cir.fn_reg_count in
  let reg_bits = Array.make (max nregs 1) 0 in
  let reg_w = Array.make (max nregs 1) 1 in
  let reg_init_bits = Array.make (max nregs 1) 0 in
  let reg_init_w =
    Array.init (max nregs 1) (fun r ->
        if r < nregs then max 1 func.Cir.fn_reg_widths.(r) else 1)
  in
  List.iter
    (fun (_, r, init) ->
      reg_init_bits.(r) <- to_bits init;
      reg_init_w.(r) <- Bitvec.width init)
    func.Cir.fn_globals;
  let mem_init_bits =
    Array.map
      (fun (rg : Cir.region) ->
        match rg.Cir.rg_init with
        | Some init -> Array.map to_bits init
        | None -> Array.make rg.Cir.rg_words 0)
      func.Cir.fn_regions
  in
  let mem_init_w =
    Array.map
      (fun (rg : Cir.region) ->
        match rg.Cir.rg_init with
        | Some init -> Array.map Bitvec.width init
        | None -> Array.make rg.Cir.rg_words rg.Cir.rg_width)
      func.Cir.fn_regions
  in
  let mem_bits = Array.map Array.copy mem_init_bits in
  let mem_w = Array.map Array.copy mem_init_w in
  let src = function
    | Cir.O_imm bv -> SImm (to_bits bv, Bitvec.width bv)
    | Cir.O_reg r -> SReg r
  in
  let bits = function SImm (b, _) -> b | SReg r -> reg_bits.(r) in
  let wid = function SImm (_, w) -> w | SReg r -> reg_w.(r) in
  let bv_of = function
    | SImm (b, w) -> Bitvec.make ~width:w (Int64.of_int b)
    | SReg r -> Bitvec.make ~width:reg_w.(r) (Int64.of_int reg_bits.(r))
  in
  let traced = ref false in
  let store_log : (int * int * Bitvec.t) list ref = ref [] in
  let max_stores =
    Array.fold_left
      (fun acc (st : Fsmd.state) ->
        max acc
          (List.length
             (List.filter
                (function Cir.I_store _ -> true | _ -> false)
                st.Fsmd.actions)))
      0 fsmd.Fsmd.states
  in
  let sb_region = Array.make (max max_stores 1) 0 in
  let sb_addr = Array.make (max max_stores 1) 0 in
  let sb_bits = Array.make (max max_stores 1) 0 in
  let sb_w = Array.make (max max_stores 1) 0 in
  let sb_n = ref 0 in
  let result : Bitvec.t option ref = ref None in
  let compile_instr instr : unit -> unit =
    match instr with
    | Cir.I_bin { op; dst; a; b } ->
      let a = src a and b = src b in
      let k = Intalu.binop_index op in
      (* operand-width mismatches funnel through the interpreter's
         operator table, so they raise Width_mismatch (or compare
         unequal, for eq/ne) exactly as Rtlsim would *)
      let slow () =
        let r = Netlist.apply_binop op (bv_of a) (bv_of b) in
        reg_bits.(dst) <- to_bits r;
        reg_w.(dst) <- Bitvec.width r
      in
      (match op with
      | Netlist.B_shl | Netlist.B_lshr | Netlist.B_ashr ->
        (* shift amounts may have any width (Bitvec.shl's contract) *)
        fun () ->
          let wa = wid a in
          reg_bits.(dst) <- Intalu.binop k wa (bits a) (bits b);
          reg_w.(dst) <- wa
      | _ ->
        let one_bit = Netlist.is_comparison op in
        fun () ->
          let wa = wid a in
          if wa <> wid b then slow ()
          else begin
            reg_bits.(dst) <- Intalu.binop k wa (bits a) (bits b);
            reg_w.(dst) <- (if one_bit then 1 else wa)
          end)
    | Cir.I_un { op; dst; a } ->
      let a = src a in
      (match op with
      | Netlist.U_not ->
        fun () ->
          let w = wid a in
          reg_bits.(dst) <- bits a lxor Intalu.masks.(w);
          reg_w.(dst) <- w
      | Netlist.U_neg ->
        fun () ->
          let w = wid a in
          reg_bits.(dst) <- -bits a land Intalu.masks.(w);
          reg_w.(dst) <- w
      | Netlist.U_reduce_or ->
        fun () ->
          reg_bits.(dst) <- (if bits a = 0 then 0 else 1);
          reg_w.(dst) <- 1)
    | Cir.I_mov { dst; src = s } ->
      let s = src s in
      fun () ->
        reg_bits.(dst) <- bits s;
        reg_w.(dst) <- wid s
    | Cir.I_cast { dst; signed; src = s } ->
      let s = src s in
      let tw = Cir.reg_width func dst in
      let tm = Intalu.masks.(tw) in
      if signed then
        fun () ->
          let w = wid s in
          reg_bits.(dst) <-
            (if w >= tw then bits s land tm
             else Intalu.sx (bits s) w land tm);
          reg_w.(dst) <- tw
      else
        fun () ->
          let w = wid s in
          reg_bits.(dst) <- (if w >= tw then bits s land tm else bits s);
          reg_w.(dst) <- tw
    | Cir.I_mux { dst; sel; if_true; if_false } ->
      let sel = src sel and t = src if_true and f = src if_false in
      fun () ->
        if bits sel <> 0 then begin
          reg_bits.(dst) <- bits t;
          reg_w.(dst) <- wid t
        end
        else begin
          reg_bits.(dst) <- bits f;
          reg_w.(dst) <- wid f
        end
    | Cir.I_load { dst; region; addr } ->
      let addr = src addr in
      let mb = mem_bits.(region) and mw = mem_w.(region) in
      let depth = Array.length mb in
      let zw = Cir.reg_width func dst in
      fun () ->
        let a = bits addr in
        if a < depth then begin
          reg_bits.(dst) <- mb.(a);
          reg_w.(dst) <- mw.(a)
        end
        else begin
          reg_bits.(dst) <- 0;
          reg_w.(dst) <- zw
        end
    | Cir.I_store { region; addr; value = v } ->
      let addr = src addr and v = src v in
      let mb = mem_bits.(region) and mw = mem_w.(region) in
      let depth = Array.length mb in
      if fsmd.Fsmd.mem_forwarding then (
        fun () ->
          let a = bits addr in
          if !traced then store_log := (region, a, bv_of v) :: !store_log;
          if a < depth then begin
            mb.(a) <- bits v;
            mw.(a) <- wid v
          end)
      else
        fun () ->
          let a = bits addr in
          if !traced then store_log := (region, a, bv_of v) :: !store_log;
          let i = !sb_n in
          sb_region.(i) <- region;
          sb_addr.(i) <- a;
          sb_bits.(i) <- bits v;
          sb_w.(i) <- wid v;
          sb_n := i + 1
  in
  let compile_next : Fsmd.next -> unit -> int = function
    | Fsmd.N_goto target -> fun () -> target
    | Fsmd.N_branch { cond; if_true; if_false } ->
      let c = src cond in
      fun () -> if bits c <> 0 then if_true else if_false
    | Fsmd.N_halt v -> (
      match v with
      | Some op ->
        let s = src op in
        fun () ->
          result := Some (bv_of s);
          -1
      | None ->
        fun () ->
          result := None;
          -1)
  in
  let states =
    Array.map
      (fun (st : Fsmd.state) ->
        ( Array.of_list (List.map compile_instr st.Fsmd.actions),
          compile_next st.Fsmd.next ))
      fsmd.Fsmd.states
  in
  { fsmd; nregs; reg_bits; reg_w; reg_init_bits; reg_init_w; mem_bits;
    mem_w; mem_init_bits; mem_init_w; states; sb_region; sb_addr; sb_bits;
    sb_w; sb_n; traced; store_log; result }

let execute ?(max_cycles = Rtlsim.max_cycles) ?trace (c : t) ~args :
    Rtlsim.outcome =
  let fsmd = c.fsmd in
  let func = fsmd.Fsmd.func in
  (* fresh run: restore the initial register/memory images *)
  let n = Array.length c.reg_bits in
  Array.blit c.reg_init_bits 0 c.reg_bits 0 n;
  Array.blit c.reg_init_w 0 c.reg_w 0 n;
  Array.iteri
    (fun i live -> Array.blit c.mem_init_bits.(i) 0 live 0 (Array.length live))
    c.mem_bits;
  Array.iteri
    (fun i live -> Array.blit c.mem_init_w.(i) 0 live 0 (Array.length live))
    c.mem_w;
  List.iter
    (fun (r, bv) ->
      c.reg_bits.(r) <- to_bits bv;
      c.reg_w.(r) <- Bitvec.width bv)
    (Cir_interp.arguments func args);
  c.traced := trace <> None;
  c.store_log := [];
  c.result := None;
  let reg_bits = c.reg_bits and reg_w = c.reg_w in
  let states = c.states and sb_n = c.sb_n in
  let visited = Array.make (Fsmd.num_states fsmd) 0 in
  let cycles = ref 0 in
  let state = ref fsmd.Fsmd.entry in
  let halted = ref false in
  while not !halted do
    if !cycles >= max_cycles then
      raise (Rtlsim.Timeout { cycles = !cycles; state = !state });
    incr cycles;
    visited.(!state) <- visited.(!state) + 1;
    let acts, next = states.(!state) in
    sb_n := 0;
    for i = 0 to Array.length acts - 1 do
      acts.(i) ()
    done;
    (* clock edge: commit buffered stores in program order *)
    for i = 0 to !sb_n - 1 do
      let region = c.sb_region.(i) and a = c.sb_addr.(i) in
      let mb = c.mem_bits.(region) in
      if a < Array.length mb then begin
        mb.(a) <- c.sb_bits.(i);
        c.mem_w.(region).(a) <- c.sb_w.(i)
      end
    done;
    (match trace with
    | None -> ()
    | Some tr ->
      tr.Rtlsim.on_cycle ~cycle:(!cycles - 1) ~state:!state
        ~regs:
          (Array.init c.nregs (fun r ->
               Bitvec.make ~width:reg_w.(r) (Int64.of_int reg_bits.(r))))
        ~stores:(List.rev !(c.store_log));
      c.store_log := []);
    let ns = next () in
    if ns < 0 then halted := true else state := ns
  done;
  { Rtlsim.return_value = !(c.result);
    cycles = !cycles;
    globals =
      List.map
        (fun (name, r, _) ->
          (name, Bitvec.make ~width:reg_w.(r) (Int64.of_int reg_bits.(r))))
        func.Cir.fn_globals;
    memories =
      Array.to_list
        (Array.mapi
           (fun i (rg : Cir.region) ->
             ( rg.Cir.rg_name,
               Bitvec.init_array
                 (Array.length c.mem_bits.(i))
                 (fun j ->
                   Bitvec.make ~width:c.mem_w.(i).(j)
                     (Int64.of_int c.mem_bits.(i).(j))) ))
           func.Cir.fn_regions);
    states_visited = visited }
