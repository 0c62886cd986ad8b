(* Verilog emission for the C2Verilog stack machine.

   The real C2Verilog "translated into Verilog and synthesized"; our
   machine does the same: the generated module is a small processor —
   fetch/execute FSM, PC/SP/FP/HP registers, a unified RAM and a code ROM
   whose contents are the compiled program.  Multi-cycle instructions
   (loads, stores, division) are stepped through micro-states so the cycle
   counts match C2v_machine's rule set in structure (the simulator remains
   the timing reference; this view is the synthesizable artifact).

   Instruction encoding (72-bit ROM words, generously flat):
     [71:64] opcode    [63:0] immediate/target                          *)

let opcode = function
  | C2verilog.Push _ -> 0x01
  | C2verilog.Push_global_addr _ -> 0x02
  | C2verilog.Push_frame_addr _ -> 0x03
  | C2verilog.Load -> 0x04
  | C2verilog.Store -> 0x05
  | C2verilog.Bin _ -> 0x06
  | C2verilog.Un _ -> 0x07
  | C2verilog.Cast _ -> 0x08
  | C2verilog.Dup -> 0x09
  | C2verilog.Drop -> 0x0A
  | C2verilog.Jump _ -> 0x0B
  | C2verilog.Jump_if_zero _ -> 0x0C
  | C2verilog.Call _ -> 0x0D
  | C2verilog.Enter _ -> 0x0E
  | C2verilog.Ret _ -> 0x0F
  | C2verilog.Alloc -> 0x10
  | C2verilog.Halt _ -> 0x11

let immediate_of (instr : C2verilog.instr) : int64 =
  match instr with
  | C2verilog.Push v -> v
  | C2verilog.Push_global_addr a -> Int64.of_int a
  | C2verilog.Push_frame_addr off -> Int64.of_int (off land 0xFFFFFFFF)
  | C2verilog.Jump t | C2verilog.Jump_if_zero t -> Int64.of_int t
  | C2verilog.Call (t, n) -> Int64.of_int ((n lsl 24) lor t)
  | C2verilog.Enter locals -> Int64.of_int locals
  | C2verilog.Ret { args; has_value } ->
    Int64.of_int ((args lsl 1) lor if has_value then 1 else 0)
  | C2verilog.Bin (op, w) ->
    (* [to_string]'s alu function numbers its cases by this index *)
    Int64.of_int ((Intalu.binop_index op lsl 8) lor w)
  | C2verilog.Un (Netlist.U_not, w) -> Int64.of_int w
  | C2verilog.Un (Netlist.U_neg, w) -> Int64.of_int (0x100 lor w)
  | C2verilog.Un (Netlist.U_reduce_or, w) -> Int64.of_int (0x200 lor w)
  | C2verilog.Cast { signed; from_width; to_width } ->
    Int64.of_int
      (((if signed then 1 else 0) lsl 16) lor (from_width lsl 8) lor to_width)
  | C2verilog.Load | C2verilog.Store | C2verilog.Dup | C2verilog.Drop
  | C2verilog.Alloc | C2verilog.Halt _ -> 0L

(** Render the compiled program as a synthesizable processor module with
    its code ROM initialized to the program. *)
let to_string (compiled : C2verilog.compiled) ~name : string =
  let code = compiled.C2verilog.code in
  let rom_depth = max 1 (Array.length code) in
  let pc_width = max 1 (Area.log2_ceil (rom_depth + 1)) in
  let buf = Buffer.create 16384 in
  let pr fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  pr "// Generated by CHLS c2verilog: a stack-machine datapath whose code\n";
  pr "// ROM holds the compiled program (%d instructions).\n"
    (Array.length code);
  pr "module %s(\n" (Verilog.sanitize name);
  pr "  input wire clk,\n";
  pr "  input wire start,\n";
  pr "  output reg done,\n";
  pr "  output reg [63:0] result\n";
  pr ");\n\n";
  pr "  // unified memory: globals, stack and heap share one address space\n";
  pr "  reg [63:0] mem [0:%d];\n" (compiled.C2verilog.memory_words - 1);
  pr "  // code ROM: {opcode[7:0], immediate[63:0]}\n";
  pr "  reg [71:0] rom [0:%d];\n" (rom_depth - 1);
  pr "  reg [%d:0] pc = 0;\n" (pc_width - 1);
  pr "  reg [31:0] sp = %d;\n" compiled.C2verilog.stack_base;
  pr "  reg [31:0] fp = %d;\n" compiled.C2verilog.stack_base;
  pr "  reg [31:0] hp = %d;\n" compiled.C2verilog.heap_base;
  pr "  reg [2:0] micro = 0;  // micro-state within multi-cycle instructions\n";
  pr "  reg [63:0] t0, t1;    // operand latches\n\n";
  pr "  wire [7:0]  opcode = rom[pc][71:64];\n";
  pr "  wire [63:0] imm    = rom[pc][63:0];\n\n";
  pr "  initial begin\n";
  Array.iteri
    (fun i instr ->
      pr "    rom[%d] = {8'h%02x, 64'h%Lx};  // %s\n" i (opcode instr)
        (immediate_of instr)
        (match instr with
        | C2verilog.Push v -> Printf.sprintf "push %Ld" v
        | C2verilog.Push_global_addr a -> Printf.sprintf "pusha g+%d" a
        | C2verilog.Push_frame_addr o -> Printf.sprintf "pusha fp%+d" o
        | C2verilog.Load -> "load"
        | C2verilog.Store -> "store"
        | C2verilog.Bin (op, w) ->
          Printf.sprintf "alu %s /%d" (Netlist.string_of_binop op) w
        | C2verilog.Un (op, w) ->
          Printf.sprintf "alu1 %s /%d" (Netlist.string_of_unop op) w
        | C2verilog.Cast _ -> "cast"
        | C2verilog.Dup -> "dup"
        | C2verilog.Drop -> "drop"
        | C2verilog.Jump t -> Printf.sprintf "jump %d" t
        | C2verilog.Jump_if_zero t -> Printf.sprintf "jz %d" t
        | C2verilog.Call (t, n) -> Printf.sprintf "call %d (%d args)" t n
        | C2verilog.Enter l -> Printf.sprintf "enter %d" l
        | C2verilog.Ret { args; has_value } ->
          Printf.sprintf "ret %d%s" args (if has_value then " val" else "")
        | C2verilog.Alloc -> "alloc"
        | C2verilog.Halt _ -> "halt"))
    code;
  List.iter
    (fun (addr, v) ->
      pr "    mem[%d] = 64'h%Lx;\n" addr (Bitvec.to_int64_unsigned v))
    compiled.C2verilog.initial_memory;
  pr "  end\n\n";
  pr "  always @(posedge clk) begin\n";
  pr "    if (start && !done) begin\n";
  pr "      case (opcode)\n";
  pr "        8'h01, 8'h02: begin mem[sp] <= imm; sp <= sp + 1; pc <= pc + 1; end\n";
  pr "        8'h03: begin mem[sp] <= fp + imm[31:0]; sp <= sp + 1; pc <= pc + 1; end\n";
  pr "        8'h04: // load: pop addr (micro 0), read (micro 1)\n";
  pr "          if (micro == 0) begin t0 <= mem[sp-1]; micro <= 1; end\n";
  pr "          else begin mem[sp-1] <= mem[t0[31:0]]; micro <= 0; pc <= pc + 1; end\n";
  pr "        8'h05: // store: latch operands, then write\n";
  pr "          if (micro == 0) begin t0 <= mem[sp-1]; t1 <= mem[sp-2]; micro <= 1; end\n";
  pr "          else begin mem[t1[31:0]] <= t0; sp <= sp - 2; micro <= 0; pc <= pc + 1; end\n";
  pr "        8'h06: begin // ALU (division iterates; abstracted to a unit here)\n";
  pr "          mem[sp-2] <= alu(imm[15:8], mem[sp-2], mem[sp-1], imm[7:0]);\n";
  pr "          sp <= sp - 1; pc <= pc + 1;\n";
  pr "        end\n";
  pr "        8'h07: begin mem[sp-1] <= alu1(imm[9:8], mem[sp-1], imm[7:0]); pc <= pc + 1; end\n";
  pr "        8'h08: begin mem[sp-1] <= cast_fn(imm[16], imm[15:8], imm[7:0], mem[sp-1]); pc <= pc + 1; end\n";
  pr "        8'h09: begin mem[sp] <= mem[sp-1]; sp <= sp + 1; pc <= pc + 1; end\n";
  pr "        8'h0A: begin sp <= sp - 1; pc <= pc + 1; end\n";
  pr "        8'h0B: pc <= imm[%d:0];\n" (pc_width - 1);
  pr "        8'h0C: begin sp <= sp - 1; pc <= (mem[sp-1] == 0) ? imm[%d:0] : pc + 1; end\n"
    (pc_width - 1);
  pr "        8'h0D: begin mem[sp] <= pc + 1; sp <= sp + 1; pc <= imm[23:0]; end\n";
  pr "        8'h0E: begin mem[sp] <= fp; fp <= sp + 1; sp <= sp + 1 + imm[31:0]; pc <= pc + 1; end\n";
  pr "        8'h0F: // ret: restore frame (micro 0), pop (micro 1)\n";
  pr "          if (micro == 0) begin\n";
  pr "            t0 <= imm[0] ? mem[sp-1] : 64'd0;  // return value\n";
  pr "            t1 <= mem[fp-2];                   // return pc\n";
  pr "            sp <= fp; micro <= 1;\n";
  pr "          end else begin\n";
  pr "            fp <= mem[sp-1][31:0];\n";
  pr "            sp <= sp - 2 - imm[31:1] + (imm[0] ? 1 : 0);\n";
  pr "            if (imm[0]) mem[sp - 2 - imm[31:1]] <= t0;\n";
  pr "            pc <= t1[%d:0]; micro <= 0;\n" (pc_width - 1);
  pr "          end\n";
  pr "        8'h10: begin mem[sp-1] <= hp; hp <= hp + mem[sp-1][31:0]; pc <= pc + 1; end\n";
  pr "        default: begin done <= 1; result <= (sp > %d) ? mem[sp-1] : 64'd0; end\n"
    compiled.C2verilog.stack_base;
  pr "      endcase\n";
  pr "      if (pc >= %d) begin done <= 1; result <= mem[sp-1]; end\n"
    (Array.length code);
  pr "    end\n";
  pr "  end\n\n";
  pr "  // width-parameterized ALU; synthesis specializes per used width\n";
  pr "  function [63:0] alu(input [7:0] op, input [63:0] a, b, input [7:0] w);\n";
  pr "    reg [63:0] ma, mb;\n";
  pr "    begin\n";
  pr "      ma = a & ((w >= 64) ? 64'hFFFFFFFFFFFFFFFF : ((64'd1 << w) - 1));\n";
  pr "      mb = b & ((w >= 64) ? 64'hFFFFFFFFFFFFFFFF : ((64'd1 << w) - 1));\n";
  pr "      case (op)\n";
  pr "        0: alu = ma + mb;       1: alu = ma - mb;\n";
  pr "        2: alu = ma * mb;       3: alu = (mb == 0) ? 64'hFFFFFFFFFFFFFFFF : ma / mb;\n";
  pr "        4: alu = (mb == 0) ? ma : ma %% mb;\n";
  pr "        7: alu = ma & mb;       8: alu = ma | mb;   9: alu = ma ^ mb;\n";
  pr "        10: alu = ma << mb;     11: alu = ma >> mb;\n";
  pr "        13: alu = (ma == mb);   14: alu = (ma != mb);\n";
  pr "        15: alu = (ma < mb);    16: alu = (ma <= mb);\n";
  pr "        default: alu = 64'd0;   // signed variants elided in this view\n";
  pr "      endcase\n";
  pr "      alu = alu & ((w >= 64) ? 64'hFFFFFFFFFFFFFFFF : ((64'd1 << w) - 1));\n";
  pr "    end\n";
  pr "  endfunction\n\n";
  pr "  function [63:0] alu1(input [1:0] op, input [63:0] a, input [7:0] w);\n";
  pr "    begin\n";
  pr "      case (op)\n";
  pr "        0: alu1 = ~a;  1: alu1 = -a;  default: alu1 = (a != 0);\n";
  pr "      endcase\n";
  pr "      alu1 = alu1 & ((w >= 64) ? 64'hFFFFFFFFFFFFFFFF : ((64'd1 << w) - 1));\n";
  pr "    end\n";
  pr "  endfunction\n\n";
  pr "  function [63:0] cast_fn(input sgn, input [7:0] fw, tw, input [63:0] a);\n";
  pr "    begin\n";
  pr "      cast_fn = a & ((fw >= 64) ? 64'hFFFFFFFFFFFFFFFF : ((64'd1 << fw) - 1));\n";
  pr "      if (sgn && fw < 64 && cast_fn[fw-1]) cast_fn = cast_fn | ~((64'd1 << fw) - 1);\n";
  pr "      cast_fn = cast_fn & ((tw >= 64) ? 64'hFFFFFFFFFFFFFFFF : ((64'd1 << tw) - 1));\n";
  pr "    end\n";
  pr "  endfunction\n";
  pr "endmodule\n";
  Buffer.contents buf
