(* Word-level synchronous netlists.

   A netlist is a graph of typed nodes (constants, inputs, operators, muxes,
   registers, memory ports) referenced by dense integer signal ids.  It is
   the common hardware substrate: Cones emits purely combinational netlists,
   the FSMD backends elaborate their controller+datapath into one, and the
   area model, Verilog emitter and evaluator all consume it. *)

type signal = int

type unop = U_not | U_neg | U_reduce_or

type binop =
  | B_add | B_sub | B_mul | B_udiv | B_urem | B_sdiv | B_srem
  | B_and | B_or | B_xor
  | B_shl | B_lshr | B_ashr
  | B_eq | B_ne | B_ult | B_ule | B_slt | B_sle

type node =
  | Const of Bitvec.t
  | Input of string
  | Unop of unop * signal
  | Binop of binop * signal * signal
  | Mux of { sel : signal; if_true : signal; if_false : signal }
  | Concat of { hi : signal; lo : signal }
  | Extract of { hi : int; lo : int; arg : signal }
  | Zext of { width : int; arg : signal }
  | Sext of { width : int; arg : signal }
  | Reg of { init : Bitvec.t; next : signal; enable : signal option }
  | Mem_read of { mem : int; addr : signal }

type mem = {
  mem_name : string;
  word_width : int;
  depth : int;
  (* Synchronous write port; at a clock edge, if [we]=1 the word at [waddr]
     becomes [wdata].  Reads (Mem_read nodes) are combinational. *)
  mutable write_port : (signal * signal * signal) option; (* we, waddr, wdata *)
  init : Bitvec.t array option;
}

(* The sharing table's key: a combinational node, compared field by field
   and hashed by mixing its ints (one multiply-xorshift step each), never
   walked structurally as the polymorphic [Hashtbl] would. *)
module Shared = Hashtbl.Make (struct
  type t = node

  let equal a b =
    match (a, b) with
    | Const x, Const y -> Bitvec.equal x y
    | Unop (o, x), Unop (p, y) -> o = p && x = y
    | Binop (o, x, y), Binop (p, x', y') -> o = p && x = x' && y = y'
    | Mux m, Mux m' ->
      m.sel = m'.sel && m.if_true = m'.if_true && m.if_false = m'.if_false
    | Concat c, Concat c' -> c.hi = c'.hi && c.lo = c'.lo
    | Extract e, Extract e' -> e.hi = e'.hi && e.lo = e'.lo && e.arg = e'.arg
    | Zext e, Zext e' -> e.width = e'.width && e.arg = e'.arg
    | Sext e, Sext e' -> e.width = e'.width && e.arg = e'.arg
    | ( ( Const _ | Input _ | Unop _ | Binop _ | Mux _ | Concat _
        | Extract _ | Zext _ | Sext _ | Reg _ | Mem_read _ ),
        _ ) -> false

  let mix h x =
    let h = (h lxor x) * 0x2545F4914F6CDD1D in
    h lxor (h lsr 29)

  let hash = function
    | Const bv ->
      mix (mix 1 (Bitvec.width bv)) (Int64.to_int (Bitvec.to_int64_unsigned bv))
    | Unop (op, a) -> mix (mix 2 (Hashtbl.hash op)) a
    | Binop (op, a, b) -> mix (mix (mix 3 (Hashtbl.hash op)) a) b
    | Mux { sel; if_true; if_false } -> mix (mix (mix 4 sel) if_true) if_false
    | Concat { hi; lo } -> mix (mix 5 hi) lo
    | Extract { hi; lo; arg } -> mix (mix (mix 6 hi) lo) arg
    | Zext { width; arg } -> mix (mix 7 width) arg
    | Sext { width; arg } -> mix (mix 8 width) arg
    | Input _ | Reg _ | Mem_read _ -> 0
end)

type t = {
  mutable nodes : node array;
  mutable widths : int array;
  mutable count : int;
  mutable mems : mem list; (* reverse order of creation *)
  mutable outputs : (string * signal) list; (* reverse order *)
  mutable name : string;
  mutable fanout_cache : signal array array option;
      (* signal id -> combinational users; rebuilt when the node count has
         changed since it was computed (see [fanouts]) *)
  mutable shared : signal Shared.t option;
      (* build-time only: each combinational node -> its one signal.
         [finish] drops it; the next builder call re-indexes the nodes *)
}

let create ?(name = "top") () =
  { nodes = Array.make 64 (Const (Bitvec.zero 1));
    widths = Array.make 64 0;
    count = 0;
    mems = [];
    outputs = [];
    name;
    fanout_cache = None;
    shared = None }

let length t = t.count
let node t s = t.nodes.(s)
let width t s = t.widths.(s)
let name t = t.name

let ensure_capacity t =
  if t.count = Array.length t.nodes then begin
    let capacity = max 64 (2 * t.count) in
    let nodes = Array.make capacity (Const (Bitvec.zero 1)) in
    let widths = Array.make capacity 0 in
    Array.blit t.nodes 0 nodes 0 t.count;
    Array.blit t.widths 0 widths 0 t.count;
    t.nodes <- nodes;
    t.widths <- widths
  end

let add t ~width node =
  ensure_capacity t;
  let s = t.count in
  t.nodes.(s) <- node;
  t.widths.(s) <- width;
  t.count <- t.count + 1;
  s

let shareable = function
  | Const _ | Unop _ | Binop _ | Mux _ | Concat _ | Extract _ | Zext _
  | Sext _ -> true
  | Input _ | Reg _ | Mem_read _ -> false

let shared_table t =
  match t.shared with
  | Some table -> table
  | None ->
    let table = Shared.create (max 64 t.count) in
    for s = 0 to t.count - 1 do
      if shareable t.nodes.(s) then Shared.replace table t.nodes.(s) s
    done;
    t.shared <- Some table;
    table

(* Every combinational node is made here: an equal node already built is
   returned instead of a new one. *)
let share t ~width node =
  let table = shared_table t in
  match Shared.find table node with
  | s -> s
  | exception Not_found ->
    let s = add t ~width node in
    Shared.add table node s;
    s

let finish t =
  t.shared <- None;
  t.nodes <- Array.sub t.nodes 0 t.count;
  t.widths <- Array.sub t.widths 0 t.count

let apply_unop op a =
  match op with
  | U_not -> Bitvec.lognot a
  | U_neg -> Bitvec.neg a
  | U_reduce_or -> Bitvec.of_bool (not (Bitvec.is_zero a))

let apply_binop op a b =
  let open Bitvec in
  match op with
  | B_add -> add a b
  | B_sub -> sub a b
  | B_mul -> mul a b
  | B_udiv -> udiv a b
  | B_urem -> urem a b
  | B_sdiv -> sdiv a b
  | B_srem -> srem a b
  | B_and -> logand a b
  | B_or -> logor a b
  | B_xor -> logxor a b
  | B_shl -> shl a b
  | B_lshr -> lshr a b
  | B_ashr -> ashr a b
  | B_eq -> of_bool (equal a b)
  | B_ne -> of_bool (not (equal a b))
  | B_ult -> of_bool (ult a b)
  | B_ule -> of_bool (ule a b)
  | B_slt -> of_bool (slt a b)
  | B_sle -> of_bool (sle a b)

let const t bv = share t ~width:(Bitvec.width bv) (Const bv)
let const_int t ~width n = const t (Bitvec.of_int ~width n)
let input t name ~width = add t ~width (Input name)

let constant t s =
  match t.nodes.(s) with
  | Const v -> Some v
  | Input _ | Unop _ | Binop _ | Mux _ | Concat _ | Extract _ | Zext _
  | Sext _ | Reg _ | Mem_read _ -> None

let unop t op a =
  match constant t a with
  | Some v -> const t (apply_unop op v)
  | None ->
    let w = match op with U_reduce_or -> 1 | U_not | U_neg -> width t a in
    share t ~width:w (Unop (op, a))

let is_comparison = function
  | B_eq | B_ne | B_ult | B_ule | B_slt | B_sle -> true
  | B_add | B_sub | B_mul | B_udiv | B_urem | B_sdiv | B_srem | B_and | B_or
  | B_xor | B_shl | B_lshr | B_ashr -> false

(* Constants of unequal widths stay a node, as they do in Netcomp: Bitvec
   raises Width_mismatch on them (eq/ne compare them unequal).  A shift's
   amount may have any width. *)
let binop t op a b =
  match (constant t a, constant t b) with
  | Some x, Some y
    when Bitvec.width x = Bitvec.width y
         || (match op with B_shl | B_lshr | B_ashr -> true | _ -> false) ->
    const t (apply_binop op x y)
  | _ ->
    let w = if is_comparison op then 1 else width t a in
    share t ~width:w (Binop (op, a, b))

let mux t ~sel ~if_true ~if_false =
  if if_true = if_false then if_true
  else
    match constant t sel with
    | Some c -> if Bitvec.to_bool c then if_true else if_false
    | None -> share t ~width:(width t if_true) (Mux { sel; if_true; if_false })

let extract t ~hi ~lo arg =
  match constant t arg with
  | Some v -> const t (Bitvec.extract ~hi ~lo v)
  | None -> share t ~width:(hi - lo + 1) (Extract { hi; lo; arg })

let zext t ~width:w arg =
  match constant t arg with
  | Some v -> const t (Bitvec.zero_extend ~width:w v)
  | None -> share t ~width:w (Zext { width = w; arg })

let sext t ~width:w arg =
  match constant t arg with
  | Some v -> const t (Bitvec.sign_extend ~width:w v)
  | None -> share t ~width:w (Sext { width = w; arg })

(** Resize a signal to [width] following C conversion rules. *)
let resize t ~signed ~width:w s =
  let cur = width t s in
  if cur = w then s
  else if w < cur then extract t ~hi:(w - 1) ~lo:0 s
  else if signed then sext t ~width:w s
  else zext t ~width:w s

(* Registers are created in two steps so feedback loops can be built:
   [reg_forward] allocates the register with a dummy next, [reg_connect]
   patches in the real next-state signal. *)
let reg_forward t ~init =
  add t ~width:(Bitvec.width init) (Reg { init; next = -1; enable = None })

let reg_connect t r ~next ?enable () =
  match t.nodes.(r) with
  | Reg { init; _ } -> t.nodes.(r) <- Reg { init; next; enable }
  | Const _ | Input _ | Unop _ | Binop _ | Mux _ | Concat _ | Extract _
  | Zext _ | Sext _ | Mem_read _ ->
    invalid_arg "Netlist.reg_connect: not a register"

let add_mem t ~name ~word_width ~depth ?init () =
  let m =
    { mem_name = name; word_width; depth; write_port = None; init }
  in
  t.mems <- t.mems @ [ m ];
  List.length t.mems - 1

let mem_read t ~mem ~addr =
  let m = List.nth t.mems mem in
  add t ~width:m.word_width (Mem_read { mem; addr })

let mem_write t ~mem ~we ~addr ~data =
  let m = List.nth t.mems mem in
  (match m.write_port with
  | None -> ()
  | Some _ -> invalid_arg "Netlist.mem_write: write port already connected");
  m.write_port <- Some (we, addr, data)

let mems t = Array.of_list t.mems

let set_output t name s = t.outputs <- (name, s) :: t.outputs
let outputs t = List.rev t.outputs

let inputs t =
  let acc = ref [] in
  for s = t.count - 1 downto 0 do
    match t.nodes.(s) with
    | Input n -> acc := (n, s) :: !acc
    | Const _ | Unop _ | Binop _ | Mux _ | Concat _ | Extract _ | Zext _
    | Sext _ | Reg _ | Mem_read _ -> ()
  done;
  !acc

(** Combinational fan-in of a node (register nexts are sequential edges and
    are not included; use [sequential_deps] for those). *)
let comb_deps = function
  | Const _ | Input _ | Reg _ -> []
  | Unop (_, a) -> [ a ]
  | Binop (_, a, b) -> [ a; b ]
  | Mux { sel; if_true; if_false } -> [ sel; if_true; if_false ]
  | Concat { hi; lo } -> [ hi; lo ]
  | Extract { arg; _ } | Zext { arg; _ } | Sext { arg; _ } -> [ arg ]
  | Mem_read { addr; _ } -> [ addr ]

let sequential_deps = function
  | Reg { next; enable; _ } ->
    next :: (match enable with None -> [] | Some e -> [ e ])
  | Const _ | Input _ | Unop _ | Binop _ | Mux _ | Concat _ | Extract _
  | Zext _ | Sext _ | Mem_read _ -> []

(** Fanout index: for every signal, the combinational nodes that consume it
    (register next-states and memory write ports are sequential edges and are
    excluded).  Because builders only reference already-created signals, every
    user id is strictly greater than the signal id — the evaluator relies on
    this to process events in topological (= id) order.  The index is computed
    on first use and cached; it is transparently rebuilt if nodes have been
    added since (the cache is keyed on the node count). *)
let fanouts t =
  match t.fanout_cache with
  | Some f when Array.length f = t.count -> f
  | Some _ | None ->
    let counts = Array.make t.count 0 in
    for s = 0 to t.count - 1 do
      List.iter (fun d -> counts.(d) <- counts.(d) + 1) (comb_deps t.nodes.(s))
    done;
    let f = Array.init t.count (fun s -> Array.make counts.(s) 0) in
    let fill = Array.make t.count 0 in
    for s = 0 to t.count - 1 do
      List.iter
        (fun d ->
          f.(d).(fill.(d)) <- s;
          fill.(d) <- fill.(d) + 1)
        (comb_deps t.nodes.(s))
    done;
    t.fanout_cache <- Some f;
    f

let count_if t pred =
  let n = ref 0 in
  for s = 0 to t.count - 1 do
    if pred t.nodes.(s) then incr n
  done;
  !n

let num_registers t =
  count_if t (function
    | Reg _ -> true
    | Const _ | Input _ | Unop _ | Binop _ | Mux _ | Concat _ | Extract _
    | Zext _ | Sext _ | Mem_read _ -> false)

let string_of_unop = function
  | U_not -> "~" | U_neg -> "-" | U_reduce_or -> "|"

let string_of_binop = function
  | B_add -> "+" | B_sub -> "-" | B_mul -> "*"
  | B_udiv -> "u/" | B_urem -> "u%" | B_sdiv -> "/" | B_srem -> "%"
  | B_and -> "&" | B_or -> "|" | B_xor -> "^"
  | B_shl -> "<<" | B_lshr -> ">>" | B_ashr -> ">>>"
  | B_eq -> "==" | B_ne -> "!=" | B_ult -> "u<" | B_ule -> "u<="
  | B_slt -> "<" | B_sle -> "<="
