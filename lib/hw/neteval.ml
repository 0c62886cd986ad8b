(* Netlist evaluator: combinational settling plus a cycle-accurate
   sequential stepper.

   Nodes are created in topological order with respect to combinational
   dependencies (the builder API guarantees this; only register next-state
   and memory write ports may point forward), so one in-order pass settles
   all combinational values.  Registers and memories update between cycles
   with read-before-write semantics.

   Two settling strategies share the same node semantics:

   - [Full_sweep] re-evaluates every node in id order on every settle.
     This is the original evaluator and serves as the differential-testing
     oracle.

   - [Event_driven] (the default) keeps a dirty worklist seeded by changed
     primary inputs and by register/memory updates at each [tick], and
     re-evaluates a node only when one of its inputs actually changed.
     Events are drained in increasing id order (a min-heap), which is a
     topological order because fanout edges always point forward; each
     dirty node is therefore evaluated at most once per settle, with its
     final input values.  The first settle is always a full sweep to
     establish a consistent baseline.

   Both strategies maintain performance counters (nodes evaluated, change
   events propagated, cycles, wall time) so the activity advantage of the
   event-driven loop is measurable (see bench/neteval_bench.ml). *)

type strategy = Full_sweep | Event_driven

type probe = { on_value : cycle:int -> Netlist.signal -> Bitvec.t -> unit }

type stats = {
  mutable cycles : int; (* clock edges ([tick]s) taken *)
  mutable settles : int; (* settle passes (full or incremental) *)
  mutable nodes_evaluated : int; (* node evaluations across all settles *)
  mutable events : int; (* evaluations whose value actually changed *)
  mutable wall_time : float; (* seconds inside [run_until_done] *)
}

(* A tiny binary min-heap of signal ids.  The [dirty] flags in the
   evaluator guarantee no duplicates are ever pushed. *)
module Heap = struct
  type t = { mutable a : int array; mutable n : int }

  let create () = { a = Array.make 64 0; n = 0 }
  let clear h = h.n <- 0
  let is_empty h = h.n = 0

  let push h x =
    if h.n = Array.length h.a then begin
      let a = Array.make (2 * h.n) 0 in
      Array.blit h.a 0 a 0 h.n;
      h.a <- a
    end;
    let i = ref h.n in
    h.n <- h.n + 1;
    h.a.(!i) <- x;
    while !i > 0 && h.a.((!i - 1) / 2) > h.a.(!i) do
      let p = (!i - 1) / 2 in
      let tmp = h.a.(p) in
      h.a.(p) <- h.a.(!i);
      h.a.(!i) <- tmp;
      i := p
    done

  let pop_min h =
    let top = h.a.(0) in
    h.n <- h.n - 1;
    h.a.(0) <- h.a.(h.n);
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
      let smallest = ref !i in
      if l < h.n && h.a.(l) < h.a.(!smallest) then smallest := l;
      if r < h.n && h.a.(r) < h.a.(!smallest) then smallest := r;
      if !smallest = !i then continue := false
      else begin
        let tmp = h.a.(!smallest) in
        h.a.(!smallest) <- h.a.(!i);
        h.a.(!i) <- tmp;
        i := !smallest
      end
    done;
    top
end

type t = {
  netlist : Netlist.t;
  strategy : strategy;
  values : Bitvec.t array;
  input_vals : Bitvec.t array; (* resolved value per Input node id *)
  input_nodes : (int * string) array; (* Input node id, port name *)
  reg_state : Bitvec.t array; (* per Reg node id, current state *)
  mem_state : Bitvec.t array array; (* per memory, current contents *)
  fanouts : int array array; (* signal id -> combinational users *)
  mem_readers : int array array; (* mem index -> Mem_read node ids *)
  dirty : bool array;
  heap : Heap.t;
  mutable primed : bool; (* first full sweep done *)
  mutable cycle : int;
  stats : stats;
  eval_counts : int array; (* per-signal evaluation count (profiling) *)
  mutable probe : probe option; (* observation hook: fired on value commits *)
}

(* Back to the state [create] gives: registers at their initial values,
   memories at their images, inputs and values at zero, no settle yet. *)
let reset t =
  Array.fill t.values 0 (Array.length t.values) (Bitvec.zero 1);
  for s = 0 to Netlist.length t.netlist - 1 do
    match Netlist.node t.netlist s with
    | Reg { init; _ } -> t.reg_state.(s) <- init
    | Input _ -> t.input_vals.(s) <- Bitvec.zero (Netlist.width t.netlist s)
    | Const _ | Unop _ | Binop _ | Mux _ | Concat _ | Extract _ | Zext _
    | Sext _ | Mem_read _ -> ()
  done;
  Array.iteri
    (fun i (m : Netlist.mem) ->
      match m.init with
      | Some a -> Array.blit a 0 t.mem_state.(i) 0 m.depth
      | None -> Array.fill t.mem_state.(i) 0 m.depth (Bitvec.zero m.word_width))
    (Netlist.mems t.netlist);
  Array.fill t.dirty 0 (Array.length t.dirty) false;
  Heap.clear t.heap;
  t.primed <- false;
  t.cycle <- 0;
  t.stats.cycles <- 0;
  t.stats.settles <- 0;
  t.stats.nodes_evaluated <- 0;
  t.stats.events <- 0;
  t.stats.wall_time <- 0.;
  Array.fill t.eval_counts 0 (Array.length t.eval_counts) 0;
  t.probe <- None

let create ?(strategy = Event_driven) netlist =
  let n = Netlist.length netlist in
  let input_nodes = ref [] in
  let nmems = Array.length (Netlist.mems netlist) in
  let mem_readers = Array.make (max nmems 1) [] in
  for s = n - 1 downto 0 do
    match Netlist.node netlist s with
    | Input name -> input_nodes := (s, name) :: !input_nodes
    | Mem_read { mem; _ } -> mem_readers.(mem) <- s :: mem_readers.(mem)
    | Const _ | Unop _ | Binop _ | Mux _ | Concat _ | Extract _ | Zext _
    | Sext _ | Reg _ -> ()
  done;
  let mem_state =
    Array.map
      (fun (m : Netlist.mem) ->
        (match m.init with
        | Some a when Array.length a <> m.depth ->
          invalid_arg "Neteval: memory init size mismatch"
        | Some _ | None -> ());
        Array.make m.depth (Bitvec.zero m.word_width))
      (Netlist.mems netlist)
  in
  let t =
    { netlist;
      strategy;
      values = Array.make (max n 1) (Bitvec.zero 1);
      input_vals = Array.make (max n 1) (Bitvec.zero 1);
      input_nodes = Array.of_list !input_nodes;
      reg_state = Array.make (max n 1) (Bitvec.zero 1);
      mem_state;
      fanouts = Netlist.fanouts netlist;
      mem_readers = Array.map (fun l -> Array.of_list l) mem_readers;
      dirty = Array.make (max n 1) false;
      heap = Heap.create ();
      primed = false;
      cycle = 0;
      stats =
        { cycles = 0; settles = 0; nodes_evaluated = 0; events = 0;
          wall_time = 0. };
      eval_counts = Array.make (max n 1) 0;
      probe = None }
  in
  reset t;
  t

let set_probe t probe = t.probe <- Some probe

(* Observation only: fired after a value commit, never able to change it. *)
let notify t s v =
  match t.probe with
  | None -> ()
  | Some p -> p.on_value ~cycle:t.cycle s v

let eval_node t s =
  match Netlist.node t.netlist s with
  | Const bv -> bv
  | Input _ -> t.input_vals.(s)
  | Unop (op, a) -> Netlist.apply_unop op t.values.(a)
  | Binop (op, a, b) -> Netlist.apply_binop op t.values.(a) t.values.(b)
  | Mux { sel; if_true; if_false } ->
    if Bitvec.to_bool t.values.(sel) then t.values.(if_true)
    else t.values.(if_false)
  | Concat { hi; lo } -> Bitvec.concat t.values.(hi) t.values.(lo)
  | Extract { hi; lo; arg } -> Bitvec.extract ~hi ~lo t.values.(arg)
  | Zext { width; arg } -> Bitvec.zero_extend ~width t.values.(arg)
  | Sext { width; arg } -> Bitvec.sign_extend ~width t.values.(arg)
  | Reg _ -> t.reg_state.(s)
  | Mem_read { mem; addr } ->
    let contents = t.mem_state.(mem) in
    let a = Bitvec.to_int_unsigned t.values.(addr) in
    if a < Array.length contents then contents.(a)
    else Bitvec.zero (Netlist.width t.netlist s)

let mark_dirty t s =
  if not t.dirty.(s) then begin
    t.dirty.(s) <- true;
    Heap.push t.heap s
  end

(** Resolve the input assoc list once: update the per-node resolved values
    and mark the Input nodes whose value actually changed as dirty.  Missing
    inputs read as zero. *)
let set_inputs t inputs =
  Array.iter
    (fun (s, name) ->
      let w = Netlist.width t.netlist s in
      let v =
        match List.assoc_opt name inputs with
        | Some bv -> Bitvec.resize ~signed:false ~width:w bv
        | None -> Bitvec.zero w
      in
      if not (Bitvec.equal v t.input_vals.(s)) then begin
        t.input_vals.(s) <- v;
        mark_dirty t s
      end)
    t.input_nodes

let full_sweep t =
  let n = Netlist.length t.netlist in
  for s = 0 to n - 1 do
    let v = eval_node t s in
    t.eval_counts.(s) <- t.eval_counts.(s) + 1;
    if not (Bitvec.equal v t.values.(s)) then begin
      t.values.(s) <- v;
      t.stats.events <- t.stats.events + 1;
      notify t s v
    end
  done;
  t.stats.nodes_evaluated <- t.stats.nodes_evaluated + n;
  Heap.clear t.heap;
  Array.fill t.dirty 0 (Array.length t.dirty) false;
  t.primed <- true

let drain_events t =
  while not (Heap.is_empty t.heap) do
    let s = Heap.pop_min t.heap in
    t.dirty.(s) <- false;
    let v = eval_node t s in
    t.stats.nodes_evaluated <- t.stats.nodes_evaluated + 1;
    t.eval_counts.(s) <- t.eval_counts.(s) + 1;
    if not (Bitvec.equal v t.values.(s)) then begin
      t.values.(s) <- v;
      t.stats.events <- t.stats.events + 1;
      notify t s v;
      Array.iter (fun u -> mark_dirty t u) t.fanouts.(s)
    end
  done

(* Settle with inputs already resolved by [set_inputs]. *)
let settle_resolved t =
  t.stats.settles <- t.stats.settles + 1;
  match t.strategy with
  | Full_sweep -> full_sweep t
  | Event_driven -> if t.primed then drain_events t else full_sweep t

let settle t ~inputs =
  set_inputs t inputs;
  settle_resolved t

let value t s = t.values.(s)

let output_signal t name =
  match List.assoc_opt name (Netlist.outputs t.netlist) with
  | Some s -> s
  | None ->
    invalid_arg
      (Printf.sprintf
         "Neteval.output: netlist %S has no output %S (outputs: %s)"
         (Netlist.name t.netlist) name
         (match Netlist.outputs t.netlist with
         | [] -> "<none>"
         | outs -> String.concat ", " (List.map fst outs)))

let output t name = value t (output_signal t name)
let stats t = t.stats
let eval_counts t = Array.copy t.eval_counts

(** Advance state: clock edge after a [settle].  Register and memory
    updates that change stored state mark their users dirty so the next
    event-driven settle re-evaluates exactly the affected cone. *)
let tick t =
  let nl = t.netlist in
  let updates = ref [] in
  for s = 0 to Netlist.length nl - 1 do
    match Netlist.node nl s with
    | Reg { next; enable; _ } ->
      let enabled =
        match enable with
        | None -> true
        | Some e -> Bitvec.to_bool t.values.(e)
      in
      if enabled && next >= 0 then updates := (s, t.values.(next)) :: !updates
    | Const _ | Input _ | Unop _ | Binop _ | Mux _ | Concat _ | Extract _
    | Zext _ | Sext _ | Mem_read _ -> ()
  done;
  List.iter
    (fun (s, v) ->
      if not (Bitvec.equal v t.reg_state.(s)) then begin
        t.reg_state.(s) <- v;
        mark_dirty t s
      end)
    !updates;
  Array.iteri
    (fun i (m : Netlist.mem) ->
      match m.write_port with
      | None -> ()
      | Some (we, addr, data) ->
        if Bitvec.to_bool t.values.(we) then begin
          let a = Bitvec.to_int_unsigned t.values.(addr) in
          if a < m.depth then begin
            let v = t.values.(data) in
            if not (Bitvec.equal v t.mem_state.(i).(a)) then begin
              t.mem_state.(i).(a) <- v;
              (* conservative: wake every reader of this memory; the read
                 that hits the written word changes value, the others settle
                 back without propagating further *)
              Array.iter (fun s -> mark_dirty t s) t.mem_readers.(i)
            end
          end
        end)
    (Netlist.mems t.netlist);
  t.cycle <- t.cycle + 1;
  t.stats.cycles <- t.cycle

(** Evaluate a purely combinational netlist once; also returns the
    evaluator counters for that settle. *)
let eval_combinational netlist ~inputs =
  let t = create netlist in
  settle t ~inputs;
  ( List.map (fun (name, s) -> (name, t.values.(s))) (Netlist.outputs netlist),
    t.stats )

(** Clock an existing evaluator until the 1-bit output [done_name] is set
    or [max_cycles] elapse; returns outputs and the cycle count.  The
    [done] output and the primary inputs are resolved to signal ids once,
    before the polling loop.  Exposed separately from [run_until_done] so
    callers that need the evaluator afterwards (probes, per-node
    evaluation counts) can create and keep their own instance. *)
let drive t ~inputs ~done_name ~max_cycles =
  let done_sig = output_signal t done_name in
  set_inputs t inputs;
  let t0 = Sys.time () in
  let rec go () =
    settle_resolved t;
    if Bitvec.to_bool t.values.(done_sig) then
      Ok
        ( List.map
            (fun (n, s) -> (n, t.values.(s)))
            (Netlist.outputs t.netlist),
          t.cycle )
    else if t.cycle >= max_cycles then Error `Timeout
    else begin
      tick t;
      go ()
    end
  in
  let r = go () in
  t.stats.wall_time <- t.stats.wall_time +. (Sys.time () -. t0);
  r

(** Run a sequential netlist until the 1-bit output [done_name] is set or
    [max_cycles] elapse; returns outputs, the cycle count and the
    counters. *)
let run_until_done ?strategy netlist ~inputs ~done_name ~max_cycles =
  let t = create ?strategy netlist in
  match drive t ~inputs ~done_name ~max_cycles with
  | Ok (outputs, cycles) -> Ok (outputs, cycles, t.stats)
  | Error `Timeout -> Error `Timeout
