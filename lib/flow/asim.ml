(* Timed token simulation of the asynchronous dataflow circuit.

   Executes the SSA form with *timestamps*: every value carries the time
   its token becomes available; an operator fires when all its input
   tokens (and its control token) have arrived, taking its latency plus a
   handshake overhead.  Control tokens model the mu/eta structure: a
   block's control token arrives when the branch steering into it
   resolved; a phi's output is available at max(incoming value, control
   token).  Memory is token-serialized per region (CASH's load-store
   token chains): a load cannot fire before the last store to that region
   completed, and a store waits for prior loads.

   There is no clock anywhere: completion time is the critical path of
   the *dynamic* computation, which is exactly the asynchronous-circuit
   advantage experiment E6 measures against the synchronous backends
   (whose every operation is quantized to a multiple of the clock).

   What each operator computes is Cir_interp's machine; this module adds
   only the token times, the phi merges and the per-region memory token
   order around its step. *)

type timing = {
  latency : Cir.instr -> float; (* pure computation delay, time units *)
  handshake : float; (* per-token request/acknowledge overhead *)
}

(* Latency in time units ~ gate delays, consistent with Area's delay model
   so sync and async compare on the same scale.  Operator latency depends
   on the operand width, which for register operands comes from the
   function's declared register widths — a 9-bit adder must not be charged
   a 32-bit ripple delay or E6's async-vs-sync comparison is skewed for
   narrow datapaths. *)
let default_timing_for ?(handshake = 2.) (func : Cir.func) =
  { latency =
      (fun instr ->
        match instr with
        | Cir.I_bin { op; a; _ } ->
          (Area.binop_cost op (Cir.operand_width func a)).Area.delay
        | Cir.I_un { op; a; _ } ->
          (Area.unop_cost op (Cir.operand_width func a)).Area.delay
        | Cir.I_mux _ -> 2.
        | Cir.I_mov _ | Cir.I_cast _ -> 0.
        | Cir.I_load _ -> 6.
        | Cir.I_store _ -> 3.);
    handshake }

type outcome = {
  return_value : Bitvec.t option;
  completion_time : float;
  tokens_fired : int;
  globals : (string * Bitvec.t) list;
  memories : (string * Bitvec.t array) list;
}

exception Timeout of { tokens_fired : int; time : float }

(* One instruction with its latency and the registers it reads, so a
   firing neither recomputes the cost model nor allocates its uses. *)
type fired = { instr : Cir.instr; latency : float; uses : Cir.reg array }

type plan = { ssa : Ssa.t; handshake : float; blocks : fired array array }

let plan ?timing (ssa : Ssa.t) =
  let func = ssa.Ssa.func in
  let timing =
    match timing with Some t -> t | None -> default_timing_for func
  in
  { ssa;
    handshake = timing.handshake;
    blocks =
      Array.map
        (fun (blk : Cir.block) ->
          Array.of_list
            (List.map
               (fun instr ->
                 { instr;
                   latency = timing.latency instr;
                   uses = Array.of_list (Cir.uses_of instr) })
               blk.Cir.instrs))
        func.Cir.fn_blocks }

(** Execute a planned dataflow circuit with timed tokens. *)
let run_plan ?(max_tokens = 10_000_000) ?on_fire plan ~args : outcome =
  let ssa = plan.ssa and handshake = plan.handshake in
  let func = ssa.Ssa.func in
  let m = Cir_interp.start func ~args in
  let regs = m.Cir_interp.regs in
  let reg_time = Array.make func.Cir.fn_reg_count 0. in
  let regions = Array.length func.Cir.fn_regions in
  let mem_store_time = Array.make regions 0. in
  let mem_load_time = Array.make regions 0. in
  let time_of = function
    | Cir.O_imm _ -> 0.
    | Cir.O_reg r -> reg_time.(r)
  in
  let fired = ref 0 in
  let now = ref 0. in
  let fire () =
    incr fired;
    if !fired > max_tokens then
      raise (Timeout { tokens_fired = !fired - 1; time = !now })
  in
  (* Observation only: report a token's (completion time, register, value)
     after it is committed.  Firing order follows execution, not time —
     Obs.Trace sorts by timestamp before writing a waveform. *)
  let observe t dst v =
    if t > !now then now := t;
    match on_fire with
    | None -> ()
    | Some f -> f ~time:t ~reg:(dst : Cir.reg) ~value:(v : Bitvec.t)
  in
  let define t dst =
    reg_time.(dst) <- t;
    observe t dst regs.(dst)
  in
  let rec run_block ~came_from ~control b =
    (* phis: merge (mu) nodes fire at max(value token, control token) *)
    let phi_updates =
      List.map
        (fun (phi : Ssa.phi) ->
          match List.assoc_opt came_from phi.Ssa.p_srcs with
          | Some src ->
            (phi.Ssa.p_dst, Cir_interp.value m src,
             Float.max control (time_of src) +. handshake)
          | None -> (phi.Ssa.p_dst, Bitvec.zero phi.Ssa.p_width, control))
        ssa.Ssa.phis.(b)
    in
    List.iter
      (fun (dst, v, t) ->
        fire ();
        regs.(dst) <- v;
        reg_time.(dst) <- t;
        observe t dst v)
      phi_updates;
    Array.iter
      (fun { instr; latency; uses } ->
        fire ();
        let input_time =
          Array.fold_left
            (fun acc r -> Float.max acc reg_time.(r))
            control uses
        in
        (* memory tokens: a load waits for the region's last store, a
           store for its last load and store *)
        let start =
          match instr with
          | Cir.I_load { region; _ } ->
            Float.max input_time mem_store_time.(region)
          | Cir.I_store { region; _ } ->
            Float.max input_time
              (Float.max mem_store_time.(region) mem_load_time.(region))
          | Cir.I_bin _ | Cir.I_un _ | Cir.I_mov _ | Cir.I_cast _
          | Cir.I_mux _ -> input_time
        in
        let finish = start +. latency +. handshake in
        Cir_interp.step m instr;
        match instr with
        | Cir.I_load { dst; region; _ } ->
          mem_load_time.(region) <- Float.max mem_load_time.(region) finish;
          define finish dst
        | Cir.I_store { region; _ } ->
          mem_store_time.(region) <- finish;
          if finish > !now then now := finish
        | Cir.I_bin { dst; _ } | Cir.I_un { dst; _ } | Cir.I_mov { dst; _ }
        | Cir.I_cast { dst; _ } | Cir.I_mux { dst; _ } -> define finish dst)
      plan.blocks.(b);
    match (Cir.block func b).Cir.term with
    | Cir.T_jump next -> run_block ~came_from:b ~control next
    | Cir.T_branch { cond; if_true; if_false } ->
      (* eta/steer: successors' control tokens wait for the predicate *)
      fire ();
      let resolve = Float.max control (time_of cond) +. handshake in
      if Bitvec.to_bool (Cir_interp.value m cond) then
        run_block ~came_from:b ~control:resolve if_true
      else run_block ~came_from:b ~control:resolve if_false
    | Cir.T_return v ->
      let t =
        match v with
        | Some op -> Float.max control (time_of op) +. handshake
        | None -> control
      in
      (Option.map (Cir_interp.value m) v, t)
  in
  let return_value, completion_time =
    run_block ~came_from:(-1) ~control:0. func.Cir.fn_entry
  in
  { return_value;
    completion_time;
    tokens_fired = !fired;
    globals = Cir_interp.globals m;
    memories = Cir_interp.memories m }

(** Execute the dataflow circuit of [ssa] with timed tokens. *)
let run ?timing ?max_tokens ?on_fire ssa ~args =
  run_plan ?max_tokens ?on_fire (plan ?timing ssa) ~args
