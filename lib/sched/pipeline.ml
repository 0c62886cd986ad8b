(* Modulo scheduling (software/hardware pipelining) — experiment E2.

   The paper: "Pipelining works well on regular loops, e.g., in scientific
   computation, but is less effective in general.  Again, dependencies and
   control-flow transfers limit parallelism."

   We implement the standard machinery: extract an innermost loop whose
   body is straight-line (control flow inside the body makes the loop
   "irregular" and, absent if-conversion, unpipelineable); compute the
   recurrence-constrained minimum initiation interval RecMII from
   loop-carried dependence cycles, the resource-constrained ResMII from
   operator counts; then run iterative modulo scheduling, raising II until
   a legal schedule exists.  The pipeline latency model charges whole
   cycles per operation (no chaining): pipelining trades clock-period
   slack for throughput. *)

type latency_model = { of_instr : Cir.instr -> int }

(* Default per-operation latencies in cycles. *)
let default_latency =
  { of_instr =
      (fun instr ->
        match instr with
        | Cir.I_bin { op; _ } -> (
          match op with
          | Netlist.B_mul -> 3
          | Netlist.B_udiv | Netlist.B_urem | Netlist.B_sdiv
          | Netlist.B_srem -> 12
          | Netlist.B_add | Netlist.B_sub | Netlist.B_and | Netlist.B_or
          | Netlist.B_xor | Netlist.B_shl | Netlist.B_lshr | Netlist.B_ashr
          | Netlist.B_eq | Netlist.B_ne | Netlist.B_ult | Netlist.B_ule
          | Netlist.B_slt | Netlist.B_sle -> 1)
        | Cir.I_un _ | Cir.I_mux _ -> 1
        | Cir.I_mov _ | Cir.I_cast _ -> 0
        | Cir.I_load _ -> 2
        | Cir.I_store _ -> 1) }

type dep_edge = { from_i : int; to_i : int; latency : int; distance : int }

type loop_body = {
  instrs : Cir.instr array;
  edges : dep_edge list;
}

exception Irregular of string

(** Extract one iteration of the innermost loop of [func] as a straight-
    line instruction sequence with intra- and inter-iteration dependence
    edges.  Raises [Irregular] when the loop body branches internally. *)
let extract_loop (func : Cir.func) (latency : latency_model) : loop_body =
  let cfg = Cfg.build func in
  let loops = Cfg.natural_loops cfg in
  if loops = [] then raise (Irregular "no loop found");
  (* innermost = smallest body *)
  let loop =
    List.fold_left
      (fun best l ->
        if List.length l.Cfg.body < List.length best.Cfg.body then l else best)
      (List.hd loops) (List.tl loops)
  in
  (* The body must be a simple cycle header -> b1 -> ... -> latch -> header
     with branching only at the header (the exit test). *)
  let ordered =
    let rec walk acc b =
      if b = loop.Cfg.header && acc <> [] then List.rev acc
      else
        let blk = Cir.block func b in
        match blk.Cir.term with
        | Cir.T_jump next when List.mem next loop.Cfg.body ->
          walk (b :: acc) next
        | Cir.T_branch { if_true; if_false; _ }
          when b = loop.Cfg.header
               && (List.mem if_true loop.Cfg.body
                  || List.mem if_false loop.Cfg.body) ->
          let inside =
            if List.mem if_true loop.Cfg.body then if_true else if_false
          in
          walk (b :: acc) inside
        | Cir.T_jump _ | Cir.T_branch _ ->
          raise (Irregular "loop body contains internal control flow")
        | Cir.T_return _ -> raise (Irregular "loop body returns")
    in
    walk [] loop.Cfg.header
  in
  let instrs =
    List.concat_map (fun b -> (Cir.block func b).Cir.instrs) ordered
    |> Array.of_list
  in
  let n = Array.length instrs in
  (* Intra-iteration edges (distance 0).  Anti- and output dependences are
     dropped: modulo scheduling assumes modulo variable expansion /
     rotating registers, which renames them away — keeping them would
     thread false cycles through register reuse (pipelining *requires*
     renaming, one of the resources Wall's study varies too). *)
  let g = Dep.of_instrs_renamed (Array.to_list instrs) in
  let edges = ref [] in
  List.iter
    (fun (e : Dep.edge) ->
      (* movs/casts are wires: zero latency lets copies chain freely *)
      let lat = latency.of_instr instrs.(e.Dep.src) in
      edges := { from_i = e.Dep.src; to_i = e.Dep.dst; latency = lat;
                 distance = 0 } :: !edges)
    g.Dep.edges;
  (* loop-carried register edges: upward-exposed use fed by a later def *)
  let first_def = Hashtbl.create 32 and last_def = Hashtbl.create 32 in
  for i = 0 to n - 1 do
    match Cir.def_of instrs.(i) with
    | Some r ->
      if not (Hashtbl.mem first_def r) then Hashtbl.replace first_def r i;
      Hashtbl.replace last_def r i
    | None -> ()
  done;
  for i = 0 to n - 1 do
    List.iter
      (fun r ->
        let upward_exposed =
          match Hashtbl.find_opt first_def r with
          | Some d -> d >= i
          | None -> false
        in
        if upward_exposed then
          match Hashtbl.find_opt last_def r with
          | Some d ->
            edges :=
              { from_i = d; to_i = i;
                latency = latency.of_instr instrs.(d);
                distance = 1 }
              :: !edges
          | None -> ())
      (Cir.uses_of instrs.(i))
  done;
  (* loop-carried memory edges: store in one iteration orders with accesses
     of the same region in the next *)
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      match (Cir.memory_access instrs.(i), Cir.memory_access instrs.(j)) with
      | Some (ri, `Write), Some (rj, _) when ri = rj && j <= i ->
        edges :=
          { from_i = i; to_i = j; latency = max 1 (latency.of_instr instrs.(i));
            distance = 1 }
          :: !edges
      | _ -> ()
    done
  done;
  { instrs; edges = !edges }

(* Can every instruction be assigned a start time sigma with
   sigma(v) >= sigma(u) + latency - II*distance for every edge u->v?
   Standard longest-path feasibility (Bellman-Ford over the constraint
   graph); infeasible iff a positive cycle exists. *)
let feasible body ~ii =
  let n = Array.length body.instrs in
  if n = 0 then true
  else begin
    let dist = Array.make n 0 in
    let changed = ref true in
    let rounds = ref 0 in
    while !changed && !rounds <= n + 1 do
      changed := false;
      incr rounds;
      List.iter
        (fun e ->
          let bound = dist.(e.from_i) + e.latency - (ii * e.distance) in
          if bound > dist.(e.to_i) then begin
            dist.(e.to_i) <- bound;
            changed := true
          end)
        body.edges
    done;
    not !changed
  end

(** Recurrence-constrained minimum II (smallest II that satisfies all
    dependence cycles). *)
let rec_mii body =
  let rec search ii = if feasible body ~ii then ii else search (ii + 1) in
  search 1

(** Resource-constrained minimum II for a resource allocation. *)
let res_mii (resources : Schedule.resources) body =
  let counts = Hashtbl.create 8 in
  Array.iter
    (fun instr ->
      let cls = Schedule.class_of_instr instr in
      Hashtbl.replace counts cls
        (1 + Option.value (Hashtbl.find_opt counts cls) ~default:0))
    body.instrs;
  let mem_counts = Hashtbl.create 8 in
  Array.iter
    (fun instr ->
      match Cir.memory_access instr with
      | Some key ->
        Hashtbl.replace mem_counts key
          (1 + Option.value (Hashtbl.find_opt mem_counts key) ~default:0)
      | None -> ())
    body.instrs;
  let ceil_div a b = (a + b - 1) / b in
  let from_classes =
    Hashtbl.fold
      (fun cls count acc ->
        let cap = Schedule.capacity resources cls in
        if cap = max_int then acc else max acc (ceil_div count cap))
      counts 1
  in
  Hashtbl.fold
    (fun (_, dir) count acc ->
      let cap =
        match dir with
        | `Read -> max 1 resources.mem_read_ports
        | `Write -> max 1 resources.mem_write_ports
      in
      if cap = max_int then acc else max acc (ceil_div count cap))
    mem_counts from_classes

type result = {
  ii : int; (* achieved initiation interval *)
  rec_mii : int;
  res_mii : int;
  sequential_cycles : int; (* one iteration without pipelining *)
  schedule_length : int; (* depth of one iteration's schedule *)
  speedup : float; (* asymptotic: sequential_cycles / ii *)
  fallback : bool; (* II search diverged; this is the list schedule *)
}

(* II values above this are not pipelining in any useful sense (and the
   search is linear, so a huge ResMII — e.g. thousands of loads through
   one memory port — would scan thousands of IIs); give up and fall back
   to the sequential list schedule instead. *)
let ii_search_limit = 4096

(* How many loops fell back; lib/sched can't see Obs.Metrics, so bench
   E2 prints this counter as sched.modulo.fallbacks. *)
let fallbacks = Atomic.make 0
let fallback_count () = Atomic.get fallbacks

(** Iterative modulo scheduling: place operations at the smallest start
    times satisfying dependences, wrapping resource use modulo II; raise II
    on failure. *)
let modulo_schedule (func : Cir.func) : result =
  let resources = Schedule.default_allocation
  and latency = default_latency in
  let body = extract_loop func latency in
  let n = Array.length body.instrs in
  let rmii = rec_mii body in
  let smii = res_mii resources body in
  let preds = Array.make n [] in
  List.iter
    (fun e -> preds.(e.to_i) <- e :: preds.(e.to_i))
    body.edges;
  let try_ii ii =
    (* ASAP start times satisfying sigma(v) >= sigma(u)+lat-II*dist,
       then greedy modulo resource assignment scanning slots. *)
    let sigma = Array.make n 0 in
    let changed = ref true in
    let rounds = ref 0 in
    while !changed && !rounds <= n + 2 do
      changed := false;
      incr rounds;
      List.iter
        (fun e ->
          let bound = sigma.(e.from_i) + e.latency - (ii * e.distance) in
          if bound > sigma.(e.to_i) then begin
            sigma.(e.to_i) <- bound;
            changed := true
          end)
        body.edges
    done;
    if !changed then None (* positive cycle: II too small *)
    else begin
      (* resource table: class/mem usage per modulo slot *)
      let usage = Hashtbl.create 16 in
      let get key = Option.value (Hashtbl.find_opt usage key) ~default:0 in
      let ok = ref true in
      let order =
        List.sort
          (fun a b -> compare sigma.(a) sigma.(b))
          (List.init n Fun.id)
      in
      let final = Array.make n 0 in
      let placed = Array.make n false in
      List.iter
        (fun i ->
          let instr = body.instrs.(i) in
          let cls = Schedule.class_of_instr instr in
          let cap = Schedule.capacity resources cls in
          let mem = Cir.memory_access instr in
          let mem_cap =
            match mem with
            | Some (_, `Read) -> max 1 resources.mem_read_ports
            | Some (_, `Write) -> max 1 resources.mem_write_ports
            | None -> max_int
          in
          (* earliest start given already-placed predecessors *)
          let earliest =
            List.fold_left
              (fun acc e ->
                if placed.(e.from_i) then
                  max acc (final.(e.from_i) + e.latency - (ii * e.distance))
                else acc)
              sigma.(i) preds.(i)
          in
          let rec place t tries =
            if tries > ii then ok := false
            else begin
              let slot = ((t mod ii) + ii) mod ii in
              let class_ok = cap = max_int || get (`C (cls, slot)) < cap in
              let mem_ok =
                match mem with
                | None -> true
                | Some (region, dir) ->
                  get (`M (region, dir, slot)) < mem_cap
              in
              if class_ok && mem_ok then begin
                final.(i) <- t;
                placed.(i) <- true;
                if cap <> max_int then
                  Hashtbl.replace usage (`C (cls, slot)) (get (`C (cls, slot)) + 1);
                (match mem with
                | Some (region, dir) ->
                  Hashtbl.replace usage
                    (`M (region, dir, slot))
                    (get (`M (region, dir, slot)) + 1)
                | None -> ())
              end
              else place (t + 1) (tries + 1)
            end
          in
          place earliest 0)
        order;
      if !ok then Some final else None
    end
  in
  let rec search ii =
    if ii > ii_search_limit then None
    else
      match try_ii ii with
      | Some final -> Some (ii, final)
      | None -> search (ii + 1)
  in
  let start_ii = max rmii smii in
  (* sequential baseline: list schedule of one iteration, no chaining *)
  let seq =
    Array.to_list body.instrs
    |> List.fold_left (fun acc i -> acc + max 1 (latency.of_instr i)) 0
  in
  let seq_scheduled =
    (* with ILP inside the iteration but no overlap across iterations *)
    let sched =
      Schedule.list_schedule func
        { resources with Schedule.chain_budget = 0.1 }
        (Array.to_list body.instrs)
    in
    max sched.Schedule.num_steps 1
  in
  ignore seq;
  match search start_ii with
  | Some (ii, final) ->
    let schedule_length =
      Array.fold_left
        (fun acc i -> max acc i)
        0
        (Array.mapi (fun i t -> t + latency.of_instr body.instrs.(i)) final)
    in
    { ii;
      rec_mii = rmii;
      res_mii = smii;
      sequential_cycles = seq_scheduled;
      schedule_length;
      speedup = float_of_int seq_scheduled /. float_of_int ii;
      fallback = false }
  | None ->
    (* II diverged (this used to be a [failwith]): fall back to the
       unpipelined list schedule — initiating one iteration per
       sequential latency is always legal, just a 1.0x speedup *)
    Atomic.incr fallbacks;
    { ii = seq_scheduled;
      rec_mii = rmii;
      res_mii = smii;
      sequential_cycles = seq_scheduled;
      schedule_length = seq_scheduled;
      speedup = 1.0;
      fallback = true }
