(* HardwareC-style min/max timing constraints — experiment E7.

   The paper: "HardwareC supports timing constraints such as 'these three
   statements must execute in two cycles'.  While such constraints can be
   subtle for the designer and challenging for the compiler, they allow
   easier design-space exploration."

   A constraint covers a contiguous instruction range of one basic block
   (lowering enforces the straight-line shape) and demands that the range
   occupy between [min_cycles] and [max_cycles] control steps.  Checking a
   schedule against constraints is direct; satisfying a max constraint is
   done by re-scheduling with more resources / a larger chain budget, and
   min constraints by padding states — both exposed here so the HardwareC
   backend and the E7 exploration loop share them. *)

type t = {
  block : int;
  first : int; (* instruction index within the block *)
  last : int;
  min_cycles : int;
  max_cycles : int;
}

let of_lowering (constraints : (int * int * int * int * int) list) : t list =
  List.map
    (fun (block, first, last, min_cycles, max_cycles) ->
      { block; first; last; min_cycles; max_cycles })
    constraints

type status = {
  constraint_ : t;
  actual_cycles : int;
  satisfied : bool;
  slack : int; (* max_cycles - actual (negative = violated) *)
}

(** Number of control steps a schedule assigns to instructions
    [first..last] of the scheduled block. *)
let span (schedule : Schedule.schedule) ~first ~last =
  if last < first then 0
  else begin
    let lo = ref max_int and hi = ref min_int in
    for i = first to min last (Array.length schedule.Schedule.steps - 1) do
      let s = schedule.Schedule.steps.(i) in
      if s < !lo then lo := s;
      if s > !hi then hi := s
    done;
    if !hi < !lo then 0 else !hi - !lo + 1
  end

(** Check the constraints that apply to [block]'s schedule. *)
let check (constraints : t list) ~block (schedule : Schedule.schedule) :
    status list =
  List.filter_map
    (fun c ->
      if c.block <> block then None
      else begin
        let actual = span schedule ~first:c.first ~last:c.last in
        Some
          { constraint_ = c;
            actual_cycles = actual;
            satisfied = actual >= c.min_cycles && actual <= c.max_cycles;
            slack = c.max_cycles - actual }
      end)
    constraints

(** Search the resource lattice for the cheapest allocation whose schedule
    meets all max constraints of [instrs] (one block).  Returns the
    allocation, the schedule, and the exploration trail — the
    "design-space exploration" the paper credits constraints with
    enabling. *)
let explore (func : Cir.func) (constraints : t list) ~block
    (instrs : Cir.instr list) =
  let candidates =
    (* increasing cost: more functional units and looser chaining *)
    [ ("1 adder, 1 mul, chain 10",
       { Schedule.adders = Some 1; multipliers = Some 1; dividers = Some 1;
         shifters = Some 1; mem_read_ports = 1; mem_write_ports = 1;
         chain_budget = 10. });
      ("2 adders, 1 mul, chain 20",
       { Schedule.adders = Some 2; multipliers = Some 1; dividers = Some 1;
         shifters = Some 1; mem_read_ports = 1; mem_write_ports = 1;
         chain_budget = 20. });
      ("2 adders, 2 muls, chain 30",
       { Schedule.adders = Some 2; multipliers = Some 2; dividers = Some 1;
         shifters = Some 2; mem_read_ports = 2; mem_write_ports = 1;
         chain_budget = 30. });
      ("4 adders, 4 muls, chain 60",
       { Schedule.adders = Some 4; multipliers = Some 4; dividers = Some 2;
         shifters = Some 4; mem_read_ports = 2; mem_write_ports = 2;
         chain_budget = 60. });
      ("unconstrained, full chaining", Schedule.unconstrained) ]
  in
  let trail = ref [] in
  let found =
    List.find_opt
      (fun (label, resources) ->
        let schedule = Schedule.list_schedule func resources instrs in
        let statuses = check constraints ~block schedule in
        let ok =
          List.for_all
            (fun s -> s.actual_cycles <= s.constraint_.max_cycles)
            statuses
        in
        trail := (label, schedule.Schedule.num_steps, ok) :: !trail;
        ok)
      candidates
  in
  (found, List.rev !trail)
