(* SystemC-style modeling kernel [Grötker et al., 2002].

   The paper: "The SystemC C++ library supports hardware and system
   modeling.  While most popular for modeling (it provides concurrency
   with lightweight threads), a subset of the language can be synthesized.
   Classes model hierarchical structures containing combinational and
   sequential processes" — "a system is a collection of clock-edge-
   triggered processes", with cycle boundaries denoted by wait() calls.

   This is that library with OCaml closures standing in for C++ methods: a
   discrete-event kernel with signals (current/next values with delta-
   cycle update), combinational processes (re-run until signals settle)
   and clocked processes (run once per rising edge).  The Verilog-like
   evaluation model — including the classic delta-cycle convergence — is
   the point: "Verilog in C++".

   [run_fsmd] models a scheduled FSMD as a process network whose clocked
   process runs Rtlsim's one-state step on Cir_interp's machine,
   demonstrating the synthesizable subset, and drives it to completion:
   SystemC designs' event-driven engine (Design, [--sim event]).  The
   backend wrapper lives in Systemc. *)

exception Unstable of string

type signal = {
  sig_name : string;
  width : int;
  mutable current : Bitvec.t;
  mutable next : Bitvec.t;
  mutable written : bool;
}

type process =
  | Combinational of { name : string; body : unit -> unit }
  | Clocked of { name : string; body : unit -> unit }

type kernel = {
  mutable signals : signal list;
  mutable processes : process list;
  mutable cycle : int;
  max_deltas : int;
}

let create ?(max_deltas = 64) () =
  { signals = []; processes = []; cycle = 0; max_deltas }

let signal kernel ~name ~width ?(init = 0) () =
  let s =
    { sig_name = name; width;
      current = Bitvec.of_int ~width init;
      next = Bitvec.of_int ~width init;
      written = false }
  in
  kernel.signals <- s :: kernel.signals;
  s

(** Read the settled value (SystemC's [sig.read()]). *)
let read s = s.current

let read_int s = Bitvec.to_int (read s)

(** Schedule a value for the next delta/clock update ([sig.write(v)]). *)
let write s v =
  s.next <- Bitvec.resize ~signed:false ~width:s.width v;
  s.written <- true

let write_int s v = write s (Bitvec.of_int ~width:s.width v)

let sc_method kernel ~name body =
  kernel.processes <- Combinational { name; body } :: kernel.processes

let sc_clocked kernel ~name body =
  kernel.processes <- Clocked { name; body } :: kernel.processes

(* Propagate written next-values into current; true if anything changed. *)
let delta_update kernel =
  List.fold_left
    (fun changed s ->
      if s.written && not (Bitvec.equal s.next s.current) then begin
        s.current <- s.next;
        s.written <- false;
        true
      end
      else begin
        s.written <- false;
        changed
      end)
    false kernel.signals

let settle kernel =
  let rec go deltas =
    if deltas > kernel.max_deltas then
      raise (Unstable "combinational processes did not converge");
    List.iter
      (fun p ->
        match p with
        | Combinational { body; _ } -> body ()
        | Clocked _ -> ())
      kernel.processes;
    if delta_update kernel then go (deltas + 1)
  in
  go 0

(** One rising clock edge: clocked processes fire on the settled values,
    then their writes commit, then combinational logic settles again. *)
let clock_tick kernel =
  settle kernel;
  List.iter
    (fun p ->
      match p with
      | Clocked { body; _ } -> body ()
      | Combinational _ -> ())
    kernel.processes;
  ignore (delta_update kernel);
  settle kernel;
  kernel.cycle <- kernel.cycle + 1

(** Run clock cycles until [stop] reads true; returns the cycle count. *)
let run_until kernel ~stop ~max_cycles =
  settle kernel;
  let rec go () =
    if Bitvec.to_bool (read stop) then Ok kernel.cycle
    else if kernel.cycle >= max_cycles then Error `Timeout
    else begin
      clock_tick kernel;
      go ()
    end
  in
  go ()

(* --- modeling a scheduled FSMD as a SystemC process network --- *)

(* Signals carry the FSM state and the done flag; the datapath state
   lives in the CIR machine's plain arrays, as an RTL model would keep its
   registers, so the outcome (globals, memories, visit counts, the
   per-cycle trace) reads off the same machine Rtlsim clocks.  A timeout
   carries the cycle count and current FSM state like the other
   simulators, so chlsc can exit 3 with a partial outcome. *)
let run_fsmd ?(max_cycles = Rtlsim.max_cycles) ?trace (fsmd : Fsmd.t) ~args :
    Rtlsim.outcome =
  let kernel = create () in
  let state =
    signal kernel ~name:"state"
      ~width:(max 1 (Area.log2_ceil (Fsmd.num_states fsmd + 1)))
      ~init:fsmd.Fsmd.entry ()
  in
  let done_sig = signal kernel ~name:"done" ~width:1 () in
  let m = Cir_interp.start fsmd.Fsmd.func ~args in
  let visited = Array.make (Fsmd.num_states fsmd) 0 in
  let return_value = ref None in
  (* the single clocked process: one FSMD state per rising edge, on the
     settled state signal *)
  sc_clocked kernel ~name:"fsmd" (fun () ->
      if not (Bitvec.to_bool (read done_sig)) then begin
        let s = Bitvec.to_int_unsigned (read state) in
        visited.(s) <- visited.(s) + 1;
        let stores, next = Rtlsim.step m fsmd s in
        Option.iter
          (fun tr ->
            tr.Rtlsim.on_cycle ~cycle:kernel.cycle ~state:s
              ~regs:m.Cir_interp.regs ~stores)
          trace;
        match next with
        | Rtlsim.Goto target -> write_int state target
        | Rtlsim.Halt v ->
          return_value := v;
          write_int done_sig 1
      end);
  match run_until kernel ~stop:done_sig ~max_cycles with
  | Ok cycles ->
    { Rtlsim.return_value = !return_value;
      cycles;
      globals = Cir_interp.globals m;
      memories = Cir_interp.memories m;
      states_visited = visited }
  | Error `Timeout ->
    raise
      (Rtlsim.Timeout
         { cycles = kernel.cycle; state = Bitvec.to_int_unsigned (read state) })
