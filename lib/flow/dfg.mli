(** Asynchronous dataflow circuits in the style of CASH's Pegasus IR:
    SSA definitions become operator nodes, phis become merge (mu) nodes,
    branch predicates gate steer (eta) nodes; loop back edges circulate
    tokens.  This is the static structural view of the CASH backend; the
    timed token simulation lives in {!Asim}. *)

type node_kind =
  | N_op of string  (** operator mnemonic *)
  | N_const
  | N_param of string
  | N_merge  (** mu: phi at a join/loop header *)
  | N_steer  (** eta: value gated by a branch predicate *)
  | N_load of string
  | N_store of string
  | N_return

type node = {
  id : int;
  kind : node_kind;
  width : int;
  inputs : int list;  (** producer node ids *)
}

type t = { nodes : node array; ssa : Ssa.t }

val of_ssa : Ssa.t -> t

type stats = {
  operators : int;
  merges : int;
  steers : int;
  memory_ops : int;
  constants : int;
  total : int;
}

val stats : t -> stats

val area : t -> float
(** Operator area plus a per-node handshake adder — asynchronous
    circuits pay control logic at every node. *)
