(* CFG analyses over CIR: reverse postorder, predecessors, dominators
   (Cooper–Harvey–Kennedy), dominance frontiers and natural-loop
   detection.  Consumed by SSA construction and the loop-oriented
   schedulers. *)

type t = {
  func : Cir.func;
  preds : int list array;
  rpo : int array; (* blocks in reverse postorder *)
  rpo_index : int array; (* block -> position in rpo, -1 if unreachable *)
  idom : int array; (* immediate dominator; entry maps to itself *)
}

let compute_preds func =
  let n = Cir.num_blocks func in
  let preds = Array.make n [] in
  for b = 0 to n - 1 do
    List.iter
      (fun s -> preds.(s) <- b :: preds.(s))
      (Cir.successors (Cir.block func b))
  done;
  Array.map List.rev preds

let compute_rpo func =
  let n = Cir.num_blocks func in
  let visited = Array.make n false in
  let order = ref [] in
  let rec dfs b =
    if not visited.(b) then begin
      visited.(b) <- true;
      List.iter dfs (Cir.successors (Cir.block func b));
      order := b :: !order
    end
  in
  dfs func.Cir.fn_entry;
  Array.of_list !order

(* Cooper-Harvey-Kennedy iterative dominator algorithm. *)
let compute_idom func preds rpo rpo_index =
  let n = Cir.num_blocks func in
  let idom = Array.make n (-1) in
  let entry = func.Cir.fn_entry in
  idom.(entry) <- entry;
  let intersect a b =
    let a = ref a and b = ref b in
    while !a <> !b do
      while rpo_index.(!a) > rpo_index.(!b) do
        a := idom.(!a)
      done;
      while rpo_index.(!b) > rpo_index.(!a) do
        b := idom.(!b)
      done
    done;
    !a
  in
  let changed = ref true in
  while !changed do
    changed := false;
    Array.iter
      (fun b ->
        if b <> entry then begin
          let processed =
            List.filter (fun p -> idom.(p) <> -1) preds.(b)
          in
          match processed with
          | [] -> ()
          | first :: rest ->
            let new_idom = List.fold_left intersect first rest in
            if idom.(b) <> new_idom then begin
              idom.(b) <- new_idom;
              changed := true
            end
        end)
      rpo
  done;
  idom

let build func =
  let preds = compute_preds func in
  let rpo = compute_rpo func in
  let n = Cir.num_blocks func in
  let rpo_index = Array.make n (-1) in
  Array.iteri (fun i b -> rpo_index.(b) <- i) rpo;
  let idom = compute_idom func preds rpo rpo_index in
  { func; preds; rpo; rpo_index; idom }

let reachable t b = t.rpo_index.(b) >= 0

(** [dominates t a b]: does block [a] dominate block [b]? *)
let dominates t a b =
  let rec go x = if x = a then true else if x = t.idom.(x) then false else go t.idom.(x)
  in
  reachable t a && reachable t b && go b

(** Dominance frontier of each block.  The call is the entry's extra
    incoming edge, from a caller that dominates the entry: an entry block
    with a back edge is a join, in its own frontier and in that of every
    block on the way up from the latch. *)
let dominance_frontiers t =
  let n = Cir.num_blocks t.func in
  let entry = t.func.Cir.fn_entry in
  let caller = -1 in
  let idom b = if b = entry then caller else t.idom.(b) in
  let df = Array.make n [] in
  for b = 0 to n - 1 do
    let incoming = List.length t.preds.(b) + if b = entry then 1 else 0 in
    if reachable t b && incoming >= 2 then
      List.iter
        (fun p ->
          if reachable t p then begin
            let runner = ref p in
            while !runner <> idom b do
              if not (List.mem b df.(!runner)) then
                df.(!runner) <- b :: df.(!runner);
              runner := idom !runner
            done
          end)
        t.preds.(b)
  done;
  df

type natural_loop = {
  header : int;
  latch : int; (* source of the back edge *)
  body : int list; (* blocks in the loop, header included *)
}

(** Natural loops from back edges (latch -> header where header dominates
    latch). *)
let natural_loops t =
  let loops = ref [] in
  Array.iter
    (fun b ->
      List.iter
        (fun s ->
          if reachable t b && dominates t s b then begin
            (* back edge b -> s; collect the loop body *)
            let body = ref [ s ] in
            let rec add x =
              if not (List.mem x !body) then begin
                body := x :: !body;
                List.iter add t.preds.(x)
              end
            in
            add b;
            loops := { header = s; latch = b; body = !body } :: !loops
          end)
        (Cir.successors (Cir.block t.func b)))
    t.rpo;
  List.rev !loops
