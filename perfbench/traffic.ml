(* The benchmark's traffic: each workload as a generated list of serve
   requests, with every response's expected content computed here, on the
   benchmark's side, before anything is timed.

   Expected results come from the reference interpreter run in this
   process on this process's own parse of the kernel; expected typed
   rejections come from dialect legality.  Nothing here reads a daemon's
   [matches_reference] verdict, so an oracle that answers wrongly still
   shows up as a failed request. *)

type kernel = { w : Workloads.t; prog : Ast.program }

let kernels =
  lazy
    (List.map
       (fun (w : Workloads.t) ->
         { w; prog = Typecheck.parse_and_check w.Workloads.source })
       Workloads.all)

let kernel name =
  List.find (fun k -> k.w.Workloads.name = name) (Lazy.force kernels)

let legal k b = Dialect.check (Registry.dialect b) k.prog = []

let reference k args =
  match
    Interp.run k.prog ~entry:k.w.Workloads.entry
      ~args:(List.map (Bitvec.of_int ~width:64) args)
  with
  | { Interp.return_value = Some v; _ } -> Bitvec.to_int v
  | { Interp.return_value = None; _ } ->
    failwith (k.w.Workloads.name ^ ": entry returned void")

(* --- what a response must say --- *)

type expect =
  | Compiled of { backend : string; result : int; cached : string }
      (** [compile] with args: the design's result and the cache tier the
          workload's state forces ([miss], [store] or [front]) *)
  | Compared of { rows : (string * int list option) list }
      (** [compare]: per backend in request order, [Some results] when the
          dialect accepts the kernel, [None] when it must reject it *)

type request = {
  key : string;  (** distinct-key identity, for the fingerprint *)
  body : Metrics.json;  (** the request object, without its ["id"] *)
  tail : string;  (** [body] rendered, for splicing an id in front *)
  expect : expect;
}

let make_request ~key ~expect members =
  let body = Metrics.Obj members in
  { key; body; tail = Metrics.render_compact body; expect }

(* The wire payload of one send: the pre-rendered body with a fresh
   numeric id spliced in as its first member. *)
let payload r id =
  Printf.sprintf "{\"id\":%d,%s" id
    (String.sub r.tail 1 (String.length r.tail - 1))

let with_id r id =
  match r.body with
  | Metrics.Obj members -> Metrics.Obj (("id", Metrics.Int id) :: members)
  | other -> other

let ints l = Metrics.List (List.map (fun n -> Metrics.Int n) l)

let field name = function
  | Metrics.Obj members -> List.assoc_opt name members
  | _ -> None

let error_kind resp =
  match field "error" resp with
  | Some e -> (
    match field "kind" e with Some (Metrics.String k) -> k | _ -> "?")
  | None -> "?"

(* --- checking a response --- *)

let check expect resp =
  let is name v = field name resp = Some v in
  match expect with
  | Compiled { backend; result; cached } ->
    if not (is "ok" (Metrics.Bool true)) then
      Error ("typed error " ^ error_kind resp)
    else if not (is "backend" (Metrics.String backend)) then
      Error "wrong backend"
    else if not (is "status" (Metrics.String "ok")) then Error "not run"
    else if not (is "result" (Metrics.Int result)) then
      Error "result differs from the reference"
    else if not (is "matches_reference" (Metrics.Bool true)) then
      Error "daemon oracle disagrees"
    else if not (is "cached" (Metrics.String cached)) then
      Error "unexpected cache tier"
    else Ok ()
  | Compared { rows } -> (
    if not (is "ok" (Metrics.Bool true)) then
      Error ("typed error " ^ error_kind resp)
    else if not (is "mismatch" (Metrics.Bool false)) then
      Error "daemon reports a mismatch"
    else
      match field "backends" resp with
      | Some (Metrics.List got) when List.length got = List.length rows ->
        let row_ok (backend, want) row =
          field "backend" row = Some (Metrics.String backend)
          &&
          match want with
          | None -> field "status" row = Some (Metrics.String "dialect-reject")
          | Some results ->
            field "status" row = Some (Metrics.String "ok")
            && field "results" row = Some (ints results)
            && (results = [] || field "agrees" row = Some (Metrics.Bool true))
        in
        if List.for_all2 row_ok rows got then Ok ()
        else Error "a backend row differs from the reference"
      | _ -> Error "wrong number of backend rows")

(* --- the traffic fingerprint ---

   What a stretch of traffic did, read from its responses: how many
   requests and distinct keys, which cache tier answered, how many typed
   rejections, how many values were checked, and the simulated cycles
   the daemon reported.  Equal seeds must give equal fingerprints,
   whether the traffic went through a daemon or the in-process traced
   run. *)

type fingerprint = (string * int) list

let observe (reqs : request array) indices responses : fingerprint =
  let keys = Hashtbl.create 64 in
  let counts = Hashtbl.create 8 in
  let bump k n =
    Hashtbl.replace counts k
      (n + Option.value ~default:0 (Hashtbl.find_opt counts k))
  in
  List.iter2
    (fun i resp ->
      Hashtbl.replace keys reqs.(i).key ();
      bump "requests" 1;
      (match field "cached" resp with
      | Some (Metrics.String tier) -> bump ("cached." ^ tier) 1
      | _ -> ());
      (match field "cycles" resp with
      | Some (Metrics.Int c) -> bump "sim.cycles" c
      | _ -> ());
      (match field "result" resp with
      | Some (Metrics.Int _) -> bump "results" 1
      | _ -> ());
      match field "backends" resp with
      | Some (Metrics.List rows) ->
        List.iter
          (fun row ->
            (match field "status" row with
            | Some (Metrics.String "dialect-reject") -> bump "rejects" 1
            | _ -> ());
            match field "results" row with
            | Some (Metrics.List rs) -> bump "results" (List.length rs)
            | _ -> ())
          rows
      | _ -> ())
    indices responses;
  ("distinct_keys", Hashtbl.length keys)
  :: List.map
       (fun k -> (k, Option.value ~default:0 (Hashtbl.find_opt counts k)))
       [ "requests"; "cached.miss"; "cached.store"; "cached.front";
         "results"; "rejects"; "sim.cycles" ]

let expect_tier tier r =
  match r.expect with
  | Compiled c -> { r with expect = Compiled { c with cached = tier } }
  | Compared _ -> r

(* --- the workloads --- *)

type workload = {
  name : string;
  setup : request array;
      (** requests a fresh daemon answers before it counts as set up *)
  traffic : request array;
      (** the measured phase sends these in order, wrapping around when
          [cycle] is set *)
  cycle : bool;
  epoch : int option;
      (** measure in epochs of this many requests, a fresh daemon each *)
  fingerprint_len : int;
      (** the first this-many traffic requests are the fingerprint stretch
          (and the traced run's replay) *)
  store : [ `None | `Fresh | `Prewritten ];
      (** the daemon's [--cache-dir]: none, an empty one, or one that an
          earlier daemon filled by answering [setup] *)
  replay_store : [ `None | `Fresh | `Prewritten ];
      (** the same for the traced run's replay *)
  vectors : int;  (** argument vectors per request *)
}

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

(* each kernel's first argument vector and its reference result, shared
   by every compile request on that kernel *)
let first_vector =
  let memo = Hashtbl.create 32 in
  fun k ->
    match Hashtbl.find_opt memo k.w.Workloads.name with
    | Some r -> r
    | None ->
      let args = List.hd k.w.Workloads.arg_sets in
      let r = (args, reference k args) in
      Hashtbl.add memo k.w.Workloads.name r;
      r

let compile_request k b ?config ~cached () =
  let w = k.w in
  let args, result = first_vector k in
  let name = Registry.name b in
  make_request
    ~key:
      (Printf.sprintf "%s/%s/%s" w.Workloads.name name
         (match config with
         | Some c -> Metrics.render_compact c
         | None -> "default"))
    ~expect:(Compiled { backend = name; result; cached })
    ([ ("op", Metrics.String "compile");
       ("source", Metrics.String w.Workloads.source);
       ("entry", Metrics.String w.Workloads.entry);
       ("backend", Metrics.String name);
       ("args", ints args) ]
    @ match config with Some c -> [ ("config", c) ] | None -> [])

(* An explore-style grid: adder bound x chaining budget x unroll factor.
   160 points x 25 kernels x 10 compiling backends, about 32k legal keys:
   more than a run can send, so no key repeats. *)
let grid =
  let adders = Metrics.[ Int 1; Int 2; Int 3; Int 4; Null ]
  and chains = [ 5; 10; 15; 20; 30; 50; 100; 200 ]
  and unrolls = [ 1; 2; 3; 4 ] in
  List.concat_map
    (fun a ->
      List.concat_map
        (fun c ->
          List.map
            (fun u ->
              Metrics.Obj
                [ ("adders", a);
                  ("chain_budget", Metrics.Int c);
                  ("unroll", Metrics.Int u) ])
            unrolls)
        chains)
    adders

(* verify-batch requests per second of run to generate: about 1.6x what
   one worker domain reaches on a 2-core machine.  Each one costs four
   reference-interpreter runs up front; a faster daemon that exhausts
   them ends its measured phase early, and the run says so. *)
let verify_rate = 300

(* the verify-batch fingerprint stretch, in rounds over its kernels *)
let fingerprint_rounds = 10

(* Each cold-sweep epoch is a fresh daemon answering this many first
   compiles: about a second of work, and a bounded front tier.

   The end-to-end daemons run without a store: creating one small file
   per entry costs about 0.4 ms of kernel time on the 2-core VM this was
   tuned on, and that cost wandered enough between runs (throughput
   spread 0.17-0.4 over 8 runs) to swamp the compile path.  The traced
   replay attaches an empty store, so the write path still shows per
   layer.  Without a store every epoch's compiles are misses, so epochs
   wrap around a traffic of [cold_epochs] distinct epochs' worth of keys. *)
let cold_epoch = 1500
let cold_epochs = 8

let cold_sweep rng =
  let keys =
    List.concat_map
      (fun k ->
        List.concat_map
          (fun b ->
            if legal k b then List.map (fun c -> (k, b, c)) grid else [])
          (Registry.compiling ()))
      (Lazy.force kernels)
    |> Array.of_list
  in
  shuffle rng keys;
  let traffic =
    Array.map
      (fun (k, b, config) -> compile_request k b ~config ~cached:"miss" ())
      (Array.sub keys 0 (cold_epochs * cold_epoch))
  in
  { name = "cold-sweep"; setup = [||]; traffic; cycle = false;
    epoch = Some cold_epoch; fingerprint_len = 300; store = `None;
    replay_store = `Fresh; vectors = 1 }

(* Every legal (kernel, backend) pair at the default config is a key;
   each cycle sends every key twice, in a seeded order.  Seeds change the
   order, never the multiset, so every seed asks for the same work. *)
let warm_repeat rng =
  let pairs =
    List.concat_map
      (fun k ->
        List.filter_map
          (fun b -> if legal k b then Some (k, b) else None)
          (Registry.compiling ()))
      (Lazy.force kernels)
    |> Array.of_list
  in
  let setup =
    Array.map (fun (k, b) -> compile_request k b ~cached:"store" ()) pairs
  in
  shuffle rng setup;
  let warm =
    Array.map (fun (k, b) -> compile_request k b ~cached:"front" ()) pairs
  in
  let permuted () =
    let a = Array.copy warm in
    shuffle rng a;
    a
  in
  let traffic = Array.append (permuted ()) (permuted ()) in
  { name = "warm-repeat"; setup; traffic; cycle = true; epoch = None;
    fingerprint_len = Array.length traffic; store = `Prewritten;
    replay_store = `Prewritten; vectors = 1 }

(* Kernels whose arguments are data, not trip counts, each with a domain
   wide enough for thousands of distinct vectors and small enough that no
   simulation nears a timeout. *)
let verify_domains =
  [ ("gcd", [ (1, 100000); (1, 100000) ]);
    ("fir", [ (-30000, 30000); (-3000, 3000) ]);
    ("dotprod", [ (-30000, 30000); (-30000, 30000) ]);
    ("matmul", [ (-3000, 3000) ]);
    ("bsort", [ (-100000, 100000) ]);
    ("crc", [ (-1000000, 1000000) ]);
    ("popcount", [ (-1000000, 1000000) ]);
    ("checksum", [ (-100000, 100000) ]);
    ("histogram", [ (-100000, 100000) ]);
    ("isqrt_newton", [ (0, 1000000) ]);
    ("transpose", [ (-10000, 10000) ]);
    ("adpcm", [ (-3000, 3000); (-500, 500) ]);
    ("aes_sbox", [ (-100000, 100000) ]);
    ("iir", [ (-3000, 3000); (-300, 300) ]);
    ("insertion_sort", [ (-100000, 100000) ]);
    ("odd_even_sort", [ (-100000, 100000) ]);
    ("crc32", [ (-1000000, 1000000) ]);
    ("adler32", [ (-100000, 100000) ]);
    ("producer_consumer", [ (-100000, 100000) ]);
    ("pointer_sum", [ (-100000, 100000) ]);
    ("adler32_par", [ (-100000, 100000) ]);
    ("fir_ptr", [ (-30000, 30000); (-3000, 3000) ]) ]

let verify_vectors = 4

(* Every request compares one kernel across all compiling backends on
   [verify_vectors] vectors never sent before.  Kernels come in seeded
   rounds that visit each eligible kernel once, so every seed asks for
   the same mix. *)
let verify_batch ~seconds rng =
  let kernels = Array.of_list verify_domains in
  let backends = Registry.compiling () in
  let names =
    Metrics.List (List.map (fun b -> Metrics.String (Registry.name b)) backends)
  in
  let vector_key v = String.concat "," (List.map string_of_int v) in
  let compare k vectors =
    let w = k.w in
    let expected = List.map (reference k) vectors in
    make_request
      ~key:
        (w.Workloads.name ^ "/"
        ^ String.concat ";" (List.map vector_key vectors))
      ~expect:
        (Compared
           { rows =
               List.map
                 (fun b ->
                   (Registry.name b, if legal k b then Some expected else None))
                 backends })
      [ ("op", Metrics.String "compare");
        ("source", Metrics.String w.Workloads.source);
        ("entry", Metrics.String w.Workloads.entry);
        ("backends", names);
        ("args", Metrics.List (List.map ints vectors)) ]
  in
  let seen = Hashtbl.create 4096 in
  let rec fresh name domain =
    let v =
      List.map (fun (lo, hi) -> lo + Random.State.int rng (hi - lo + 1)) domain
    in
    if Hashtbl.mem seen (name, v) then fresh name domain
    else begin
      Hashtbl.add seen (name, v) ();
      v
    end
  in
  let setup = Array.map (fun (name, _) -> compare (kernel name) []) kernels in
  let per_round = Array.length kernels in
  let rounds = (fingerprint_rounds * per_round) + (seconds * verify_rate) in
  let round = Array.copy kernels in
  let traffic =
    Array.init (rounds / per_round * per_round) (fun i ->
        if i mod per_round = 0 then shuffle rng round;
        let name, domain = round.(i mod per_round) in
        compare (kernel name)
          (List.init verify_vectors (fun _ -> fresh name domain)))
  in
  { name = "verify-batch"; setup; traffic; cycle = false; epoch = None;
    fingerprint_len = fingerprint_rounds * per_round; store = `None;
    replay_store = `None; vectors = verify_vectors }

let names = [ "cold-sweep"; "warm-repeat"; "verify-batch" ]

(* Traffic is prefix-stable in [seconds]: the same seed gives the same
   first requests whatever the run length, so [seconds = 0] yields just
   the fingerprint stretch. *)
let generate ~name ~seed ~seconds =
  let rng = Random.State.make [| seed; Hashtbl.hash name |] in
  match name with
  | "cold-sweep" -> cold_sweep rng
  | "warm-repeat" -> warm_repeat rng
  | "verify-batch" -> verify_batch ~seconds rng
  | other -> invalid_arg ("unknown workload " ^ other)
