(* The dialect-matrix differential fuzzing driver.

   Fuzzgen (lib/analysis) builds dialect-gated random programs; this
   module points the whole oracle machinery at them: the reference
   interpreter and every C-compiling backend through one parse-once
   Driver session per program (typed dialect rejections are *expected*
   matrix cells, not failures), the static concurrency checker,
   optional differential pass verification and compiled-vs-event-driven
   simulation.  Any disagreement is classified, shrunk to a local
   minimum with Fuzzgen's reducer (the keep predicate re-runs only the
   diverging layer), and returned as a reproducer the caller can pin as
   a regression test. *)

let entry = "f"

(* two fixed vectors: one benign, one negative-heavy to stress signed
   division/shift paths *)
let default_arg_sets = [ [ 3; 5 ]; [ -7; 11 ] ]

type divergence = {
  div_dialect : string;  (* generating dialect's Table-1 name *)
  div_backend : string;  (* diverging backend, or "reference"/"checker" *)
  div_class : string;  (* stable failure class used for shrinking *)
  div_detail : string;
  div_index : int;  (* generation index under the seed *)
  div_args : int list;
  div_source : string;  (* the program as generated *)
  div_shrunk : string;  (* minimal [keep]-preserving reproducer *)
}

type report = {
  rep_dialect : string;
  rep_backend : string;  (* the dialect's own backend *)
  rep_generated : int;
  rep_compiled : int;  (* successful backend compiles *)
  rep_rejected : int;  (* typed dialect rejections (expected) *)
  rep_agreed : int;  (* runs matching the reference result *)
  rep_divergences : divergence list;
  rep_constructs : (string * int) list;  (* summed construct census *)
  rep_wall_ms : float;
}

(* --- per-layer classification ----------------------------------------- *)

type outcome =
  | Agree
  | Rejected
  | Skipped
  | Fail of { cls : string; detail : string }

let exn_class exn =
  let s = Printexc.to_string exn in
  match String.index_opt s '(' with
  | Some i -> String.trim (String.sub s 0 i)
  | None -> s

(* One backend on one argument vector.  [expected] is the reference
   interpreter's value on the same vector.  [config] carries the
   per-compile pass options (verify vectors when --verify-passes) — no
   global state, so parallel fuzz/serve work cannot bleed options. *)
let classify_backend ?(config = Config.default) session backend ~args
    ~expected ~verify_sim : outcome =
  match Driver.compile ~config session backend with
  | Error (Driver.Dialect_reject _) -> Rejected
  | Error (Driver.No_c_frontend _) -> Skipped
  | Error e ->
    Fail { cls = Driver.error_kind e; detail = Driver.render_error e }
  | Ok design -> (
    match Driver.judge design ~args ~oracle:(Ok expected) with
    | exception exn ->
      Fail { cls = "run-error:" ^ exn_class exn;
             detail = Printexc.to_string exn }
    | { Driver.run = Error stop; _ } ->
      Fail { cls = "stopped:" ^ Design.stop_reason_name stop.Design.reason;
             detail = Design.render_stop stop }
    | { Driver.agrees = false; _ } as v ->
      Fail
        { cls = "mismatch";
          detail =
            Printf.sprintf "returned %s, reference says %d"
              (match Driver.observed v with
              | Some n -> string_of_int n
              | None -> "void")
              expected }
    | { Driver.agrees = true; _ } when verify_sim -> (
      match Driver.engine_mismatches design ~args with
      | None | Some [] -> Agree
      | Some surfaces ->
        Fail
          { cls = "sim-divergence";
            detail =
              "compiled and event-driven engines differ in "
              ^ String.concat ", " surfaces }
      | exception exn ->
        Fail { cls = "sim-error:" ^ exn_class exn;
               detail = Printexc.to_string exn })
    | { Driver.agrees = true; _ } -> Agree)

(* --- shrinking --------------------------------------------------------- *)

let source_of prog = Pretty.program_to_string prog

(* The keep predicate re-runs only the diverging layer and demands the
   same failure class — candidates that fail differently (or stop
   failing, or stop typechecking) are rejected. *)
let same_failure ~config ~backend ~args ~cls ~verify_sim prog =
  let session = Driver.create ~entry (source_of prog) in
  match (backend, Driver.reference session ~args) with
  | None, Error e ->
    (* reference-layer failure (runtime error, deadlock, timeout...); a
       candidate that stops typechecking fails as [frontend-error] *)
    Driver.error_kind e = cls
  | None, Ok _ -> false
  | Some _, Error _ -> false (* must keep the oracle healthy *)
  | Some b, Ok expected -> (
    match classify_backend ~config session b ~args ~expected ~verify_sim with
    | Fail { cls = c; _ } -> c = cls
    | Agree | Rejected | Skipped -> false)

let shrink_divergence ~config ~backend ~args ~cls ~verify_sim prog =
  Fuzzgen.shrink
    ~keep:(same_failure ~config ~backend ~args ~cls ~verify_sim)
    prog

(* --- the sweep --------------------------------------------------------- *)

let add_counts acc counts =
  List.map2
    (fun (k, a) (k', b) ->
      assert (k = k');
      (k, a + b))
    acc counts

let zero_counts = List.map (fun k -> (k, 0)) Fuzzgen.construct_keys

(* Fuzz [n] programs generated for [dialect] with [seed], running every
   backend in [backends] (default: all with a C frontend) against the
   reference on every argument vector. *)
let run_dialect ?(arg_sets = default_arg_sets) ?backends
    ?(verify_passes = false) ?(verify_sim = false) (dialect : Dialect.t)
    ~seed ~n : report =
  let t0 = Sys.time () in
  let backends =
    match backends with Some bs -> bs | None -> Registry.compiling ()
  in
  (* the config carries per-compile pass verification, so a concurrent
     sweep on another domain keeps its own options *)
  let config =
    if verify_passes then { Config.default with Config.verify = arg_sets }
    else Config.default
  in
  let compiled = ref 0 and rejected = ref 0 and agreed = ref 0 in
  let divergences = ref [] in
  let constructs = ref zero_counts in
  let record ~index ~args ~backend ~cls ~detail prog =
    let shrunk =
      shrink_divergence ~config ~backend:(Registry.find backend) ~args ~cls
        ~verify_sim prog
    in
    divergences :=
      { div_dialect = dialect.Dialect.name;
        div_backend = backend;
        div_class = cls;
        div_detail = detail;
        div_index = index;
        div_args = args;
        div_source = source_of prog;
        div_shrunk = source_of shrunk }
      :: !divergences
  in
  for index = 0 to n - 1 do
    let prog = Fuzzgen.generate dialect ~seed ~index in
    constructs := add_counts !constructs (Fuzzgen.construct_counts prog);
    (* one session per program: the frontend runs once, the oracle once
       per vector, and every backend compiles from the same parse *)
    let session = Driver.create ~entry (source_of prog) in
    match Driver.program session with
    | Error e ->
      (* the generator emitted something the frontend refuses: always a
         bug worth a reproducer, never expected *)
      record ~index ~args:[] ~backend:"reference"
        ~cls:("generator:" ^ Driver.error_kind e)
        ~detail:(Driver.render_error e) prog
    | Ok checked ->
      (* the static checker must stay quiet: generated par arms own
         disjoint state and channel traffic is balanced *)
      let diags =
        Conc_check.errors
          (Conc_check.check_program ~dialect checked)
      in
      if diags <> [] then
        record ~index ~args:[] ~backend:"checker" ~cls:"checker-error"
          ~detail:
            (String.concat "; "
               (List.map (Conc_check.render ?file:None) diags))
          prog
      else
        List.iter
          (fun args ->
            match Driver.reference session ~args with
            | Error e ->
              record ~index ~args ~backend:"reference"
                ~cls:(Driver.error_kind e) ~detail:(Driver.render_error e)
                prog
            | Ok expected ->
              List.iter
                (fun b ->
                  match
                    classify_backend ~config session b ~args ~expected
                      ~verify_sim
                  with
                  | Agree ->
                    incr compiled;
                    incr agreed
                  | Rejected ->
                    if Registry.name b = dialect.Dialect.backend then
                      (* the dialect's own backend rejected a program
                         generated under its feature row: a gating bug *)
                      record ~index ~args ~backend:(Registry.name b)
                        ~cls:"gating" ~detail:"own dialect rejected" prog
                    else incr rejected
                  | Skipped -> ()
                  | Fail { cls; detail } ->
                    record ~index ~args ~backend:(Registry.name b) ~cls
                      ~detail prog)
                backends)
          arg_sets
  done;
  { rep_dialect = dialect.Dialect.name;
    rep_backend = dialect.Dialect.backend;
    rep_generated = n;
    rep_compiled = !compiled;
    rep_rejected = !rejected;
    rep_agreed = !agreed;
    rep_divergences = List.rev !divergences;
    rep_constructs = !constructs;
    rep_wall_ms = (Sys.time () -. t0) *. 1000. }

(* Default fuzzing matrix: every distinct feature row with a C
   frontend.  One representative per identical row would hide
   backend-specific bugs, so all compiling dialects are in. *)
let default_dialects () =
  List.filter
    (fun (d : Dialect.t) ->
      match Registry.find d.Dialect.backend with
      | Some b -> (Registry.capabilities b).Backend.c_frontend
      | None -> false)
    Dialect.table1

let run ?arg_sets ?backends ?verify_passes ?verify_sim ?dialects ~seed ~n ()
    : report list =
  let dialects =
    match dialects with Some ds -> ds | None -> default_dialects ()
  in
  List.map
    (fun d ->
      run_dialect ?arg_sets ?backends ?verify_passes ?verify_sim d ~seed ~n)
    dialects

(* Metrics for --metrics-json and the CI smoke: per-dialect construct
   census and traffic counters under a stable prefix. *)
let metrics (reports : report list) : Metrics.t =
  let m = Metrics.create () in
  Metrics.set_string m "schema" "chls.fuzz/1";
  List.iter
    (fun r ->
      let p key =
        Printf.sprintf "fuzz.%s.%s"
          (String.lowercase_ascii
             (String.map
                (function ' ' | '(' | ')' -> '_' | c -> c)
                r.rep_dialect))
          key
      in
      Metrics.set_int m (p "generated") r.rep_generated;
      Metrics.set_int m (p "compiled") r.rep_compiled;
      Metrics.set_int m (p "rejected") r.rep_rejected;
      Metrics.set_int m (p "agreed") r.rep_agreed;
      Metrics.set_int m (p "divergences") (List.length r.rep_divergences);
      Metrics.set_fixed m (p "wall_ms") ~decimals:1 r.rep_wall_ms;
      List.iter
        (fun (k, v) -> Metrics.set_int m (p ("constructs." ^ k)) v)
        r.rep_constructs)
    reports;
  m
