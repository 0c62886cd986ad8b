(* perfbench: the serve-level benchmark of chlsc.

   One invocation runs one workload:

     perfbench.exe --daemon PATH --workload NAME --seed N --seconds S
                   --trace 0|1 [--commit REV]

   [--trace 0] measures the end-to-end metrics against real [chlsc serve]
   daemons (see Endtoend); [--trace 1] replays the workload in process and
   reports the per-layer metrics (see Traced).  Either way every response
   is checked against expectations computed here (see Traffic), the
   traffic fingerprint is compared with any earlier run of the same
   workload and seed in this checkout, and the last line of standard
   output is one JSON object:

     {"correct": .., "attempted": .., "failed": .., "metrics": {..}}

   The exit code is nonzero when any request failed or a fingerprint
   differs.  Run it through perfbench/run.sh, which builds the daemon and
   this program from source first. *)

let state_dir = ".perfbench"

let usage () =
  prerr_endline
    "usage: perfbench.exe --daemon PATH --workload (cold-sweep|warm-repeat|\
     verify-batch) --seed N --seconds S --trace 0|1 [--commit REV]";
  exit 2

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* --- provenance --- *)

(* MD5 over the program's sources, standing in for the commit where the
   checkout carries no version control *)
let source_digest () =
  let rec walk acc path =
    if Sys.is_directory path then
      Array.fold_left
        (fun acc f -> walk acc (Filename.concat path f))
        acc
        (let a = Sys.readdir path in
         Array.sort compare a;
         a)
    else if
      Filename.check_suffix path ".ml" || Filename.check_suffix path ".mli"
      || Filename.basename path = "dune"
    then Digest.file path :: acc
    else acc
  in
  let digests =
    List.fold_left
      (fun acc p -> if Sys.file_exists p then walk acc p else acc)
      [] [ "lib"; "bin"; "dune-project" ]
  in
  Digest.to_hex (Digest.string (String.concat "" (List.rev digests)))

(* --- the fingerprint ledger --- *)

(* Compare [fp] with what earlier runs of this workload and seed in this
   checkout recorded, on the keys both have; then record the union. *)
let reconcile ~workload ~seed (fp : Traffic.fingerprint) =
  let dir = Filename.concat state_dir "fingerprints" in
  mkdir_p dir;
  let path = Filename.concat dir (Printf.sprintf "%s-%d" workload seed) in
  let before =
    if Sys.file_exists path then
      In_channel.with_open_text path In_channel.input_all
      |> String.split_on_char '\n'
      |> List.filter_map (fun l ->
             match String.split_on_char ' ' l with
             | [ k; v ] -> Some (k, int_of_string v)
             | _ -> None)
    else []
  in
  let diffs =
    List.filter_map
      (fun (k, v) ->
        match List.assoc_opt k before with
        | Some v0 when v0 <> v -> Some (Printf.sprintf "%s %d -> %d" k v0 v)
        | _ -> None)
      fp
  in
  let union =
    fp @ List.filter (fun (k, _) -> not (List.mem_assoc k fp)) before
  in
  Out_channel.with_open_text path (fun oc ->
      List.iter (fun (k, v) -> Printf.fprintf oc "%s %d\n" k v) union);
  (List.length before > 0, diffs)

(* --- output --- *)

let print_result ~correct ~attempted ~failed metrics =
  let members =
    List.map
      (fun (name, value, unit) ->
        Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name value unit)
      metrics
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct attempted failed
    (String.concat ", " members)

let () =
  let daemon = ref "" and workload = ref "" and seed = ref (-1)
  and seconds = ref 0 and trace = ref (-1) and commit = ref "none" in
  let rec parse = function
    | "--daemon" :: v :: rest -> daemon := v; parse rest
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--seed" :: v :: rest -> seed := int_of_string v; parse rest
    | "--seconds" :: v :: rest -> seconds := int_of_string v; parse rest
    | "--trace" :: v :: rest -> trace := int_of_string v; parse rest
    | "--commit" :: v :: rest -> commit := v; parse rest
    | [] -> ()
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  if !daemon = "" || not (List.mem !workload Traffic.names) || !seed < 0
     || !seconds < 1 || (!trace <> 0 && !trace <> 1)
  then usage ();
  (* an interrupted run still stops its daemons, through at_exit *)
  List.iter
    (fun signal -> Sys.set_signal signal (Sys.Signal_handle (fun _ -> exit 130)))
    [ Sys.sigint; Sys.sigterm ];
  let traced = !trace = 1 in
  (* the traced run replays only the fingerprint stretch *)
  let wl =
    Traffic.generate ~name:!workload ~seed:!seed
      ~seconds:(if traced then 0 else !seconds)
  in
  let dir =
    Filename.concat state_dir (Printf.sprintf "run-%d" (Unix.getpid ()))
  in
  mkdir_p dir;
  Printf.printf "perfbench %s seed=%d mode=%s\n" !workload !seed
    (if traced then "traced (per-layer)" else "end-to-end");
  Printf.printf
    "provenance: commit=%s source_md5=%s nproc=%d ocaml=%s seed=%d \
     window=%d vectors_per_request=%d run_seconds=%d\n%!"
    !commit (source_digest ())
    (Domain.recommended_domain_count ())
    Sys.ocaml_version !seed Endtoend.window wl.Traffic.vectors !seconds;
  Printf.printf "traffic: setup_requests=%d traffic_requests=%d cycle=%b fingerprint_stretch=%d\n"
    (Array.length wl.Traffic.setup) (Array.length wl.Traffic.traffic)
    wl.Traffic.cycle wl.Traffic.fingerprint_len;
  let attempted, failed, reasons, metrics, fingerprint, lines =
    if traced then
      let r = Traced.run ~dir ~wl ~window:Endtoend.window in
      Traced.(r.attempted, r.failed, [], r.metrics, r.fingerprint, r.lines)
    else
      let r =
        Endtoend.run ~exe:!daemon ~dir ~wl ~seconds:!seconds
      in
      Endtoend.(r.attempted, r.failed, r.reasons, r.metrics, r.fingerprint, r.lines)
  in
  List.iter print_endline lines;
  List.iter (fun r -> Printf.printf "failure: %s\n" r) reasons;
  let seen, diffs = reconcile ~workload:!workload ~seed:!seed fingerprint in
  Printf.printf "fingerprint: %s (%s)\n"
    (String.concat " "
       (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) fingerprint))
    (if not seen then "first run of this seed"
     else if diffs = [] then "matches earlier runs of this seed"
     else "DIFFERS: " ^ String.concat ", " diffs);
  List.iter
    (fun (name, value, unit) -> Printf.printf "metric %-24s %14.6f %s\n" name value unit)
    metrics;
  let finite = List.for_all (fun (_, v, _) -> Float.is_finite v) metrics in
  if not finite then print_endline "failure: a metric is not a finite number";
  let correct = failed = 0 && diffs = [] && finite in
  print_result ~correct ~attempted ~failed
    (List.map
       (fun (name, v, unit) -> (name, (if Float.is_finite v then v else 0.), unit))
       metrics);
  exit (if correct then 0 else 1)
