(* The serve subsystem without a daemon: the JSON codec, the frame
   format (byte order pinned — a length header assembled in the wrong
   order reads as a multi-megabyte frame), typed request decoding, and
   the Domain pool driven directly through submit/handle. *)

let json = Alcotest.testable (Fmt.of_to_string Metrics.render_compact) ( = )

let parse_ok s =
  match Metrics.parse s with
  | Ok v -> v
  | Error msg -> Alcotest.fail msg

let member name j =
  match Metrics.member name j with
  | Some v -> v
  | None ->
    Alcotest.fail
      (Printf.sprintf "missing %S in %s" name (Metrics.render_compact j))

let gcd_w = Workloads.gcd

(* --- JSON --- *)

let test_json_values () =
  Alcotest.check json "object"
    (Metrics.Obj
       [ ("a", Metrics.Int 1);
         ("b", Metrics.List [ Metrics.Int 1; Metrics.Int 2 ]);
         ("c", Metrics.Null) ])
    (parse_ok {| {"a": 1, "b": [1, 2], "c": null} |});
  Alcotest.check json "nesting and bools"
    (Metrics.Obj [ ("x", Metrics.Obj [ ("y", Metrics.Bool true) ]) ])
    (parse_ok {| {"x":{"y":true}} |});
  Alcotest.check json "negative int" (Metrics.Int (-42)) (parse_ok "-42");
  Alcotest.check json "float" (Metrics.Float 2.5) (parse_ok "2.5");
  Alcotest.check json "string escapes"
    (Metrics.String "a\"b\\c\nd")
    (parse_ok {| "a\"b\\c\nd" |});
  Alcotest.check json "unicode escapes decode to UTF-8"
    (Metrics.String "A*\xc3\xa9")
    (parse_ok {| "A*\u00e9" |});
  Alcotest.check json "empty containers"
    (Metrics.Obj [ ("o", Metrics.Obj []); ("l", Metrics.List []) ])
    (parse_ok {| {"o":{},"l":[]} |})

let test_json_render_round_trip () =
  let v =
    Metrics.Obj
      [ ("op", Metrics.String "compile");
        ("id", Metrics.Int 7);
        ("args", Metrics.List [ Metrics.Int 12; Metrics.Int 18 ]);
        ("nested", Metrics.Obj [ ("ok", Metrics.Bool false) ]) ]
  in
  Alcotest.check json "parse (render v) = v" v
    (parse_ok (Metrics.render_compact v))

(* Strings mix the bytes the renderer must escape (quotes, backslashes,
   every control byte below 0x20) with those it passes through raw (DEL,
   non-ASCII bytes, printable ASCII). *)
let gen_json_string =
  QCheck.Gen.(
    string_size (int_bound 12)
      ~gen:
        (frequency
           [ (2, oneofl [ '"'; '\\'; '\127' ]);
             (3, map Char.chr (int_range 0 0x1f));
             (2, map Char.chr (int_range 0x80 0xff));
             (3, printable) ]))

let gen_json =
  QCheck.Gen.(
    sized_size (int_bound 4)
    @@ fix (fun self n ->
           let scalar =
             oneof
               [ return Metrics.Null;
                 map (fun b -> Metrics.Bool b) bool;
                 map (fun i -> Metrics.Int i) int;
                 map (fun s -> Metrics.String s) gen_json_string ]
           in
           if n = 0 then scalar
           else
             let items = list_size (int_bound 4) (self (n - 1)) in
             let members =
               list_size (int_bound 4) (pair gen_json_string (self (n - 1)))
             in
             frequency
               [ (2, scalar);
                 (1, map (fun l -> Metrics.List l) items);
                 (1, map (fun m -> Metrics.Obj m) members) ]))

let prop_json_round_trip =
  QCheck.Test.make ~name:"json parse inverts render_compact" ~count:500
    (QCheck.make ~print:Metrics.render_compact gen_json)
    (fun j -> Metrics.parse (Metrics.render_compact j) = Ok j)

let test_json_errors () =
  let rejects s =
    match Metrics.parse s with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail (Printf.sprintf "%S should not parse" s)
  in
  rejects "";
  rejects "not json";
  rejects "{\"a\":}";
  rejects "{\"a\":1,}";
  rejects "[1, 2";
  rejects "{\"a\":1} trailing";
  rejects "\"bad \\q escape\""

(* --- framing --- *)

let with_frame_file f =
  let path = Filename.temp_file "chlsc-frame" ".bin" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with _ -> ())
    (fun () -> f path)

let test_frame_round_trip () =
  with_frame_file (fun path ->
      let payloads = [ "{}"; "{\"op\":\"stats\"}"; String.make 1000 'x' ] in
      Out_channel.with_open_bin path (fun oc ->
          List.iter (Serve.Frame.write oc) payloads);
      In_channel.with_open_bin path (fun ic ->
          List.iter
            (fun expected ->
              match Serve.Frame.read ic with
              | Some got ->
                Alcotest.(check string) "payload round trip" expected got
              | None -> Alcotest.fail "unexpected EOF")
            payloads;
          Alcotest.(check bool) "clean EOF at the boundary" true
            (Serve.Frame.read ic = None)))

let test_frame_header_is_big_endian () =
  with_frame_file (fun path ->
      Out_channel.with_open_bin path (fun oc -> Serve.Frame.write oc "hi");
      let raw = In_channel.with_open_bin path In_channel.input_all in
      Alcotest.(check string) "4-byte big-endian length then payload"
        "\x00\x00\x00\x02hi" raw;
      (* and the reader agrees with its own writer byte-for-byte *)
      In_channel.with_open_bin path (fun ic ->
          Alcotest.(check (option string)) "reader sees 2 bytes" (Some "hi")
            (Serve.Frame.read ic)))

let test_frame_rejects_oversized_and_truncated () =
  with_frame_file (fun path ->
      (* a length far past max_frame must be rejected before allocation *)
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc "\x7f\xff\xff\xffgarb");
      In_channel.with_open_bin path (fun ic ->
          match Serve.Frame.read ic with
          | exception Serve.Frame.Protocol_error _ -> ()
          | _ -> Alcotest.fail "oversized frame accepted"));
  with_frame_file (fun path ->
      (* a frame whose payload ends early is a protocol error, not EOF *)
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc "\x00\x00\x00\x10short");
      In_channel.with_open_bin path (fun ic ->
          match Serve.Frame.read ic with
          | exception Serve.Frame.Protocol_error _ -> ()
          | _ -> Alcotest.fail "truncated frame accepted"))

(* --- request decoding --- *)

let test_parse_request_compile_defaults () =
  match
    Serve.parse_request
      (parse_ok {| {"op":"compile","source":"int main(){return 1;}"} |})
  with
  | Ok (Serve.Compile { entry; backend; args; _ }) ->
    Alcotest.(check string) "default entry" "main" entry;
    Alcotest.(check string) "default backend" "bachc" backend;
    Alcotest.(check bool) "no args" true (args = None)
  | _ -> Alcotest.fail "expected a Compile request"

let test_parse_request_compare_vector_shapes () =
  (match
     Serve.parse_request
       (parse_ok
          {| {"op":"compare","source":"s","args":[[1,2],[3,4]]} |})
   with
  | Ok (Serve.Compare { vectors; _ }) ->
    Alcotest.(check (list (list int))) "list of vectors"
      [ [ 1; 2 ]; [ 3; 4 ] ] vectors
  | _ -> Alcotest.fail "expected a Compare request");
  match
    Serve.parse_request
      (parse_ok {| {"op":"compare","source":"s","args":[1,2]} |})
  with
  | Ok (Serve.Compare { vectors; _ }) ->
    Alcotest.(check (list (list int))) "flat shorthand = one vector"
      [ [ 1; 2 ] ] vectors
  | _ -> Alcotest.fail "expected a Compare request"

let test_parse_request_errors_echo_id () =
  (match Serve.parse_request (parse_ok {| {"op":"compile","id":9} |}) with
  | Error (_, id) -> Alcotest.check json "id echoed" (Metrics.Int 9) id
  | Ok _ -> Alcotest.fail "compile without source should not decode");
  (match Serve.parse_request (parse_ok {| {"op":"frobnicate","id":3} |}) with
  | Error (msg, _) ->
    let contains hay needle =
      let nh = String.length hay and nn = String.length needle in
      let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
      go 0
    in
    Alcotest.(check bool) "unknown op named" true (contains msg "frobnicate")
  | Ok _ -> Alcotest.fail "unknown op should not decode");
  match Serve.parse_request (parse_ok {| {"source":"s"} |}) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "missing op should not decode"

(* --- the pool, driven directly --- *)

let with_pool ?domains ?queue_capacity f =
  let pool = Serve.Pool.create ?domains ?queue_capacity () in
  Fun.protect ~finally:(fun () -> Serve.Pool.shutdown pool) (fun () -> f pool)

let handle pool req = Serve.Pool.handle pool None req

let bool_member name j =
  match Metrics.member name j with
  | Some (Metrics.Bool b) -> b
  | _ -> Alcotest.fail (Printf.sprintf "missing bool %S" name)

let test_handle_compile_verifies_against_oracle () =
  Driver.clear_cache ();
  with_pool ~domains:1 (fun pool ->
      let resp =
        handle pool
          (Serve.Compile
             { id = Metrics.Int 1;
               source = gcd_w.Workloads.source;
               entry = gcd_w.Workloads.entry;
               backend = "bachc";
               args = Some [ 12; 18 ];
               config = None })
      in
      Alcotest.(check bool) "ok" true (bool_member "ok" resp);
      Alcotest.check json "result" (Metrics.Int 6) (member "result" resp);
      Alcotest.(check bool) "oracle agrees" true
        (bool_member "matches_reference" resp);
      Alcotest.check json "id echoed" (Metrics.Int 1) (member "id" resp))

let test_handle_typed_errors () =
  with_pool ~domains:1 (fun pool ->
      let kind resp =
        match Metrics.member "error" resp with
        | Some e -> (
          match Metrics.member "kind" e with
          | Some (Metrics.String k) -> k
          | _ -> Alcotest.fail "error without kind")
        | None -> Alcotest.fail "expected an error response"
      in
      let compile ?(source = gcd_w.Workloads.source) backend =
        handle pool
          (Serve.Compile
             { id = Metrics.Null; source; entry = "main"; backend;
               args = None; config = None })
      in
      Alcotest.(check string) "unknown backend" "protocol"
        (kind (compile "no-such-backend"));
      Alcotest.(check string) "parse failure" "frontend-error"
        (kind (compile ~source:"int main( {" "bachc"));
      Alcotest.(check string) "structural EDSL" "no-c-frontend"
        (kind (compile "ocapi"));
      Alcotest.(check string) "dialect rejection" "dialect-reject"
        (kind (compile "cones")))

let test_handle_compare_rows_in_registry_order () =
  with_pool ~domains:1 (fun pool ->
      let resp =
        handle pool
          (Serve.Compare
             { id = Metrics.Null;
               source = gcd_w.Workloads.source;
               entry = gcd_w.Workloads.entry;
               backends = None;
               vectors = [ [ 12; 18 ] ]; config = None })
      in
      Alcotest.(check bool) "ok" true (bool_member "ok" resp);
      Alcotest.(check bool) "no mismatch" false (bool_member "mismatch" resp);
      let row_names =
        match member "backends" resp with
        | Metrics.List rows ->
          List.map
            (fun row ->
              match Metrics.member "backend" row with
              | Some (Metrics.String n) -> n
              | _ -> Alcotest.fail "row without backend name")
            rows
        | _ -> Alcotest.fail "backends must be a list"
      in
      Alcotest.(check (list string))
        "rows follow registry declaration order" (Registry.names ())
        row_names)

let test_handle_stats_and_internal_safety () =
  with_pool ~domains:1 (fun pool ->
      let resp = handle pool (Serve.Stats { id = Metrics.Int 5 }) in
      Alcotest.(check bool) "ok" true (bool_member "ok" resp);
      Alcotest.check json "schema" (Metrics.String "chls.metrics/3")
        (member "schema" resp))

let test_pool_processes_concurrent_batch () =
  Driver.clear_cache ();
  with_pool ~domains:2 ~queue_capacity:2 (fun pool ->
      (* more jobs than queue capacity: submit must block (backpressure)
         rather than drop, and every job must respond exactly once *)
      let lock = Mutex.create () in
      let responses = ref [] in
      let n = 8 in
      for i = 1 to n do
        Serve.Pool.submit pool
          (Serve.Compile
             { id = Metrics.Int i;
               source = gcd_w.Workloads.source;
               entry = gcd_w.Workloads.entry;
               backend = (if i mod 2 = 0 then "bachc" else "handelc");
               args = Some [ 27; 9 ]; config = None })
          ~respond:(fun resp ->
            Mutex.lock lock;
            responses := resp :: !responses;
            Mutex.unlock lock)
      done;
      Serve.Pool.drain pool;
      Alcotest.(check int) "every job responded" n (List.length !responses);
      List.iter
        (fun resp ->
          Alcotest.(check bool) "computed gcd" true
            (member "result" resp = Metrics.Int 9))
        !responses;
      let ids =
        List.sort compare
          (List.map
             (fun r ->
               match member "id" r with
               | Metrics.Int i -> i
               | _ -> Alcotest.fail "non-int id")
             !responses)
      in
      Alcotest.(check (list int)) "all ids, exactly once"
        (List.init n (fun i -> i + 1))
        ids;
      let stats = Serve.Pool.stats pool in
      Alcotest.(check (option int)) "total jobs counted" (Some n)
        (List.assoc_opt "total_jobs" stats))

let test_pool_shutdown_is_idempotent_and_rejects_late_jobs () =
  let pool = Serve.Pool.create ~domains:1 () in
  Serve.Pool.shutdown pool;
  Serve.Pool.shutdown pool;
  let resp = ref None in
  Serve.Pool.submit pool
    (Serve.Stats { id = Metrics.Int 1 })
    ~respond:(fun r -> resp := Some r);
  match !resp with
  | Some r ->
    Alcotest.(check bool) "late job rejected" false (bool_member "ok" r)
  | None -> Alcotest.fail "late submit must still respond"

let suite =
  ( "serve",
    [ Alcotest.test_case "json values" `Quick test_json_values;
      Alcotest.test_case "json render round trip" `Quick
        test_json_render_round_trip;
      QCheck_alcotest.to_alcotest prop_json_round_trip;
      Alcotest.test_case "json errors" `Quick test_json_errors;
      Alcotest.test_case "frame round trip" `Quick test_frame_round_trip;
      Alcotest.test_case "frame header is big-endian" `Quick
        test_frame_header_is_big_endian;
      Alcotest.test_case "frame rejects oversized and truncated" `Quick
        test_frame_rejects_oversized_and_truncated;
      Alcotest.test_case "compile request defaults" `Quick
        test_parse_request_compile_defaults;
      Alcotest.test_case "compare vector shapes" `Quick
        test_parse_request_compare_vector_shapes;
      Alcotest.test_case "request errors echo id" `Quick
        test_parse_request_errors_echo_id;
      Alcotest.test_case "compile verifies against oracle" `Quick
        test_handle_compile_verifies_against_oracle;
      Alcotest.test_case "typed error kinds" `Quick test_handle_typed_errors;
      Alcotest.test_case "compare rows in registry order" `Quick
        test_handle_compare_rows_in_registry_order;
      Alcotest.test_case "stats response" `Quick
        test_handle_stats_and_internal_safety;
      Alcotest.test_case "pool batch with backpressure" `Quick
        test_pool_processes_concurrent_batch;
      Alcotest.test_case "shutdown idempotent, late jobs rejected" `Quick
        test_pool_shutdown_is_idempotent_and_rejects_late_jobs ] )
