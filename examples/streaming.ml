(* Streaming process network in Handel-C: the paper's Concurrency section
   made executable.  A three-stage pipeline communicates over rendezvous
   channels:

        source ──c1──▶ moving-average ──c2──▶ threshold/count

   "About half the languages require the programmer to express concurrency
   with parallel constructs … Handel-C, and SpecC can also group
   concurrent statements" — this is what that style of design looks like,
   and what the cycle-accurate semantics charges for it.

   Run with:  dune exec examples/streaming.exe *)

let source n =
  Printf.sprintf
    {|
    chan int c1;
    chan int c2;
    int run(int threshold) {
      int hits = 0;
      par {
        { /* stage 1: a sample source (pseudo-random walk) */
          int x = 7;
          for (int i = 0; i < %d; i = i + 1) {
            x = (x * 13 + 5) %% 64;
            send(c1, x);
          }
          send(c1, -1);
        }
        { /* stage 2: 3-tap moving average */
          int w0 = 0;
          int w1 = 0;
          int w2 = 0;
          int going = 1;
          while (going) {
            int v = recv(c1);
            if (v < 0) {
              send(c2, -1);
              going = 0;
            } else {
              w2 = w1;
              w1 = w0;
              w0 = v;
              send(c2, (w0 + w1 + w2) / 3);
            }
          }
        }
        { /* stage 3: count samples above the threshold */
          int going = 1;
          while (going) {
            int v = recv(c2);
            if (v < 0) { going = 0; }
            else {
              if (v > threshold) { hits = hits + 1; }
            }
          }
        }
      }
      return hits;
    }
    |}
    n

(* The same computation, sequentially, for the oracle cross-check. *)
let sequential_hits n threshold =
  let x = ref 7 and w = [| 0; 0; 0 |] and hits = ref 0 in
  for _ = 1 to n do
    x := (((!x * 13) + 5) mod 64 + 64) mod 64;
    w.(2) <- w.(1);
    w.(1) <- w.(0);
    w.(0) <- !x;
    if (w.(0) + w.(1) + w.(2)) / 3 > threshold then incr hits
  done;
  !hits

let () =
  print_endline "A streaming pipeline over rendezvous channels (Handel-C)\n";
  let n = 32 in
  let src = source n in
  let design =
    Registry.compile (Registry.get "handelc") (Typecheck.parse_and_check src)
      ~entry:"run"
  in
  List.iter
    (fun threshold ->
      let r = design.Design.run (Design.int_args [ threshold ]) in
      let hits = Bitvec.to_int (Option.get r.Design.result) in
      Printf.printf
        "  threshold %2d: %2d hits (expected %2d) — %d cycles for %d samples \
         (%.1f cycles/sample)\n"
        threshold hits
        (sequential_hits n threshold)
        (Option.get r.Design.cycles)
        n
        (float_of_int (Option.get r.Design.cycles) /. float_of_int n))
    [ 10; 25; 40 ];
  (* the software oracle agrees, through the thread-aware interpreter *)
  let oracle = Interp.run_int src ~entry:"run" ~args:[ 25 ] in
  Printf.printf "\nSoftware semantics (untimed interpreter): %d hits at \
                 threshold 25\n" oracle;
  print_endline
    "\nEach rendezvous costs a cycle and synchronizes the stages; the \
     pipeline's\nthroughput is set by its slowest stage — concurrency the \
     designer wrote\nexplicitly, exactly as the paper describes for the \
     CSP-flavoured languages.";
  (* deadlock detection: break the protocol by dropping the terminator *)
  let broken =
    {|
    chan int c;
    int run(int n) {
      int got = 0;
      par {
        { send(c, n); }
        { got = recv(c); int second = recv(c); got = got + second; }
      }
      return got;
    }
    |}
  in
  match Interp.run_int broken ~entry:"run" ~args:[ 1 ] with
  | exception Interp.Deadlock ->
    print_endline
      "\nAnd the classic CSP failure mode is caught: the broken protocol \
       (one send,\ntwo receives) deadlocks — detected by the interpreter."
  | _ -> print_endline "\nunexpected: broken protocol did not deadlock"
