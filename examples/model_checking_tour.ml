(* A tour of the model checker: the machinery that stands in for the
   paper's TLC runs.

   Shows (1) exhaustive verification of the snapshot algorithm for n=2
   over every wiring; (2) divergence detection on the write-scan loop
   (which never terminates, so it must contain cycles); (3) the bit-packed
   3-processor checker cross-validated against the reference semantics;
   (4) bounded model checking of consensus agreement.

   Run with: dune exec examples/model_checking_tour.exe *)

module Snap_mc = Modelcheck.Explorer.Make (Modelcheck.Codecs.Snapshot)
module Ws_mc = Modelcheck.Explorer.Make (Modelcheck.Codecs.Write_scan)

let () =
  print_endline "1. Exhaustive check of the Figure-3 snapshot, n=2, all wirings";
  (match Core.verify_snapshot_model ~n:2 () with
  | Ok s ->
      Printf.printf
        "   verified: containment safety and wait-freedom over %d wirings\n"
        s.Modelcheck.Explorer.wirings_checked;
      Printf.printf "   %d states, %d transitions, %d terminal states\n\n"
        s.Modelcheck.Explorer.total_states s.Modelcheck.Explorer.total_transitions
        s.Modelcheck.Explorer.terminal_states
  | Error e -> failwith (Modelcheck.Explorer.sweep_error_message e));

  print_endline "2. Wait-freedom as acyclicity: the write-scan loop diverges";
  let cfg = Algorithms.Write_scan.cfg ~n:2 ~m:2 in
  let wiring = Anonmem.Wiring.identity ~n:2 ~m:2 in
  (match Ws_mc.check_exhaustive ~cfg ~wiring ~inputs:[| 1; 2 |] () with
  | Ws_mc.Dfs_cycle { processors; stats } ->
      Printf.printf
        "   cycle found after %d states: processors %s can run forever\n\n"
        stats.Ws_mc.dfs_states
        (String.concat ", "
           (List.map (fun p -> Printf.sprintf "p%d" (p + 1)) processors))
  | _ -> failwith "expected divergence");

  print_endline "3. The bit-packed 3-processor checker (one 51-bit int per state)";
  let compared = Modelcheck.Snapshot3.selfcheck ~runs:40 () in
  Printf.printf
    "   packed semantics cross-validated against the reference on %d steps\n"
    compared;
  print_endline
    "   (a full wiring is ~10^8 states; see `experiments` for the real runs)\n";

  print_endline "4. Bounded model checking of consensus agreement (n=2, ts<=4)";
  match Core.verify_consensus_bounded ~n:2 ~max_ts:4 () with
  | Ok states ->
      Printf.printf
        "   agreement and validity hold over all wirings and interleavings \
         (%d states)\n"
        states
  | Error e ->
      failwith
        ("consensus bounded check: " ^ Modelcheck.Explorer.sweep_error_message e)
