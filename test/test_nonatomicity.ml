(* The Section-8 claim: the Figure-3 algorithm solves the snapshot *task*
   but does not implement atomic memory snapshots — some execution returns
   a set of inputs the memory never contained.  The claim is existential;
   these tests exercise both search strategies and the machinery they rely
   on.  The heavy exhaustive searches live in bin/experiments.ml; here we
   keep bounded versions. *)

open Repro_util

let memory_set = Core.snapshot_memory_set

let test_memory_set () =
  let v view level : Algorithms.Snapshot.value =
    { view = Iset.of_list view; level }
  in
  Alcotest.(check string) "union of views" "{1,2,3}"
    (Iset.to_string (memory_set [| v [ 1; 2 ] 0; v [ 3 ] 1; v [] 0 |]));
  Alcotest.(check string) "empty memory" "{}" (Iset.to_string (memory_set [||]))

let test_random_search_structure () =
  (* Uniform random schedules rarely produce the covering patterns the
     witness needs; whatever the bounded search returns must be internally
     consistent. *)
  match Core.find_nonatomic_execution ~n:3 ~attempts:300 () with
  | None -> ()
  | Some w ->
      (* the culprit's output must genuinely be absent from the memory
         sets seen *)
      Alcotest.(check bool) "output not among memory sets" true
        (not
           (List.exists
              (Iset.equal w.Core.Snapshot_witness.culprit_output)
              w.Core.Snapshot_witness.memory_sets_seen))

module S = Modelcheck.Snapshot3

let identity3 = Anonmem.Wiring.identity ~n:3 ~m:3

let test_exhaustive_search_rejects_impossible_targets () =
  (* No execution can output the full input set without the memory having
     contained it: any write of the full view puts it in memory, and a
     processor only outputs a view it has written.  The packed search
     under the free write order must refute (1,1,2)/{1,2} outright on a
     wiring (3,156,504 states on the identity wiring). *)
  match
    S.find_nonatomic ~log2_capacity:23 ~inputs:[| 1; 1; 2 |]
      ~target_mask:0b011 ~wirings:[ identity3 ] ()
  with
  | S.Refuted [ st ] as outcome ->
      Alcotest.(check int) "states" 3_156_504 st.S.states;
      Alcotest.(check (list string)) "report"
        [
          "inputs (1,1,2), target {1,2}: refuted exhaustively over 1 wiring, \
           3156504 states";
          "  states per wiring: 3156504";
        ]
        (Core.nonatomic_report ([| 1; 1; 2 |], Iset.of_list [ 1; 2 ]) outcome)
  | S.Refuted _ -> Alcotest.fail "one record per wiring"
  | S.Witness _ -> Alcotest.fail "the full input set cannot be a witness"
  | S.Undecided _ -> Alcotest.fail "2^23 slots should decide (1,1,2)/{1,2}"

let test_exhaustive_search_budget_respected () =
  (* A full visited table is never a refutation: with 2^10 slots the
     (1,1,2)/{1} search (47M states on the identity wiring) stops at the
     table's 70% load limit and reports the wiring it could not decide. *)
  let wirings = Anonmem.Wiring.enumerate ~n:3 ~m:3 ~fix_first:true in
  match
    S.find_nonatomic ~log2_capacity:10 ~inputs:[| 1; 1; 2 |]
      ~target_mask:0b001 ~wirings ()
  with
  | S.Undecided { wiring; states; log2_capacity; refuted } as outcome ->
      Alcotest.(check int) "stopped at the load limit" (1024 * 7 / 10) states;
      Alcotest.(check int) "capacity reported" 10 log2_capacity;
      Alcotest.(check int) "on the first wiring" 0 (List.length refuted);
      Alcotest.(check bool) "names that wiring" true
        (Anonmem.Wiring.equal wiring (List.hd wirings));
      Alcotest.(check (list string)) "report names candidate, wiring, \
                                      states and remedy"
        [
          "inputs (1,1,2), target {1}: UNDECIDED — the visited table (2^10 \
           slots of 8 bytes) filled after 716 states on wiring [(1 2 3); (1 \
           2 3); (1 2 3)], wiring 1 in search order";
          "  remedy: raise ~log2_capacity above 10 (each step doubles the \
           table); refuted before it: 0 wirings";
        ]
        (Core.nonatomic_report ([| 1; 1; 2 |], Iset.of_list [ 1 ]) outcome)
  | _ -> Alcotest.fail "a full table must leave the candidate undecided"

let test_witness_trace_replays () =
  (* When the search does find a witness, its (processor, register
     written) trace must replay on the packed semantics to a state where
     the culprit outputs the target, with the memory differing from the
     target at every step. *)
  let inputs = [| 1; 2; 3 |] and target_mask = 0b011 in
  let wirings =
    List.filteri (fun i _ -> i < 4)
      (Anonmem.Wiring.enumerate ~n:3 ~m:3 ~fix_first:true)
  in
  match S.find_nonatomic ~log2_capacity:16 ~inputs ~target_mask ~wirings () with
  | S.Refuted _ | S.Undecided _ -> ()
  | S.Witness w ->
      let sigmas = S.sigmas_of w.S.wiring in
      let final =
        List.fold_left
          (fun s (p, wrote) ->
            let l = S.get_local s p in
            let c =
              match wrote with
              | None -> 0
              | Some i ->
                  Bits.popcount (S.all_written land lnot (S.l_written l) land ((1 lsl i) - 1))
            in
            let s = S.step s p c sigmas.(p) in
            Alcotest.(check bool) "memory never equals target" true
              (S.memory_mask s <> target_mask);
            s)
          (S.initial_state inputs) w.S.path
      in
      Alcotest.(check bool) "culprit output equals target" true
        (List.mem (w.S.culprit, target_mask) (S.outputs final))

let () =
  Alcotest.run "nonatomicity"
    [
      ( "section-8",
        [
          Alcotest.test_case "memory content set" `Quick test_memory_set;
          Alcotest.test_case "random search consistency" `Quick
            test_random_search_structure;
          Alcotest.test_case "exhaustive: impossible target" `Quick
            test_exhaustive_search_rejects_impossible_targets;
          Alcotest.test_case "exhaustive: budget respected" `Quick
            test_exhaustive_search_budget_respected;
          Alcotest.test_case "exhaustive: witness trace replays" `Slow
            test_witness_trace_replays;
        ] );
    ]
