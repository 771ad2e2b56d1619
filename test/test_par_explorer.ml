(* Differential tests of the exact exploration engines — the sequential
   BFS (Explorer.explore) and DFS (Explorer.check_exhaustive), with and
   without symmetry reduction — against the independent reference
   explorer of test/reference (a naive BFS over boxed states), plus
   QCheck soundness properties of the Canon orbit-minimum
   canonicalization itself.

   The contract under test: for every checkable protocol, wiring and
   input assignment, the unreduced BFS matches the reference exactly on
   visited states, transitions, terminals and the divergent set (at
   n <= 2); the DFS agrees with the BFS on the wait-freedom verdict and,
   on acyclic spaces, on the counts; reduced runs never grow the space
   and keep the verdict; and every counterexample trace replays through
   Witness.Replay to a state that actually violates the invariant, the
   BFS one with the minimal length the reference finds.  The fingerprint
   engine's columns live in test_fingerprint.ml.

   Tiny configurations (< 5 s total) run under the @mc-smoke alias inside
   `dune runtest`; the full 3-processor matrix and the unbounded
   3-processor reduction run are gated behind MC_LONG=1 (`make mc-long`). *)

module Canon = Modelcheck.Canon

let long_mode = Sys.getenv_opt "MC_LONG" <> None
let qcheck_count = if long_mode then 500 else 120

(* ------------------------------------------------------------------ *)
(* The harness, generic in the checkable protocol.                    *)
(* ------------------------------------------------------------------ *)

module Against_reference (P : Modelcheck.Explorer.CHECKABLE) = struct
  module E = Modelcheck.Explorer.Make (P)
  module Ref = Reference.Ref_explorer.Make (P)
  module Replay = Modelcheck.Witness.Replay (P)

  let seq_bfs ?invariant ?stop_expansion ?(reduction = false) ~cfg ~wiring
      ~inputs () =
    match E.explore ?invariant ?stop_expansion ~reduction ~cfg ~wiring ~inputs () with
    | E.Explored sp ->
        {
          Ref.states = E.state_count sp;
          transitions = E.transition_count sp;
          terminals = List.length sp.E.terminal;
          divergent = E.divergent_processors sp;
        }
    | E.Invariant_failed (_, v) ->
        Alcotest.failf "sequential BFS: unexpected invariant failure: %s"
          v.E.message
    | E.State_limit k -> Alcotest.failf "sequential BFS: state limit %d" k
    | E.Exhausted _ -> Alcotest.fail "sequential BFS: unexpected exhaustion"

  let reference_counts ?invariant ?stop_expansion ~cfg ~wiring ~inputs () =
    match Ref.explore ?invariant ?stop_expansion ~cfg ~wiring ~inputs () with
    | Ref.Clean c -> c
    | Ref.Violated { message; _ } ->
        Alcotest.failf "reference: unexpected invariant failure: %s" message

  let check_counts name (expected : Ref.counts) (got : Ref.counts) =
    Alcotest.(check int) (name ^ ": states") expected.states got.states;
    Alcotest.(check int)
      (name ^ ": transitions")
      expected.transitions got.transitions;
    Alcotest.(check int) (name ^ ": terminals") expected.terminals got.terminals;
    Alcotest.(check (list int))
      (name ^ ": divergent set")
      expected.divergent got.divergent

  (* One (wiring, inputs) cell: the unreduced BFS against the reference
     (exact counts and divergent set), the reduced BFS against the
     unreduced one (never larger, same verdict), and the DFS verdict and
     counts against the BFS.  The reference keeps every boxed state, so
     the 3-processor cells pass [~reference:false] and rest on the
     BFS/DFS agreement. *)
  let cell ?invariant ?stop_expansion ?(reference = true) ~name ~cfg ~wiring
      ~inputs () =
    let seq = seq_bfs ?invariant ?stop_expansion ~cfg ~wiring ~inputs () in
    if reference then
      check_counts (name ^ " vs reference")
        (reference_counts ?invariant ?stop_expansion ~cfg ~wiring ~inputs ())
        seq;
    let red =
      seq_bfs ?invariant ?stop_expansion ~reduction:true ~cfg ~wiring ~inputs ()
    in
    Alcotest.(check bool)
      (name ^ ": reduction never grows the space")
      true
      (red.states <= seq.states);
    Alcotest.(check bool)
      (name ^ ": reduced/unreduced wait-freedom verdicts agree")
      (seq.divergent = []) (red.divergent = []);
    match
      E.check_exhaustive ?invariant ?stop_expansion ~cfg ~wiring ~inputs ()
    with
    | E.Dfs_ok s ->
        Alcotest.(check (list int)) (name ^ ": DFS acyclic = BFS wait-free") []
          seq.divergent;
        Alcotest.(check int) (name ^ ": DFS state count") seq.states s.E.dfs_states;
        Alcotest.(check int)
          (name ^ ": DFS transition count")
          seq.transitions s.E.dfs_transitions;
        Alcotest.(check int)
          (name ^ ": DFS terminal count")
          seq.terminals s.E.dfs_terminals
    | E.Dfs_cycle _ ->
        Alcotest.(check bool) (name ^ ": DFS cycle = BFS divergence") true
          (seq.divergent <> [])
    | E.Dfs_invariant_failed { message; _ } ->
        Alcotest.failf "%s: DFS unexpected invariant failure: %s" name message
    | E.Dfs_state_limit k -> Alcotest.failf "%s: DFS state limit %d" name k
    | E.Dfs_exhausted _ -> Alcotest.failf "%s: DFS unexpected exhaustion" name

  (* Counterexamples on a violating configuration: both engines must
     report the violation, every trace must replay through
     Witness.Replay to a state the invariant rejects, and the BFS trace
     (concretized, under reduction) must have the minimal length the
     unreduced reference finds. *)
  let violation_cell ?(reduction = false) ~name ~cfg ~wiring ~inputs
      ~invariant () =
    let replay_and_check nm path =
      let final = Replay.final ~cfg ~wiring ~inputs path in
      match invariant final with
      | Error _ -> ()
      | Ok () ->
          Alcotest.failf "%s: replayed trace ends in a non-violating state" nm
    in
    let min_depth =
      match Ref.explore ~invariant ~cfg ~wiring ~inputs () with
      | Ref.Violated { depth; _ } -> depth
      | Ref.Clean _ -> Alcotest.failf "%s: the reference missed the violation" name
    in
    (match E.explore ~invariant ~reduction ~cfg ~wiring ~inputs () with
    | E.Invariant_failed (_, v) ->
        let path = List.map fst v.E.trace in
        Alcotest.(check int) (name ^ ": BFS trace is minimal") min_depth
          (List.length path);
        replay_and_check (name ^ " seq-bfs") path
    | _ -> Alcotest.failf "%s: sequential BFS missed the violation" name);
    match E.check_exhaustive ~invariant ~reduction ~cfg ~wiring ~inputs () with
    | E.Dfs_invariant_failed { path; state; _ } ->
        replay_and_check (name ^ " seq-dfs") path;
        (* The reported state must be the replayed endpoint (regression
           for the DFS path construction, which used to append the last
           pid twice). *)
        let final = Replay.final ~cfg ~wiring ~inputs path in
        Alcotest.(check string)
          (name ^ ": DFS state matches its own path")
          (E.encode_state cfg state)
          (E.encode_state cfg final)
    | _ -> Alcotest.failf "%s: DFS missed the violation" name
end

(* ------------------------------------------------------------------ *)
(* Protocol instantiations.                                           *)
(* ------------------------------------------------------------------ *)

module Snap = Algorithms.Snapshot
module SnapDiff = Against_reference (Modelcheck.Codecs.Snapshot)
module WsDiff = Against_reference (Modelcheck.Codecs.Write_scan)
module DcDiff = Against_reference (Modelcheck.Codecs.Double_collect)
module ConsDiff = Against_reference (Modelcheck.Codecs.Consensus)
module RenDiff = Against_reference (Modelcheck.Codecs.Renaming)

let wirings2 = Anonmem.Wiring.enumerate ~n:2 ~m:2 ~fix_first:true
let wirings3 = Anonmem.Wiring.enumerate ~n:3 ~m:3 ~fix_first:true

let test_snapshot_n2_matrix () =
  let cfg = Snap.standard ~n:2 in
  List.iter
    (fun wiring ->
      List.iter
        (fun inputs ->
          SnapDiff.cell
            ~name:
              (Fmt.str "snapshot n=2 %a %a" Anonmem.Wiring.pp wiring
                 Fmt.(Dump.array int)
                 inputs)
            ~invariant:(Core.snapshot_invariant cfg inputs)
            ~cfg ~wiring ~inputs ())
        [ [| 1; 2 |]; [| 1; 1 |] ])
    wirings2

let snap3_stop level (st : SnapDiff.E.state) =
  Array.exists
    (fun l -> Snap.level_of_local l >= level)
    st.SnapDiff.E.locals

let test_snapshot_n3_bounded () =
  (* 3-processor parity on the level-bounded prefix of the space: the
     bound predicate is symmetric (an exists over processors), so it
     composes with reduction.  Smoke uses level 1 over three wirings;
     MC_LONG raises the bound to level 2. *)
  let cfg = Snap.standard ~n:3 in
  let level = if long_mode then 2 else 1 in
  let some_wirings =
    match wirings3 with
    | a :: b :: c :: _ -> if long_mode then [ a; b; c ] else [ a; b ]
    | _ -> assert false
  in
  let inputs_choices =
    if long_mode then [ [| 1; 1; 1 |]; [| 1; 1; 2 |] ] else [ [| 1; 1; 1 |] ]
  in
  List.iter
    (fun wiring ->
      List.iter
        (fun inputs ->
          SnapDiff.cell ~reference:false
            ~name:
              (Fmt.str "snapshot n=3 lvl<%d %a %a" level Anonmem.Wiring.pp
                 wiring
                 Fmt.(Dump.array int)
                 inputs)
            ~invariant:(Core.snapshot_invariant cfg inputs)
            ~stop_expansion:(snap3_stop level) ~cfg ~wiring ~inputs ())
        inputs_choices)
    some_wirings

let test_snapshot_n3_full_matrix_long () =
  (* The full 3-processor matrix — every wiring with processor 0 pinned,
     level-2-bounded spaces, BFS vs DFS vs reduced. *)
  if not long_mode then ()
  else begin
    let cfg = Snap.standard ~n:3 in
    let inputs = [| 1; 1; 1 |] in
    List.iter
      (fun wiring ->
        SnapDiff.cell ~reference:false
          ~name:(Fmt.str "matrix %a" Anonmem.Wiring.pp wiring)
          ~invariant:(Core.snapshot_invariant cfg inputs)
          ~stop_expansion:(snap3_stop 2) ~cfg ~wiring ~inputs ())
      wirings3
  end

let test_snapshot_n3_unbounded_reduction_long () =
  (* The acceptance benchmark's claim as a test: on the full (unbounded)
     single-group 3-processor space, reduction shrinks the visited set by
     at least 2x while preserving both verdicts. *)
  if not long_mode then ()
  else begin
    let cfg = Snap.standard ~n:3 in
    let inputs = [| 1; 1; 1 |] in
    let wiring = Anonmem.Wiring.identity ~n:3 ~m:3 in
    let module E = SnapDiff.E in
    let run reduction =
      match
        E.check_exhaustive ~reduction
          ~invariant:(Core.snapshot_invariant cfg inputs)
          ~cfg ~wiring ~inputs ()
      with
      | E.Dfs_ok s -> s.E.dfs_states
      | _ -> Alcotest.fail "single-group snapshot must verify"
    in
    let full = run false and reduced = run true in
    Alcotest.(check bool)
      (Fmt.str "full space %d >= 2x reduced %d" full reduced)
      true
      (full >= 2 * reduced)
  end

let test_write_scan_divergence_parity () =
  (* Cyclic transition graphs: the non-terminating write-scan loop.  Both
     processors diverge under every engine, reduced or not. *)
  let cfg = Algorithms.Write_scan.cfg ~n:2 ~m:2 in
  List.iter
    (fun wiring ->
      List.iter
        (fun inputs ->
          WsDiff.cell
            ~name:
              (Fmt.str "write-scan %a %a" Anonmem.Wiring.pp wiring
                 Fmt.(Dump.array int)
                 inputs)
            ~cfg ~wiring ~inputs ())
        [ [| 1; 2 |]; [| 1; 1 |] ])
    wirings2

let test_double_collect_matrix () =
  let cfg = Algorithms.Double_collect.standard ~n:2 in
  List.iter
    (fun wiring ->
      DcDiff.cell
        ~name:(Fmt.str "double-collect %a" Anonmem.Wiring.pp wiring)
        ~cfg ~wiring ~inputs:[| 1; 1 |] ())
    wirings2

let test_consensus_bounded_matrix () =
  let cfg = Algorithms.Consensus.standard ~n:2 in
  let stop (st : ConsDiff.E.state) =
    Array.exists
      (fun (l : Algorithms.Consensus.local) -> l.Algorithms.Consensus.ts >= 2)
      st.ConsDiff.E.locals
  in
  List.iter
    (fun wiring ->
      List.iter
        (fun inputs ->
          ConsDiff.cell
            ~name:
              (Fmt.str "consensus %a %a" Anonmem.Wiring.pp wiring
                 Fmt.(Dump.array int)
                 inputs)
            ~stop_expansion:stop ~cfg ~wiring ~inputs ())
        [ [| 1; 2 |]; [| 1; 1 |] ])
    wirings2

let test_renaming_matrix () =
  let cfg = Algorithms.Renaming.standard ~n:2 in
  List.iter
    (fun wiring ->
      RenDiff.cell
        ~name:(Fmt.str "renaming %a" Anonmem.Wiring.pp wiring)
        ~cfg ~wiring ~inputs:[| 1; 1 |] ())
    wirings2

let test_single_state_space () =
  (* Degenerate space: expansion stopped at the initial state.  One
     state, no transitions, no terminals (a stopped state is never
     expanded), trivially wait-free — in both engines and the
     reference. *)
  let cfg = Snap.standard ~n:2 in
  SnapDiff.cell ~name:"single-state space"
    ~stop_expansion:(fun _ -> true)
    ~cfg
    ~wiring:(Anonmem.Wiring.identity ~n:2 ~m:2)
    ~inputs:[| 1; 2 |] ();
  match
    SnapDiff.reference_counts
      ~stop_expansion:(fun _ -> true)
      ~cfg
      ~wiring:(Anonmem.Wiring.identity ~n:2 ~m:2)
      ~inputs:[| 1; 2 |] ()
  with
  | { states = 1; transitions = 0; terminals = 0; divergent = [] } -> ()
  | _ -> Alcotest.fail "reference: expected one unexpanded state"

(* --- counterexamples: planted bugs found, traces replay ------------- *)

let no_output_invariant cfg (st : SnapDiff.E.state) =
  if Array.exists (fun l -> Snap.output cfg l <> None) st.SnapDiff.E.locals
  then Error "planted: someone terminated"
  else Ok ()

let test_planted_snapshot_counterexample () =
  let cfg = Snap.standard ~n:2 in
  List.iter
    (fun wiring ->
      SnapDiff.violation_cell
        ~name:(Fmt.str "planted snapshot %a" Anonmem.Wiring.pp wiring)
        ~cfg ~wiring ~inputs:[| 1; 2 |]
        ~invariant:(no_output_invariant cfg) ())
    wirings2

let test_planted_snapshot_counterexample_reduced () =
  (* Same planted bug on a single-group assignment with reduction on:
     counterexamples of the quotient space must concretize to replayable
     executions of the same minimal length. *)
  let cfg = Snap.standard ~n:2 in
  List.iter
    (fun wiring ->
      SnapDiff.violation_cell ~reduction:true
        ~name:(Fmt.str "planted snapshot reduced %a" Anonmem.Wiring.pp wiring)
        ~cfg ~wiring ~inputs:[| 1; 1 |]
        ~invariant:(no_output_invariant cfg) ())
    wirings2

let test_planted_double_collect_counterexample () =
  let cfg = Algorithms.Double_collect.standard ~n:2 in
  let invariant (st : DcDiff.E.state) =
    if
      Array.exists
        (fun l -> Algorithms.Double_collect.output cfg l <> None)
        st.DcDiff.E.locals
    then Error "planted: someone terminated"
    else Ok ()
  in
  DcDiff.violation_cell ~name:"planted double-collect"
    ~cfg
    ~wiring:(Anonmem.Wiring.identity ~n:2 ~m:2)
    ~inputs:[| 1; 2 |] ~invariant ()

let test_planted_trace_ids_from_arena_table () =
  (* A planted 3-processor violation deep enough for a nontrivial space:
     the BFS counterexample is reconstructed purely from packed parent
     words and [key_of_id] arena reads of the new State_table, must
     replay through Witness.Replay to a state the invariant rejects, and
     every state along the trace must be interned in the final table. *)
  let cfg = Snap.standard ~n:3 in
  let wiring = Anonmem.Wiring.identity ~n:3 ~m:3 in
  let inputs = [| 1; 2; 3 |] in
  let module E = SnapDiff.E in
  let invariant (st : E.state) =
    if Array.exists (fun l -> Snap.level_of_local l >= 2) st.E.locals then
      Error "planted: level 2 reached"
    else Ok ()
  in
  match E.explore ~invariant ~cfg ~wiring ~inputs () with
  | E.Invariant_failed (space, v) ->
      let module St = Modelcheck.State_table in
      let path = List.map fst v.E.trace in
      Alcotest.(check bool) "nontrivial trace" true (List.length path > 5);
      let final = SnapDiff.Replay.final ~cfg ~wiring ~inputs path in
      (match invariant final with
      | Error _ -> ()
      | Ok () -> Alcotest.fail "replayed trace ends in a non-violating state");
      Alcotest.(check string) "replay endpoint is the reported state"
        (E.encode_state cfg (snd (List.nth v.E.trace (List.length v.E.trace - 1))))
        (E.encode_state cfg final);
      List.iter
        (fun (_, st) ->
          Alcotest.(check bool) "trace state interned in the arena table" true
            (St.mem space.E.table (E.encode_state cfg st)))
        v.E.trace
  | _ -> Alcotest.fail "planted n=3 violation missed"

let test_fault_explorer_reduced_witness () =
  (* Crash masks must canonicalize with their processors: under a
     single-group assignment with reduction on, the fault search still
     catches the planted bug and its witness replays — crash steps
     included — to a violating state. *)
  let cfg = Snap.standard ~n:2 in
  let inputs = [| 1; 1 |] in
  let module FE = Core.Snapshot_fault_mc in
  let invariant = no_output_invariant cfg in
  List.iter
    (fun reduction ->
      match
        FE.explore ~max_crashes:1 ~reduction ~invariant ~cfg
          ~wiring:(Anonmem.Wiring.identity ~n:2 ~m:2)
          ~inputs ()
      with
      | FE.Invariant_failed v ->
          (* Replay the step list (protocol steps + crashes). *)
          let module E = SnapDiff.E in
          let wiring = Anonmem.Wiring.identity ~n:2 ~m:2 in
          let st, mask =
            List.fold_left
              (fun (st, mask) -> function
                | FE.Step p ->
                    Alcotest.(check bool) "stepping pid is live" true
                      (mask land (1 lsl p) = 0);
                    (E.successor cfg wiring st p, mask)
                | FE.Crash p -> (st, mask lor (1 lsl p)))
              (E.init_state ~cfg ~inputs, 0)
              v.FE.steps
          in
          Alcotest.(check int) "crash mask matches replay" v.FE.crashed mask;
          (match invariant st with
          | Error _ -> ()
          | Ok () -> Alcotest.fail "replayed fault witness does not violate");
          Alcotest.(check string) "reported state is the replayed endpoint"
            (E.encode_state cfg v.FE.state)
            (E.encode_state cfg st)
      | _ -> Alcotest.failf "planted bug missed (reduction=%b)" reduction)
    [ false; true ]

let test_snapshot3_nd_search () =
  (* The packed 3-processor checker under the paper's nondeterministic
     write order: single-group inputs refute the non-atomicity target on
     every wiring (fast).  Under MC_LONG, additionally reproduce one
     wiring of the EXPERIMENTS C2 search: (1,1,2)/{1} on the identity
     wiring is refuted after exactly these many states and transitions
     (the full 36-wiring sweep is `make nonatomic`). *)
  let search ~inputs ~target_mask =
    Modelcheck.Snapshot3.find_nonatomic ~inputs ~target_mask
      ~wirings:[ Anonmem.Wiring.identity ~n:3 ~m:3 ]
  in
  (match search ~log2_capacity:16 ~inputs:[| 1; 1; 1 |] ~target_mask:0b001 () with
  | Modelcheck.Snapshot3.Refuted [ _ ] -> ()
  | _ -> Alcotest.fail "single group: expected a refutation");
  if long_mode then
    match search ~inputs:[| 1; 1; 2 |] ~target_mask:0b001 () with
    | Modelcheck.Snapshot3.Refuted [ st ] ->
        Alcotest.(check int) "free-order states" 47_453_305
          st.Modelcheck.Snapshot3.states;
        Alcotest.(check int) "free-order transitions" 96_074_944
          st.Modelcheck.Snapshot3.transitions
    | _ -> Alcotest.fail "(1,1,2)/{1} on the identity wiring: expected a refutation"

(* ------------------------------------------------------------------ *)
(* Canon soundness properties (QCheck).                               *)
(* ------------------------------------------------------------------ *)

module SnapE = SnapDiff.E

let canon_inputs_choices = [ [| 1; 1; 1 |]; [| 1; 1; 2 |]; [| 1; 2; 3 |] ]
let wirings3_arr = Array.of_list wirings3

(* A reachable state's key, driven by a QCheck-supplied walk. *)
let reachable_key cfg wiring inputs walk =
  let st =
    List.fold_left
      (fun st c ->
        match SnapE.enabled cfg st with
        | [] -> st
        | en ->
            SnapE.successor cfg wiring st
              (List.nth en (abs c mod List.length en)))
      (SnapE.init_state ~cfg ~inputs)
      walk
  in
  SnapE.encode_state cfg st

let canon_setup (wsel, isel) =
  let cfg = Snap.standard ~n:3 in
  let wiring = wirings3_arr.(abs wsel mod Array.length wirings3_arr) in
  let inputs =
    List.nth canon_inputs_choices (abs isel mod List.length canon_inputs_choices)
  in
  let canon =
    Canon.make
      ~local_width:(Modelcheck.Codecs.Snapshot.local_width cfg)
      ~value_width:(Modelcheck.Codecs.Snapshot.value_width cfg)
      ~wiring
      ~classes:(Canon.classes_of_inputs inputs)
  in
  (cfg, wiring, inputs, canon)

let gen_cell =
  QCheck.(
    quad (int_bound 1000) (int_bound 2)
      (list_of_size Gen.(0 -- 14) small_int)
      (list_of_size Gen.(0 -- 14) small_int))

let prop_canon_idempotent =
  QCheck.Test.make ~name:"canonicalize is idempotent" ~count:qcheck_count gen_cell
    (fun (wsel, isel, walk, _) ->
      let cfg, wiring, inputs, canon = canon_setup (wsel, isel) in
      let k = reachable_key cfg wiring inputs walk in
      let c = Canon.canonicalize canon k in
      String.equal c (Canon.canonicalize canon c))

let prop_canon_group_invariant =
  QCheck.Test.make
    ~name:"canonicalize constant across the automorphism orbit" ~count:qcheck_count
    gen_cell (fun (wsel, isel, walk, _) ->
      let cfg, wiring, inputs, canon = canon_setup (wsel, isel) in
      let k = reachable_key cfg wiring inputs walk in
      let c = Canon.canonicalize canon k in
      List.for_all
        (fun sym ->
          String.equal c (Canon.canonicalize canon (Canon.apply canon sym k)))
        (Canon.group canon))

let prop_canon_no_unsound_merge =
  (* Two reachable states canonicalize equally iff one is a group image
     of the other — canonicalization never merges across orbits. *)
  QCheck.Test.make ~name:"equal canon keys <=> same orbit" ~count:qcheck_count gen_cell
    (fun (wsel, isel, walk1, walk2) ->
      let cfg, wiring, inputs, canon = canon_setup (wsel, isel) in
      let k1 = reachable_key cfg wiring inputs walk1 in
      let k2 = reachable_key cfg wiring inputs walk2 in
      let same_canon =
        String.equal (Canon.canonicalize canon k1) (Canon.canonicalize canon k2)
      in
      let same_orbit =
        List.exists
          (fun sym -> String.equal (Canon.apply canon sym k1) k2)
          (Canon.group canon)
      in
      same_canon = same_orbit)

let prop_canon_preserves_projections =
  (* Decode-compare: the canonical representative carries the same
     per-input-class multiset of local slices and the same multiset of
     register slices as the original — the invariant-observable
     projections of a symmetric property. *)
  QCheck.Test.make ~name:"canon preserves class-wise slice multisets"
    ~count:qcheck_count gen_cell (fun (wsel, isel, walk, _) ->
      let cfg, wiring, inputs, canon = canon_setup (wsel, isel) in
      let k = reachable_key cfg wiring inputs walk in
      let c = Canon.canonicalize canon k in
      let n = 3 in
      let lw = Modelcheck.Codecs.Snapshot.local_width cfg in
      let vw = Modelcheck.Codecs.Snapshot.value_width cfg in
      let classes = Canon.classes_of_inputs inputs in
      let locals_of key cls =
        List.init n Fun.id
        |> List.filter (fun p -> classes.(p) = cls)
        |> List.map (fun p -> String.sub key (p * lw) lw)
        |> List.sort String.compare
      in
      let regs_of key =
        List.init n (fun r -> String.sub key ((n * lw) + (r * vw)) vw)
        |> List.sort String.compare
      in
      List.for_all
        (fun cls -> locals_of k cls = locals_of c cls)
        [ 0; 1; 2 ]
      && regs_of k = regs_of c)

let test_canon_group_sizes () =
  (* Known group orders: identity wiring with one input class has the
     full S_3 (order 6); all-distinct inputs always give the trivial
     group; and the canonicalizer reports triviality accordingly. *)
  let cfg = Snap.standard ~n:3 in
  let mk wiring inputs =
    Canon.make
      ~local_width:(Modelcheck.Codecs.Snapshot.local_width cfg)
      ~value_width:(Modelcheck.Codecs.Snapshot.value_width cfg)
      ~wiring
      ~classes:(Canon.classes_of_inputs inputs)
  in
  let idw = Anonmem.Wiring.identity ~n:3 ~m:3 in
  Alcotest.(check int) "identity wiring, one class: |G| = 6" 6
    (Canon.group_order (mk idw [| 1; 1; 1 |]));
  Alcotest.(check int) "distinct inputs: trivial group" 1
    (Canon.group_order (mk idw [| 1; 2; 3 |]));
  Alcotest.(check bool) "trivial is reported trivial" true
    (Canon.is_trivial (mk idw [| 1; 2; 3 |]))

(* ------------------------------------------------------------------ *)
(* Structured rejection of over-wide configurations.                  *)
(* ------------------------------------------------------------------ *)

let test_processor_limits_structured () =
  (* >= 16 processors would corrupt the 4-bit pid packing; > 8 would
     overflow the fault explorer's crash-mask byte.  Both must be
     structured errors, not silent corruption. *)
  let module WsE = WsDiff.E in
  let module WsFE = Modelcheck.Fault_explorer.Make (Modelcheck.Codecs.Write_scan) in
  let cfg16 = Algorithms.Write_scan.cfg ~n:16 ~m:2 in
  let wiring16 = Anonmem.Wiring.identity ~n:16 ~m:2 in
  let inputs16 = Array.make 16 1 in
  let expect_unsupported name f =
    match f () with
    | exception Modelcheck.Explorer.Unsupported_processors { processors; limit; _ }
      ->
        Alcotest.(check bool)
          (name ^ ": limit below processor count")
          true (processors > limit)
    | _ -> Alcotest.failf "%s: expected Unsupported_processors" name
  in
  expect_unsupported "explore" (fun () ->
      WsE.explore ~cfg:cfg16 ~wiring:wiring16 ~inputs:inputs16 ());
  expect_unsupported "check_exhaustive" (fun () ->
      WsE.check_exhaustive ~cfg:cfg16 ~wiring:wiring16 ~inputs:inputs16 ());
  let cfg9 = Algorithms.Write_scan.cfg ~n:9 ~m:2 in
  expect_unsupported "fault explore (crash-mask byte)" (fun () ->
      WsFE.explore
        ~invariant:(fun _ -> Ok ())
        ~cfg:cfg9
        ~wiring:(Anonmem.Wiring.identity ~n:9 ~m:2)
        ~inputs:(Array.make 9 1) ());
  (* The registered printer renders the payload, not <exn>. *)
  let printed =
    Printexc.to_string
      (Modelcheck.Explorer.Unsupported_processors
         { engine = "Explorer.explore"; processors = 16; limit = 15 })
  in
  Alcotest.(check bool) "printer names the engine" true
    (String.length printed > 0
    && String.sub printed 0 16 = "Explorer.explore")

(* --- Core-level engine switching ------------------------------------ *)

let test_core_engine_parity () =
  (* Core's two snapshot sweeps — the exact DFS sweep and the fingerprint
     sweep — unreduced and reduced, on both n=2 input shapes: the exact
     unreduced totals equal the reference summed over the same wirings,
     and each fingerprint sweep reports its exact twin's counts. *)
  let module X = Modelcheck.Explorer in
  let cfg = Snap.standard ~n:2 in
  let ok = function
    | Ok s -> s
    | Error e -> Alcotest.fail (X.sweep_error_message e)
  in
  List.iter
    (fun inputs ->
      let nm = Fmt.str "inputs %a" Fmt.(Dump.array int) inputs in
      let exact reduction =
        ok (Core.verify_snapshot_model ~n:2 ~inputs:(Some inputs) ~reduction ())
      in
      let fp reduction =
        ok
          (Core.verify_snapshot_model_fp ~n:2 ~inputs:(Some inputs) ~reduction
             ())
      in
      let states, transitions, terminals =
        List.fold_left
          (fun (s, t, z) wiring ->
            let c =
              SnapDiff.reference_counts
                ~invariant:(Core.snapshot_invariant cfg inputs)
                ~cfg ~wiring ~inputs ()
            in
            Alcotest.(check (list int)) (nm ^ ": reference wait-free") []
              c.divergent;
            (s + c.states, t + c.transitions, z + c.terminals))
          (0, 0, 0) wirings2
      in
      let seq = exact false in
      Alcotest.(check (list int))
        (nm ^ ": exact sweep = reference totals")
        [ states; transitions; terminals ]
        [ seq.X.total_states; seq.X.total_transitions; seq.X.terminal_states ];
      List.iter
        (fun reduction ->
          let e = exact reduction and f = fp reduction in
          Alcotest.(check (list int))
            (Fmt.str "%s%s: fingerprint sweep = exact sweep" nm
               (if reduction then " reduced" else ""))
            [ e.X.wirings_checked; e.X.total_states; e.X.total_transitions ]
            [ f.X.fp_wirings; f.X.fp_total_states; f.X.fp_total_transitions ])
        [ false; true ];
      Alcotest.(check bool)
        (nm ^ ": reduction never grows the sweep")
        true
        ((exact true).X.total_states <= seq.X.total_states))
    [ [| 1; 2 |]; [| 1; 1 |] ]

let () =
  Alcotest.run "par_explorer"
    [
      ( "differential",
        [
          Alcotest.test_case "snapshot n=2, all wirings x inputs" `Quick
            test_snapshot_n2_matrix;
          Alcotest.test_case "snapshot n=3, level-bounded" `Quick
            test_snapshot_n3_bounded;
          Alcotest.test_case "snapshot n=3, full matrix (MC_LONG)" `Slow
            test_snapshot_n3_full_matrix_long;
          Alcotest.test_case "snapshot n=3, unbounded 2x reduction (MC_LONG)"
            `Slow test_snapshot_n3_unbounded_reduction_long;
          Alcotest.test_case "write-scan divergence parity" `Quick
            test_write_scan_divergence_parity;
          Alcotest.test_case "double-collect" `Quick test_double_collect_matrix;
          Alcotest.test_case "consensus, ts-bounded" `Quick
            test_consensus_bounded_matrix;
          Alcotest.test_case "renaming" `Quick test_renaming_matrix;
          Alcotest.test_case "Core engine switching parity" `Quick
            test_core_engine_parity;
          Alcotest.test_case "single-state space" `Quick
            test_single_state_space;
        ] );
      ( "counterexamples",
        [
          Alcotest.test_case "planted snapshot bug, all engines" `Quick
            test_planted_snapshot_counterexample;
          Alcotest.test_case "planted snapshot bug, reduced" `Quick
            test_planted_snapshot_counterexample_reduced;
          Alcotest.test_case "planted double-collect bug" `Quick
            test_planted_double_collect_counterexample;
          Alcotest.test_case "trace ids from the arena table replay" `Quick
            test_planted_trace_ids_from_arena_table;
          Alcotest.test_case "fault explorer reduced witness" `Quick
            test_fault_explorer_reduced_witness;
          Alcotest.test_case "snapshot3 ND search" `Quick
            test_snapshot3_nd_search;
        ] );
      ( "canon",
        [
          QCheck_alcotest.to_alcotest prop_canon_idempotent;
          QCheck_alcotest.to_alcotest prop_canon_group_invariant;
          QCheck_alcotest.to_alcotest prop_canon_no_unsound_merge;
          QCheck_alcotest.to_alcotest prop_canon_preserves_projections;
          Alcotest.test_case "known group orders" `Quick test_canon_group_sizes;
        ] );
      ( "limits",
        [
          Alcotest.test_case "structured processor-count rejection" `Quick
            test_processor_limits_structured;
        ] );
    ]
