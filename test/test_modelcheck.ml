(* Tests of the model checker itself: codec roundtrips, exploration on
   small/known systems, wait-freedom detection (positive and negative), and
   the n=2 instance of the paper's TLC claim. *)

open Repro_util
module Snap = Algorithms.Snapshot
module SnapC = Modelcheck.Codecs.Snapshot
module WsC = Modelcheck.Codecs.Write_scan
module DcC = Modelcheck.Codecs.Double_collect
module MC = Modelcheck.Explorer.Make (SnapC)
module MCW = Modelcheck.Explorer.Make (WsC)
module MCD = Modelcheck.Explorer.Make (DcC)

(* --- codec roundtrips ----------------------------------------------------- *)

let roundtrip_local (type l) name cfg encode decode width (locals : l list) =
  List.iter
    (fun l ->
      let b = Bytes.make (width cfg) '\000' in
      encode cfg l b 0;
      if decode cfg b 0 <> l then Alcotest.fail (name ^ ": local roundtrip failed"))
    locals

let test_snapshot_codec_roundtrip () =
  let cfg = Snap.standard ~n:3 in
  (* drive a processor through a few steps to collect diverse locals *)
  let module Sys = Anonmem.System.Make (Snap) in
  let wiring = Anonmem.Wiring.random (Rng.create ~seed:3) ~n:3 ~m:3 in
  let st = Sys.init ~cfg ~wiring ~inputs:[| 1; 2; 3 |] in
  let seen = ref [] in
  let _ =
    Sys.run ~max_steps:500
      ~sched:(Anonmem.Scheduler.random (Rng.create ~seed:4))
      ~on_event:(fun ~time:_ _ ->
        Array.iter (fun l -> seen := l :: !seen) st.Sys.locals)
      st
  in
  roundtrip_local "snapshot" cfg SnapC.encode_local SnapC.decode_local
    SnapC.local_width !seen;
  (* values *)
  let vals =
    [
      { Snap.view = Iset.empty; level = 0 };
      { Snap.view = Iset.of_list [ 1; 3 ]; level = 2 };
      { Snap.view = Iset.of_list [ 0; 7 ]; level = 5 };
    ]
  in
  List.iter
    (fun v ->
      let b = Bytes.make (SnapC.value_width cfg) '\000' in
      SnapC.encode_value cfg v b 0;
      if SnapC.decode_value cfg b 0 <> v then Alcotest.fail "value roundtrip")
    vals

let test_codec_rejects_out_of_range () =
  let cfg = Snap.standard ~n:3 in
  let v = { Snap.view = Iset.of_list [ 9 ]; level = 0 } in
  Alcotest.check_raises "element 9 needs bit 9"
    (Invalid_argument "Codecs: field out of byte range") (fun () ->
      let b = Bytes.make 2 '\000' in
      SnapC.encode_value cfg v b 0)

(* --- exploration on a 1-processor system ---------------------------------- *)

let test_explore_solo_snapshot () =
  (* One processor, one register: write (view,lvl); scan; level climbs 1
     per round up to n=1 -> terminates after the first clean scan. *)
  let cfg = Snap.cfg ~n:1 ~m:1 in
  let wiring = Anonmem.Wiring.identity ~n:1 ~m:1 in
  match MC.explore ~cfg ~wiring ~inputs:[| 1 |] () with
  | MC.Explored space ->
      Alcotest.(check bool) "few states" true (MC.state_count space <= 6);
      Alcotest.(check int) "one terminal" 1 (List.length space.MC.terminal);
      Alcotest.(check bool) "wait-free" true (MC.is_wait_free space)
  | _ -> Alcotest.fail "expected successful exploration"

let test_explore_finds_invariant_violation () =
  (* A deliberately false invariant must fail on the initial state with an
     empty trace. *)
  let cfg = Snap.cfg ~n:1 ~m:1 in
  let wiring = Anonmem.Wiring.identity ~n:1 ~m:1 in
  match
    MC.explore ~invariant:(fun _ -> Error "nope") ~cfg ~wiring ~inputs:[| 1 |] ()
  with
  | MC.Invariant_failed (_, v) ->
      Alcotest.(check string) "message" "nope" v.MC.message;
      Alcotest.(check int) "violation at initial state" 0 (List.length v.MC.trace)
  | _ -> Alcotest.fail "expected invariant failure"

let test_explore_state_limit () =
  let cfg = Snap.standard ~n:2 in
  let wiring = Anonmem.Wiring.identity ~n:2 ~m:2 in
  match MC.explore ~max_states:10 ~cfg ~wiring ~inputs:[| 1; 2 |] () with
  | MC.State_limit k -> Alcotest.(check bool) "stopped near limit" true (k >= 10)
  | _ -> Alcotest.fail "expected state limit"

let test_trace_reconstruction () =
  let cfg = Snap.cfg ~n:1 ~m:1 in
  let wiring = Anonmem.Wiring.identity ~n:1 ~m:1 in
  (* fail when the processor has terminated: trace = the whole execution *)
  let invariant (st : MC.state) =
    if Snap.output cfg st.MC.locals.(0) <> None then Error "terminated"
    else Ok ()
  in
  match MC.explore ~invariant ~cfg ~wiring ~inputs:[| 1 |] () with
  | MC.Invariant_failed (_, v) ->
      Alcotest.(check bool) "non-empty trace" true (List.length v.MC.trace > 0);
      (* every step in the trace is by processor 0 *)
      List.iter (fun (p, _) -> Alcotest.(check int) "pid" 0 p) v.MC.trace
  | _ -> Alcotest.fail "expected invariant failure at termination"

(* --- wait-freedom / divergence ------------------------------------------- *)

let test_write_scan_diverges () =
  (* The write-scan loop never terminates: the DFS must find a cycle. *)
  let cfg = Algorithms.Write_scan.cfg ~n:2 ~m:2 in
  let wiring = Anonmem.Wiring.identity ~n:2 ~m:2 in
  match MCW.check_exhaustive ~cfg ~wiring ~inputs:[| 1; 2 |] () with
  | MCW.Dfs_cycle { processors; _ } ->
      Alcotest.(check bool) "some processor diverges" true (processors <> [])
  | _ -> Alcotest.fail "expected a divergence cycle"

let test_write_scan_bfs_divergence_agrees () =
  let cfg = Algorithms.Write_scan.cfg ~n:2 ~m:2 in
  let wiring = Anonmem.Wiring.identity ~n:2 ~m:2 in
  match MCW.explore ~cfg ~wiring ~inputs:[| 1; 2 |] () with
  | MCW.Explored space ->
      Alcotest.(check bool) "BFS SCC also reports divergence" false
        (MCW.is_wait_free space);
      Alcotest.(check (list int)) "both processors diverge" [ 0; 1 ]
        (MCW.divergent_processors space)
  | _ -> Alcotest.fail "expected exploration"

let test_snapshot_n1_acyclic () =
  let cfg = Snap.cfg ~n:1 ~m:1 in
  let wiring = Anonmem.Wiring.identity ~n:1 ~m:1 in
  match MC.check_exhaustive ~cfg ~wiring ~inputs:[| 1 |] () with
  | MC.Dfs_ok s ->
      Alcotest.(check bool) "some transitions" true (s.MC.dfs_transitions > 0);
      Alcotest.(check int) "one terminal" 1 s.MC.dfs_terminals
  | _ -> Alcotest.fail "expected acyclic result"

(* --- the n=2 TLC claim ----------------------------------------------------- *)

let test_verify_snapshot_n2_all_wirings () =
  match Core.verify_snapshot_model ~n:2 () with
  | Ok s ->
      Alcotest.(check int) "2 wirings" 2 s.Modelcheck.Explorer.wirings_checked;
      Alcotest.(check bool) "nontrivial spaces" true
        (s.Modelcheck.Explorer.total_states > 100)
  | Error e -> Alcotest.fail (Modelcheck.Explorer.sweep_error_message e)

let test_verify_snapshot_n2_groups () =
  match Core.verify_snapshot_model ~n:2 ~inputs:(Some [| 1; 1 |]) () with
  | Ok s ->
      Alcotest.(check int) "single group verified on both wirings" 2
        s.Modelcheck.Explorer.wirings_checked
  | Error e -> Alcotest.fail (Modelcheck.Explorer.sweep_error_message e)

let test_bfs_and_dfs_agree_on_counts () =
  let cfg = Snap.standard ~n:2 in
  let wiring = Anonmem.Wiring.identity ~n:2 ~m:2 in
  let inputs = [| 1; 2 |] in
  match (MC.explore ~cfg ~wiring ~inputs (), MC.check_exhaustive ~cfg ~wiring ~inputs ()) with
  | MC.Explored space, MC.Dfs_ok s ->
      Alcotest.(check int) "same state count" (MC.state_count space) s.MC.dfs_states;
      Alcotest.(check int) "same transition count" (MC.transition_count space)
        s.MC.dfs_transitions;
      Alcotest.(check int) "same terminal count"
        (List.length space.MC.terminal)
        s.MC.dfs_terminals
  | _ -> Alcotest.fail "expected both to succeed"

(* Terminal outcomes of the n=2 exploration all satisfy the snapshot task. *)
let test_terminal_outcomes_valid () =
  let cfg = Snap.standard ~n:2 in
  let inputs = [| 1; 2 |] in
  List.iter
    (fun wiring ->
      match MC.explore ~cfg ~wiring ~inputs () with
      | MC.Explored space ->
          let outcomes =
            MC.terminal_outcomes space ~group_of_input:Fun.id ~to_task_output:Fun.id
          in
          Alcotest.(check bool) "has terminal states" true (outcomes <> []);
          List.iter
            (fun o ->
              match Tasks.Snapshot_task.check_strong o with
              | Ok () -> ()
              | Error e -> Alcotest.fail (Tasks.Task_failure.to_string e))
            outcomes
      | _ -> Alcotest.fail "exploration failed")
    (Anonmem.Wiring.enumerate ~n:2 ~m:2 ~fix_first:true)

(* --- double-collect: exhaustively hunting for its unsoundness ------------- *)

let test_double_collect_explored () =
  (* For n=2 the broken double-collect baseline: explore and validate that
     exploration machinery handles it; record whether its terminal outcomes
     are task-valid (they are at n=2; the Figure-2 attack needs the churn of
     more processors). *)
  let cfg = Algorithms.Double_collect.standard ~n:2 in
  let inputs = [| 1; 2 |] in
  List.iter
    (fun wiring ->
      match MCD.explore ~cfg ~wiring ~inputs () with
      | MCD.Explored space ->
          Alcotest.(check bool) "explored" true (MCD.state_count space > 0)
      | MCD.Invariant_failed _ -> Alcotest.fail "no invariant given"
      | MCD.State_limit _ -> Alcotest.fail "unexpected state limit"
      | MCD.Exhausted _ -> Alcotest.fail "unexpected exhaustion")
    (Anonmem.Wiring.enumerate ~n:2 ~m:2 ~fix_first:true)

(* --- the packed 3-processor checker ---------------------------------------- *)

let test_snapshot3_selfcheck () =
  let compared = Modelcheck.Snapshot3.selfcheck ~runs:30 ~max_steps:1_000 () in
  Alcotest.(check bool) "many steps compared" true (compared > 2_000)

let test_snapshot3_bit_layout () =
  let open Modelcheck.Snapshot3 in
  let l = mk_local ~view:5 ~level:3 ~written:6 ~phase:6 ~mn:3 in
  Alcotest.(check int) "view" 5 (l_view l);
  Alcotest.(check int) "level" 3 (l_level l);
  Alcotest.(check int) "written" 6 (l_written l);
  Alcotest.(check int) "phase" 6 (l_phase l);
  Alcotest.(check int) "min" 3 (l_min l);
  let s = set_local (set_reg 0 2 (mk_reg ~view:7 ~level:1)) 1 l in
  Alcotest.(check int) "local roundtrip through state" l (get_local s 1);
  Alcotest.(check int) "reg view" 7 (r_view (get_reg s 2));
  Alcotest.(check int) "reg level" 1 (r_level (get_reg s 2));
  Alcotest.(check int) "other locals untouched" 0 (get_local s 0)

let test_snapshot3_rejects_bad_inputs () =
  Alcotest.check_raises "input out of range"
    (Invalid_argument "Snapshot3: inputs must be in 1..3") (fun () ->
      ignore (Modelcheck.Snapshot3.initial_state [| 1; 2; 9 |]))

(* --- the paper's nondeterministic write order -------------------------------- *)

let rotation3 = Anonmem.Wiring.of_lists [ [ 0; 1; 2 ]; [ 1; 2; 0 ]; [ 2; 0; 1 ] ]

let test_snapshot3_choices () =
  let open Modelcheck.Snapshot3 in
  let s = initial_state [| 1; 2; 3 |] in
  (* initially every processor is writing with an empty round set: 3
     choices each *)
  List.iter
    (fun p -> Alcotest.(check int) "3 write choices" 3 (choices s p))
    [ 0; 1; 2 ];
  let sigma = [| 0; 1; 2 |] in
  let s = step s 0 1 sigma in
  Alcotest.(check int) "scanning: one choice" 1 (choices s 0);
  Alcotest.(check int) "choice 1 wrote private register 1" 0b010
    (l_written (get_local s 0));
  Alcotest.(check int) "first unwritten" 0 (write_target 0b000 0);
  Alcotest.(check int) "skip written" 1 (write_target 0b001 0);
  Alcotest.(check int) "second choice" 2 (write_target 0b001 1);
  Alcotest.(check int) "only r1 free" 1 (write_target 0b101 0)

let test_snapshot3_choice0_is_cyclic () =
  (* Choice 0 is the implementation's cyclic order: its written sets are
     the prefixes {}, {0}, {0,1} (one-to-one with a cyclic cursor), and
     the claim-7a check explores exactly the states the cursor layout
     did.  Counts pinned from that layout, DFS order included. *)
  let open Modelcheck.Snapshot3 in
  let rng = Rng.create ~seed:11 in
  let wiring = Anonmem.Wiring.random rng ~n:3 ~m:3 in
  let sigmas = sigmas_of wiring in
  let s = ref (initial_state [| 1; 2; 3 |]) in
  for _ = 1 to 500 do
    match List.filter (fun p -> choices !s p > 0) [ 0; 1; 2 ] with
    | [] -> ()
    | enabled ->
        let p = Rng.pick rng enabled in
        s := step !s p 0 sigmas.(p);
        List.iter
          (fun q ->
            let w = l_written (get_local !s q) in
            Alcotest.(check bool) "choice-0 written set is a prefix" true
              (w = 0 || w = 0b001 || w = 0b011))
          [ 0; 1; 2 ]
  done;
  match check ~log2_capacity:22 ~wiring:rotation3 ~inputs:[| 1; 1; 1 |] () with
  | Verified st ->
      Alcotest.(check int) "states" 1_605_993 st.states;
      Alcotest.(check int) "transitions" 4_752_099 st.transitions;
      Alcotest.(check int) "terminals" 1 st.terminals;
      Alcotest.(check int) "DFS depth" 154 st.max_depth
  | _ -> Alcotest.fail "cyclic (1,1,1) on the rotation wiring not verified"

let test_snapshot3_single_group_refuted () =
  (* With a single group, every view is {1}: the first write puts {1} in
     memory and the whole subtree is pruned, so the search refutes the
     target immediately on every wiring. *)
  match
    Modelcheck.Snapshot3.find_nonatomic ~log2_capacity:16
      ~inputs:[| 1; 1; 1 |] ~target_mask:0b001
      ~wirings:[ Anonmem.Wiring.identity ~n:3 ~m:3; rotation3 ]
      ()
  with
  | Modelcheck.Snapshot3.Refuted per_wiring ->
      Alcotest.(check int) "one record per wiring" 2 (List.length per_wiring)
  | _ -> Alcotest.fail "single group must be refuted"

(* --- consensus codec -------------------------------------------------------- *)

let test_consensus_codec_roundtrip () =
  let module Cc = Modelcheck.Codecs.Consensus in
  let module CSys = Anonmem.System.Make (Algorithms.Consensus) in
  let cfg = Algorithms.Consensus.standard ~n:2 in
  let wiring = Anonmem.Wiring.random (Rng.create ~seed:6) ~n:2 ~m:2 in
  let st = CSys.init ~cfg ~wiring ~inputs:[| 1; 2 |] in
  let checked = ref 0 in
  let _ =
    CSys.run ~max_steps:400
      ~sched:(Anonmem.Scheduler.random (Rng.create ~seed:7))
      ~on_event:(fun ~time:_ _ ->
        Array.iter
          (fun (l : Algorithms.Consensus.local) ->
            let b = Bytes.make (Cc.local_width cfg) '\000' in
            Cc.encode_local cfg l b 0;
            let l' = Cc.decode_local cfg b 0 in
            (* [input] and [rounds] are deliberately quotiented away *)
            let scrub (x : Algorithms.Consensus.local) =
              { x with Algorithms.Consensus.input = 0; rounds = 0 }
            in
            if scrub l' <> scrub l then Alcotest.fail "consensus local roundtrip";
            incr checked)
          st.CSys.locals)
      st
  in
  Alcotest.(check bool) "checked many locals" true (!checked > 100)

let test_consensus_codec_bounds () =
  let module Cc = Modelcheck.Codecs.Consensus in
  Alcotest.check_raises "timestamp too large"
    (Invalid_argument "Codecs.Consensus: (value, timestamp) out of bounds")
    (fun () -> ignore (Cc.pair_index (1, 99)))

(* --- codec round-trip properties (QCheck) ---------------------------------- *)

(* [decode (encode x) = x] over random reachable-shaped states for all
   five protocol codecs.  The generators draw every field from the range
   the codec documents (views as byte bitmasks, scan positions below the
   register count, consensus pairs within the pair-index bounds), so a
   failure is a genuine codec bug, not an out-of-contract input.  The
   driven-execution roundtrips above stay: they cover correlations the
   independent field generators cannot (QCheck covers the full field
   product, the executions cover realism). *)

let qcheck_count =
  match Sys.getenv_opt "QCHECK_COUNT" with
  | Some s -> int_of_string s
  | None -> 300

let gen_iset = QCheck.Gen.(map Iset.of_bits (int_bound 255))

module SC = Algorithms.Snapshot.Core

let gen_snap_phase =
  QCheck.Gen.(
    oneof
      [
        return SC.Writing;
        map3
          (fun pos all_own min_level ->
            SC.Scanning { SC.pos; all_own; min_level })
          (int_bound 7) bool (int_bound 7);
      ])

let gen_snap_local =
  QCheck.Gen.(
    map3
      (fun view level (next_write, phase) ->
        { SC.view; level; next_write; phase })
      gen_iset (int_bound 7)
      (pair (int_bound 7) gen_snap_phase))

let codec_roundtrip (type l) name ~(width : int) ~(gen : l QCheck.Gen.t)
    ~(encode : l -> Bytes.t -> int -> unit) ~(decode : Bytes.t -> int -> l)
    ?(eq : l -> l -> bool = ( = )) () =
  QCheck.Test.make
    ~name:(name ^ ": decode (encode x) = x")
    ~count:qcheck_count (QCheck.make gen) (fun x ->
      let b = Bytes.make width '\000' in
      encode x b 0;
      eq (decode b 0) x)

let prop_snapshot_local =
  let cfg = Snap.standard ~n:3 in
  codec_roundtrip "snapshot local" ~width:(SnapC.local_width cfg)
    ~gen:gen_snap_local
    ~encode:(SnapC.encode_local cfg)
    ~decode:(SnapC.decode_local cfg)
    ()

let prop_snapshot_value =
  let cfg = Snap.standard ~n:3 in
  codec_roundtrip "snapshot value" ~width:(SnapC.value_width cfg)
    ~gen:
      QCheck.Gen.(
        map2 (fun view level -> { Snap.view; level }) gen_iset (int_bound 7))
    ~encode:(SnapC.encode_value cfg)
    ~decode:(SnapC.decode_value cfg)
    ()

let prop_write_scan_local =
  let module W = Algorithms.Write_scan in
  let cfg = W.cfg ~n:3 ~m:3 in
  codec_roundtrip "write-scan local" ~width:(WsC.local_width cfg)
    ~gen:
      QCheck.Gen.(
        map3
          (fun view next_write phase -> { W.view; next_write; phase })
          gen_iset (int_bound 7)
          (oneof
             [
               return W.Writing;
               map (fun pos -> W.Scanning { W.pos }) (int_bound 7);
             ]))
    ~encode:(WsC.encode_local cfg)
    ~decode:(WsC.decode_local cfg)
    ()

let prop_double_collect_local =
  let module D = Algorithms.Double_collect in
  let cfg = D.standard ~n:3 in
  codec_roundtrip "double-collect local" ~width:(DcC.local_width cfg)
    ~gen:
      QCheck.Gen.(
        map3
          (fun view (next_write, streak) phase ->
            { D.view; next_write; streak; phase })
          gen_iset
          (pair (int_bound 7) (int_bound 7))
          (oneof
             [
               return D.Writing;
               map2
                 (fun pos all_own -> D.Scanning { D.pos; all_own })
                 (int_bound 7) bool;
             ]))
    ~encode:(DcC.encode_local cfg)
    ~decode:(DcC.decode_local cfg)
    ()

module Cc = Modelcheck.Codecs.Consensus
module Cons = Algorithms.Consensus

(* Pair sets as random 24-bit masks: exactly the codec's own value space
   ((value, timestamp) with value in 1..3, timestamp in 0..7). *)
let gen_pset = QCheck.Gen.(map Cc.pset_of_bits (int_bound ((1 lsl 24) - 1)))

let gen_consensus_snap_local =
  QCheck.Gen.(
    map3
      (fun view level (next_write, phase) ->
        { Cons.Snap.Core.view; level; next_write; phase })
      gen_pset (int_bound 7)
      (pair (int_bound 7)
         (oneof
            [
              return Cons.Snap.Core.Writing;
              map3
                (fun pos all_own min_level ->
                  Cons.Snap.Core.Scanning
                    { Cons.Snap.Core.pos; all_own; min_level })
                (int_bound 7) bool (int_bound 7);
            ])))

let prop_consensus_local =
  let cfg = Cons.standard ~n:3 in
  (* [input] decodes as [pref] and [rounds] as 0 by design (the ghost
     fields are quotiented away), so generate states already in that
     normal form — on those the codec must be an exact inverse. *)
  let gen =
    QCheck.Gen.(
      map3
        (fun (pref, ts) decided snap ->
          { Cons.input = pref; pref; ts; decided; rounds = 0; snap })
        (pair (1 -- 3) (int_bound 7))
        (oneof [ return None; map (fun v -> Some v) (1 -- 3) ])
        gen_consensus_snap_local)
  in
  codec_roundtrip "consensus local" ~width:(Cc.local_width cfg) ~gen
    ~encode:(Cc.encode_local cfg)
    ~decode:(Cc.decode_local cfg)
    ()

let prop_consensus_value =
  let cfg = Cons.standard ~n:3 in
  codec_roundtrip "consensus value" ~width:(Cc.value_width cfg)
    ~gen:
      QCheck.Gen.(
        map2
          (fun view level -> { Cons.Snap.Core.view; level })
          gen_pset (int_bound 7))
    ~encode:(Cc.encode_value cfg)
    ~decode:(Cc.decode_value cfg)
    ()

module RenC = Modelcheck.Codecs.Renaming
module Ren = Algorithms.Renaming

let prop_renaming_local =
  let cfg = Ren.standard ~n:3 in
  codec_roundtrip "renaming local" ~width:(RenC.local_width cfg)
    ~gen:
      QCheck.Gen.(
        map2 (fun group core -> { Ren.group; core }) (int_bound 7)
          gen_snap_local)
    ~encode:(RenC.encode_local cfg)
    ~decode:(RenC.decode_local cfg)
    ()

(* Out-of-range fields must raise the structured byte-range error and
   leave every byte outside the encoding slot untouched: the buffer is a
   shared state arena in the explorers, so a partial encode must never
   bleed into a neighbouring processor's slice. *)
let check_out_of_range name width encode =
  let b = Bytes.make (width + 2) '\xAB' in
  (match encode b 1 with
  | exception Invalid_argument msg ->
      Alcotest.(check string)
        (name ^ ": structured error")
        "Codecs: field out of byte range" msg
  | exception e ->
      Alcotest.failf "%s: expected byte-range error, got %s" name
        (Printexc.to_string e)
  | () -> Alcotest.failf "%s: out-of-range field encoded" name);
  Alcotest.(check char) (name ^ ": left neighbour intact") '\xAB' (Bytes.get b 0);
  Alcotest.(check char)
    (name ^ ": right neighbour intact")
    '\xAB'
    (Bytes.get b (width + 1))

let test_codecs_out_of_range_structured () =
  let scfg = Snap.standard ~n:3 in
  check_out_of_range "snapshot level=300" (SnapC.local_width scfg) (fun b off ->
      SnapC.encode_local scfg
        { SC.view = Iset.empty; level = 300; next_write = 0; phase = SC.Writing }
        b off);
  let wcfg = Algorithms.Write_scan.cfg ~n:3 ~m:3 in
  check_out_of_range "write-scan next_write=256" (WsC.local_width wcfg)
    (fun b off ->
      WsC.encode_local wcfg
        {
          Algorithms.Write_scan.view = Iset.empty;
          next_write = 256;
          phase = Algorithms.Write_scan.Writing;
        }
        b off);
  let dcfg = Algorithms.Double_collect.standard ~n:3 in
  check_out_of_range "double-collect streak=-1" (DcC.local_width dcfg)
    (fun b off ->
      DcC.encode_local dcfg
        {
          Algorithms.Double_collect.view = Iset.empty;
          next_write = 0;
          streak = -1;
          phase = Algorithms.Double_collect.Writing;
        }
        b off);
  let ccfg = Cons.standard ~n:3 in
  check_out_of_range "consensus ts=999" (Cc.local_width ccfg) (fun b off ->
      Cc.encode_local ccfg
        {
          Cons.input = 1;
          pref = 1;
          ts = 999;
          decided = None;
          rounds = 0;
          snap = Cons.Snap.init ccfg (1, 0);
        }
        b off);
  let rcfg = Ren.standard ~n:3 in
  check_out_of_range "renaming group=300" (RenC.local_width rcfg) (fun b off ->
      RenC.encode_local rcfg
        {
          Ren.group = 300;
          core =
            { SC.view = Iset.empty; level = 0; next_write = 0; phase = SC.Writing };
        }
        b off)

(* --- key-native successors vs the boxed reference ------------------------ *)

(* The engines expand states with [step_key] and intern
   [Canon.canonicalize_into] images; [decode_state], [successor],
   [encode_state], [canonicalize] and [canonicalize_masked] are the
   reference semantics.  For every codec, random walks under random
   wirings visit states whose every successor key (plain, and with a
   random crash-mask byte as the fault engine stores it) must match the
   reference byte for byte, and whose canonical images must agree.  The
   canonicalizer is built for all processors in one class — the wiring's
   full automorphism group — so nontrivial groups occur for every
   layout. *)
module Key_step (P : Modelcheck.Explorer.CHECKABLE) = struct
  module E = Modelcheck.Explorer.Make (P)

  let fail fmt = QCheck.Test.fail_reportf fmt

  (* Check every processor's step from [st]'s key; [Some p] picks the
     walk's next enabled processor. *)
  let check_state ~cfg ~wiring ~canon ~mask ~rng ks kf st =
    let n = P.processors cfg and kw = E.key_width cfg in
    let key = E.encode_state cfg st in
    let fkey = key ^ String.make 1 (Char.chr mask) in
    let cbuf = Bytes.create kw and fbuf = Bytes.create (kw + 1) in
    Modelcheck.Canon.canonicalize_into canon (Bytes.of_string key) cbuf;
    if Bytes.to_string cbuf <> Modelcheck.Canon.canonicalize canon key then
      fail "canonicalize_into differs from canonicalize";
    Modelcheck.Canon.canonicalize_into ~masked:true canon (Bytes.of_string fkey)
      fbuf;
    if Bytes.to_string fbuf <> Modelcheck.Canon.canonicalize_masked canon fkey
    then fail "masked canonicalize_into differs from canonicalize_masked";
    Bytes.blit_string key 0 ks.E.parent_key 0 kw;
    E.load_parent ks;
    Bytes.blit_string fkey 0 kf.E.parent_key 0 (kw + 1);
    E.load_parent kf;
    let reference = E.decode_state cfg key in
    let enabled = ref [] in
    for p = 0 to n - 1 do
      match P.next cfg reference.E.locals.(p) with
      | None ->
          if E.step_key ks p || E.step_key kf p then
            fail "step_key stepped halted p%d" p
      | Some _ -> (
          match E.encode_state cfg (E.successor cfg wiring reference p) with
          | exception Invalid_argument _ -> (
              (* outside the codec's range: the key step refuses too *)
              match E.step_key ks p with
              | exception Invalid_argument _ -> ()
              | _ -> fail "step_key encoded an out-of-range successor")
          | want ->
              enabled := p :: !enabled;
              if not (E.step_key ks p) then fail "step_key skipped p%d" p;
              if Bytes.to_string ks.E.next_key <> want then
                fail "step_key p%d differs from the reference" p;
              if not (E.step_key kf p) then fail "masked step_key skipped p%d" p;
              if Bytes.to_string kf.E.next_key <> want ^ String.make 1 (Char.chr mask)
              then fail "masked step_key p%d differs from the reference" p)
    done;
    match !enabled with
    | [] -> None
    | l -> Some (List.nth l (Rng.int rng (List.length l)))

  let prop name ~configs =
    QCheck.Test.make ~name:("key step: " ^ name) ~count:qcheck_count
      QCheck.(
        triple
          (int_bound (List.length configs - 1))
          (int_bound 1_000_000) (int_bound 60))
      (fun (ci, seed, len) ->
        let cfg, inputs = List.nth configs ci in
        let n = P.processors cfg and m = P.registers cfg in
        let rng = Rng.create ~seed in
        let wiring =
          if Rng.bool rng then Anonmem.Wiring.identity ~n ~m
          else Anonmem.Wiring.random rng ~n ~m
        in
        let canon =
          Modelcheck.Canon.make ~local_width:(P.local_width cfg)
            ~value_width:(P.value_width cfg) ~wiring
            ~classes:(Array.make n 0)
        in
        let mask = Rng.int rng (1 lsl n) in
        let ks = E.stepper ~cfg ~wiring ()
        and kf = E.stepper ~extra:1 ~cfg ~wiring () in
        let rec walk st k =
          match check_state ~cfg ~wiring ~canon ~mask ~rng ks kf st with
          | Some p when k > 0 -> walk (E.successor cfg wiring st p) (k - 1)
          | _ -> true
        in
        walk (E.init_state ~cfg ~inputs) len)
end

module Ks_snapshot = Key_step (SnapC)
module Ks_write_scan = Key_step (WsC)
module Ks_double_collect = Key_step (DcC)
module Ks_consensus = Key_step (Modelcheck.Codecs.Consensus)
module Ks_renaming = Key_step (Modelcheck.Codecs.Renaming)
module Ks_rt_mutex = Key_step (Modelcheck.Codecs.Rt_mutex)
module Ks_weak_leader = Key_step (Modelcheck.Codecs.Weak_leader)
module Ks_naming = Key_step (Modelcheck.Codecs.Naming)

let ids n = Array.init n (fun i -> i + 1)

let key_step_props =
  [
    Ks_snapshot.prop "snapshot"
      ~configs:
        [
          (Snap.standard ~n:2, [| 1; 1 |]);
          (Snap.standard ~n:3, [| 1; 1; 1 |]);
          (Snap.standard ~n:3, [| 1; 2; 1 |]);
          (Snap.cfg ~n:2 ~m:3, [| 0; 7 |]);
        ];
    Ks_write_scan.prop "write-scan"
      ~configs:
        [
          (Algorithms.Write_scan.cfg ~n:2 ~m:2, [| 1; 2 |]);
          (Algorithms.Write_scan.cfg ~n:3 ~m:3, [| 1; 1; 2 |]);
        ];
    Ks_double_collect.prop "double-collect"
      ~configs:
        [
          (Algorithms.Double_collect.standard ~n:2, [| 1; 2 |]);
          (Algorithms.Double_collect.standard ~n:3, [| 1; 1; 1 |]);
        ];
    Ks_consensus.prop "consensus"
      ~configs:
        [
          (Cons.standard ~n:2, [| 1; 2 |]);
          (Cons.standard ~n:3, [| 1; 2; 3 |]);
          (Cons.standard ~n:2, [| 2; 2 |]);
        ];
    Ks_renaming.prop "renaming"
      ~configs:
        [
          (Ren.standard ~n:2, [| 1; 2 |]); (Ren.standard ~n:3, [| 1; 1; 2 |]);
        ];
    Ks_rt_mutex.prop "rt-mutex"
      ~configs:
        [
          (Algorithms.Rt_mutex.cfg ~n:2 ~m:3, ids 2);
          (Algorithms.Rt_mutex.cfg ~n:3 ~m:4, ids 3);
          (Algorithms.Rt_mutex.cfg_eager ~n:2 ~m:2, ids 2);
        ];
    Ks_weak_leader.prop "weak-leader"
      ~configs:
        [
          (Algorithms.Weak_leader.cfg ~n:2 ~m:2, ids 2);
          (Algorithms.Weak_leader.cfg ~n:3 ~m:3, ids 3);
        ];
    Ks_naming.prop "naming"
      ~configs:
        [
          (Algorithms.Naming.cfg ~n:2 ~m:3, ids 2);
          (Algorithms.Naming.cfg ~n:3 ~m:4, ids 3);
        ];
  ]

(* Violation reports survive the key path: the BFS trace replays under the
   reference semantics to the violating key with the minimal length a
   naive boxed BFS finds; the DFS reports the boxed successor of the
   decoded parent — not the decoded key, which differs from it for codecs
   that drop ghost fields (Consensus drops [rounds] and [input]); the
   fingerprint and fault engines report states the invariant really
   rejects with their message. *)
module Violations (P : Modelcheck.Explorer.CHECKABLE) = struct
  module E = Modelcheck.Explorer.Make (P)
  module F = Modelcheck.Fault_explorer.Make (P)

  let key cfg st = E.encode_state cfg st

  (* Depth of the shallowest violating state, by a naive BFS over
     decoded states keyed by their encodings. *)
  let min_depth ~cfg ~wiring ~inputs ~invariant ~stop =
    let seen = Hashtbl.create 1024 in
    let rec layer depth frontier =
      if frontier = [] then Alcotest.fail "reference BFS found no violation"
      else if List.exists (fun st -> Result.is_error (invariant st)) frontier
      then depth
      else
        layer (depth + 1)
          (List.concat_map
             (fun st ->
               if stop st then []
               else
                 List.filter_map
                   (fun p ->
                     let k = key cfg (E.successor cfg wiring st p) in
                     if Hashtbl.mem seen k then None
                     else begin
                       Hashtbl.add seen k ();
                       Some (E.decode_state cfg k)
                     end)
                   (E.enabled cfg st))
             frontier)
    in
    let k0 = key cfg (E.init_state ~cfg ~inputs) in
    Hashtbl.add seen k0 ();
    layer 0 [ E.decode_state cfg k0 ]

  let check_message invariant st message =
    Alcotest.(check (result unit string))
      "message is the invariant's verdict on the reported state"
      (Error message) (invariant st)

  let run ~cfg ~wiring ~inputs ~invariant ?(stop = fun _ -> false) () =
    let depth = min_depth ~cfg ~wiring ~inputs ~invariant ~stop in
    (match
       E.explore ~invariant ~stop_expansion:stop ~cfg ~wiring ~inputs ()
     with
    | E.Invariant_failed (space, v) ->
        Alcotest.(check int) "BFS trace is minimal" depth (List.length v.E.trace);
        let final =
          List.fold_left
            (fun st (p, post) ->
              Alcotest.(check string) "trace step replays"
                (key cfg (E.successor cfg wiring st p)) (key cfg post);
              post)
            (E.init_state ~cfg ~inputs) v.E.trace
        in
        Alcotest.(check string) "trace ends at the violating key"
          (Modelcheck.State_table.key_of_id space.E.table v.E.state_id)
          (key cfg final);
        check_message invariant final v.E.message
    | _ -> Alcotest.fail "BFS: expected an invariant failure");
    (match
       E.check_exhaustive ~fail_on_cycle:false ~invariant ~stop_expansion:stop
         ~cfg ~wiring ~inputs ()
     with
    | E.Dfs_invariant_failed { message; state; path; _ } ->
        let expected =
          match List.rev path with
          | [] -> E.init_state ~cfg ~inputs
          | last :: rev_prefix ->
              let parent_key =
                List.fold_left
                  (fun k p ->
                    key cfg (E.successor cfg wiring (E.decode_state cfg k) p))
                  (key cfg (E.init_state ~cfg ~inputs))
                  (List.rev rev_prefix)
              in
              E.successor cfg wiring (E.decode_state cfg parent_key) last
        in
        if state <> expected then
          Alcotest.fail "DFS: reported state is not the boxed reference successor";
        check_message invariant state message
    | _ -> Alcotest.fail "DFS: expected an invariant failure");
    (match
       E.explore_fp ~invariant ~stop_expansion:stop ~cfg ~wiring ~inputs ()
     with
    | E.Fp_invariant_failed { message; trace; _ } ->
        Alcotest.(check int) "fingerprint trace is minimal" depth
          (List.length trace);
        let final =
          List.fold_left (fun _ (_, post) -> post) (E.init_state ~cfg ~inputs) trace
        in
        check_message invariant final message
    | _ -> Alcotest.fail "fingerprint: expected an invariant failure");
    if not (List.exists (fun st -> stop st) [ E.init_state ~cfg ~inputs ]) then
      match F.explore ~max_crashes:1 ~invariant ~cfg ~wiring ~inputs () with
      | F.Invariant_failed v ->
          let st, _ =
            List.fold_left
              (fun (st, mask) -> function
                | F.Step p -> (E.successor cfg wiring st p, mask)
                | F.Crash p -> (st, mask lor (1 lsl p)))
              (E.init_state ~cfg ~inputs, 0)
              v.F.steps
          in
          Alcotest.(check string) "fault witness replays to the state"
            (key cfg st) (key cfg v.F.state);
          check_message invariant v.F.state v.F.message
      | _ -> Alcotest.fail "fault: expected an invariant failure"
end

module Snap_violations = Violations (SnapC)
module Cons_violations = Violations (Cc)

let test_violation_reports_snapshot () =
  let cfg = Snap.standard ~n:2 in
  let invariant (st : Snap_violations.E.state) =
    match
      List.filter
        (fun p -> Snap.output cfg st.Snap_violations.E.locals.(p) <> None)
        [ 0; 1 ]
    with
    | [] -> Ok ()
    | p :: _ -> Error (Printf.sprintf "p%d terminated" (p + 1))
  in
  List.iter
    (fun wiring ->
      Snap_violations.run ~cfg ~wiring ~inputs:[| 1; 2 |] ~invariant ())
    (Anonmem.Wiring.enumerate ~n:2 ~m:2 ~fix_first:true)

let test_violation_reports_consensus () =
  (* A decision is the first step that completes a snapshot round, so the
     reference successor carries [rounds = 1] while the decoded key says
     0: the DFS report must be the former. *)
  let cfg = Cons.standard ~n:2 in
  let invariant (st : Cons_violations.E.state) =
    match
      Array.to_list st.Cons_violations.E.locals
      |> List.filter_map (fun l -> l.Cons.decided)
    with
    | [] -> Ok ()
    | v :: _ -> Error (Printf.sprintf "decided %d" v)
  in
  let stop (st : Cons_violations.E.state) =
    Array.exists (fun l -> l.Cons.ts >= 3) st.Cons_violations.E.locals
  in
  List.iter
    (fun wiring ->
      Cons_violations.run ~cfg ~wiring ~inputs:[| 1; 2 |] ~invariant ~stop ())
    (Anonmem.Wiring.enumerate ~n:2 ~m:2 ~fix_first:true)

let () =
  Alcotest.run "modelcheck"
    [
      ( "codecs",
        [
          Alcotest.test_case "snapshot roundtrip" `Quick test_snapshot_codec_roundtrip;
          Alcotest.test_case "out-of-range rejected" `Quick
            test_codec_rejects_out_of_range;
        ] );
      ( "exploration",
        [
          Alcotest.test_case "solo snapshot" `Quick test_explore_solo_snapshot;
          Alcotest.test_case "invariant violation" `Quick
            test_explore_finds_invariant_violation;
          Alcotest.test_case "state limit" `Quick test_explore_state_limit;
          Alcotest.test_case "trace reconstruction" `Quick test_trace_reconstruction;
        ] );
      ( "wait-freedom",
        [
          Alcotest.test_case "write-scan diverges (DFS)" `Quick
            test_write_scan_diverges;
          Alcotest.test_case "write-scan diverges (BFS SCC)" `Quick
            test_write_scan_bfs_divergence_agrees;
          Alcotest.test_case "n=1 snapshot acyclic" `Quick test_snapshot_n1_acyclic;
        ] );
      ( "tlc-claim-n2",
        [
          Alcotest.test_case "all wirings verified" `Quick
            test_verify_snapshot_n2_all_wirings;
          Alcotest.test_case "group inputs verified" `Quick
            test_verify_snapshot_n2_groups;
          Alcotest.test_case "BFS/DFS agree" `Quick test_bfs_and_dfs_agree_on_counts;
          Alcotest.test_case "terminal outcomes valid" `Quick
            test_terminal_outcomes_valid;
        ] );
      ( "double-collect",
        [ Alcotest.test_case "explorable" `Quick test_double_collect_explored ] );
      ( "snapshot3",
        [
          Alcotest.test_case "selfcheck vs reference" `Quick
            test_snapshot3_selfcheck;
          Alcotest.test_case "bit layout" `Quick test_snapshot3_bit_layout;
          Alcotest.test_case "input validation" `Quick
            test_snapshot3_rejects_bad_inputs;
          Alcotest.test_case "ND: choices and targets" `Quick
            test_snapshot3_choices;
          Alcotest.test_case "ND: choice 0 = cyclic order" `Quick
            test_snapshot3_choice0_is_cyclic;
          Alcotest.test_case "ND: single-group refuted" `Quick
            test_snapshot3_single_group_refuted;
        ] );
      ( "consensus-codec",
        [
          Alcotest.test_case "roundtrip" `Quick test_consensus_codec_roundtrip;
          Alcotest.test_case "bounds" `Quick test_consensus_codec_bounds;
        ] );
      ( "codec-qcheck",
        [
          QCheck_alcotest.to_alcotest prop_snapshot_local;
          QCheck_alcotest.to_alcotest prop_snapshot_value;
          QCheck_alcotest.to_alcotest prop_write_scan_local;
          QCheck_alcotest.to_alcotest prop_double_collect_local;
          QCheck_alcotest.to_alcotest prop_consensus_local;
          QCheck_alcotest.to_alcotest prop_consensus_value;
          QCheck_alcotest.to_alcotest prop_renaming_local;
          Alcotest.test_case "out-of-range leaves neighbours intact" `Quick
            test_codecs_out_of_range_structured;
        ] );
      ( "key-step",
        List.map QCheck_alcotest.to_alcotest key_step_props
        @ [
            Alcotest.test_case "violation reports: snapshot" `Quick
              test_violation_reports_snapshot;
            Alcotest.test_case "violation reports: consensus ghosts" `Quick
              test_violation_reports_consensus;
          ] );
    ]
