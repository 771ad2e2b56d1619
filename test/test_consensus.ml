(* Tests of the Figure-5 obstruction-free consensus algorithm: the decision
   rule, solo termination (obstruction-freedom), agreement and validity in
   every run, and behaviour under contention. *)

open Repro_util
module Cons = Algorithms.Consensus
module Sys = Anonmem.System.Make (Cons)
module Scheduler = Anonmem.Scheduler

let pset l = Cons.Pset.of_list l

(* --- decision rule (resolve) --------------------------------------------- *)

let test_resolve_decides_on_two_ahead () =
  match Cons.resolve (pset [ (1, 5); (2, 3) ]) with
  | `Decide v -> Alcotest.(check int) "decides leader" 1 v
  | `Adopt _ -> Alcotest.fail "expected decision"

let test_resolve_no_decision_within_one () =
  match Cons.resolve (pset [ (1, 4); (2, 3) ]) with
  | `Decide _ -> Alcotest.fail "must not decide at gap 1"
  | `Adopt (v, ts) ->
      Alcotest.(check int) "adopts leader" 1 v;
      Alcotest.(check int) "timestamp bumps" 5 ts

let test_resolve_lone_value_must_pump () =
  (* An absent rival counts as timestamp 0 (Chandra's implicit counter):
     deciding unopposed still requires a lead of 2.  Treating absence as
     -oo is unsound — our bounded model checker exhibits a two-processor
     disagreement (see EXPERIMENTS.md, claim F5). *)
  (match Cons.resolve (pset [ (7, 0) ]) with
  | `Adopt (v, ts) ->
      Alcotest.(check int) "keep own value" 7 v;
      Alcotest.(check int) "pump" 1 ts
  | `Decide _ -> Alcotest.fail "must not decide at ts 0");
  (match Cons.resolve (pset [ (7, 0); (7, 1) ]) with
  | `Adopt (v, ts) ->
      Alcotest.(check int) "keep own value" 7 v;
      Alcotest.(check int) "pump again" 2 ts
  | `Decide _ -> Alcotest.fail "must not decide at ts 1");
  match Cons.resolve (pset [ (7, 0); (7, 1); (7, 2) ]) with
  | `Decide v -> Alcotest.(check int) "ts 2 unopposed decides" 7 v
  | `Adopt _ -> Alcotest.fail "expected decision at ts 2"

let test_resolve_tie_adopts_deterministically () =
  match Cons.resolve (pset [ (1, 3); (2, 3) ]) with
  | `Decide _ -> Alcotest.fail "tie cannot decide"
  | `Adopt (v, ts) ->
      Alcotest.(check int) "min value breaks tie" 1 v;
      Alcotest.(check int) "ts" 4 ts

let test_resolve_uses_max_per_value () =
  (* value 2 has stale and fresh pairs; only the max matters *)
  match Cons.resolve (pset [ (1, 4); (2, 0); (2, 6); (1, 1) ]) with
  | `Decide v -> Alcotest.(check int) "2 leads by 2" 2 v
  | `Adopt _ -> Alcotest.fail "expected decision"

(* --- solo termination (obstruction-freedom) ------------------------------ *)

let test_solo_decides_own_input () =
  let n = 4 in
  let cfg = Cons.standard ~n in
  let wiring = Anonmem.Wiring.random (Rng.create ~seed:1) ~n ~m:n in
  let st = Sys.init ~cfg ~wiring ~inputs:[| 10; 20; 30; 40 |] in
  let stop, _ = Sys.run ~max_steps:1_000_000 ~sched:(Scheduler.solo 2) st in
  Alcotest.(check bool) "p2 halted" true
    (stop = Sys.Scheduler_done && Sys.is_halted st 2);
  Alcotest.(check (option int)) "decides own input" (Some 30) (Sys.output st 2)

let test_solo_after_contention_decides () =
  let n = 3 in
  let cfg = Cons.standard ~n in
  let rng = Rng.create ~seed:4 in
  let wiring = Anonmem.Wiring.random rng ~n ~m:n in
  let st = Sys.init ~cfg ~wiring ~inputs:[| 1; 2; 3 |] in
  (* contention phase, then p0 runs alone: it must decide *)
  let _ = Sys.run ~max_steps:500 ~sched:(Scheduler.random (Rng.split rng)) st in
  let stop, _ = Sys.run ~max_steps:1_000_000 ~sched:(Scheduler.solo 0) st in
  Alcotest.(check bool) "p0 decided after going solo" true
    ((stop = Sys.Scheduler_done || stop = Sys.All_halted) && Sys.is_halted st 0)

(* --- agreement and validity ----------------------------------------------- *)

let test_agreement_validity_many_seeds () =
  for seed = 0 to 99 do
    let n = 2 + (seed mod 5) in
    let inputs = Array.init n (fun i -> ((i + seed) mod 3) + 1) in
    match Core.solve_consensus ~seed ~inputs () with
    | Ok r ->
        let v = r.Core.outputs.(0) in
        Array.iter
          (fun v' -> Alcotest.(check int) "agreement" v v')
          r.Core.outputs;
        Alcotest.(check bool) "validity" true (Array.exists (Int.equal v) inputs)
    | Error e -> Alcotest.fail (Printf.sprintf "seed %d: %s" seed e)
  done

let test_partial_decisions_agree () =
  (* Stop mid-flight under contention; whoever decided must agree. *)
  for seed = 0 to 49 do
    let n = 3 in
    let cfg = Cons.standard ~n in
    let rng = Rng.create ~seed in
    let wiring = Anonmem.Wiring.random rng ~n ~m:n in
    let st = Sys.init ~cfg ~wiring ~inputs:[| 1; 2; 3 |] in
    let _ = Sys.run ~max_steps:3_000 ~sched:(Scheduler.random (Rng.split rng)) st in
    let decided = List.filter_map Fun.id (Array.to_list (Sys.outputs st)) in
    match decided with
    | [] -> ()
    | v :: rest ->
        List.iter (fun v' -> Alcotest.(check int) "partial agreement" v v') rest
  done

let test_unanimous_inputs_decide_that_value () =
  for seed = 0 to 10 do
    let inputs = [| 5; 5; 5; 5 |] in
    match Core.solve_consensus ~seed ~inputs () with
    | Ok r ->
        Array.iter (fun v -> Alcotest.(check int) "unanimity" 5 v) r.Core.outputs
    | Error e -> Alcotest.fail e
  done

let test_rounds_counted () =
  let n = 2 in
  let cfg = Cons.standard ~n in
  let wiring = Anonmem.Wiring.identity ~n ~m:n in
  let st = Sys.init ~cfg ~wiring ~inputs:[| 1; 2 |] in
  let stop, _ = Sys.run ~max_steps:1_000_000 ~sched:(Scheduler.solo 0) st in
  Alcotest.(check bool) "halted" true (stop = Sys.Scheduler_done);
  (* solo from scratch: pump the timestamp to 2 (three snapshot rounds) *)
  Alcotest.(check int) "three snapshot rounds solo" 3
    (Cons.rounds_of_local st.Sys.locals.(0))

let test_no_register_writes_outside_snapshot () =
  (* The consensus layer communicates only through the long-lived
     snapshot; every write carries a well-formed (view, level) record —
     trivially true by typing — and every decided value must have been
     some processor's preference at some point.  Check decided value is
     reachable from inputs. *)
  for seed = 0 to 20 do
    let inputs = [| 3; 9 |] in
    match Core.solve_consensus ~seed ~inputs () with
    | Ok r ->
        Array.iter
          (fun v ->
            Alcotest.(check bool) "decided one of the inputs" true
              (v = 3 || v = 9))
          r.Core.outputs
    | Error e -> Alcotest.fail e
  done

(* Regression for the decision-rule subtlety: bounded exhaustive model
   check of agreement + validity over all wirings and interleavings for
   n=2, timestamps capped at 4.  With the (unsound) "absent rival = -oo"
   rule this fails with a ~60-step covering counterexample. *)
let test_bounded_model_check_agreement () =
  match Core.verify_consensus_bounded ~n:2 ~max_ts:4 () with
  | Ok states -> Alcotest.(check bool) "nontrivial space" true (states > 1_000)
  | Error e -> Alcotest.fail (Modelcheck.Explorer.sweep_error_message e)

let test_bounded_model_check_same_inputs () =
  match Core.verify_consensus_bounded ~n:2 ~inputs:(Some [| 3; 3 |]) ~max_ts:4 () with
  | Ok _ -> ()
  | Error e -> Alcotest.fail (Modelcheck.Explorer.sweep_error_message e)

let contains s sub =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

(* The consensus sweep reports through the shared structured sweep
   errors: a state cap names engine, wiring, limit and flag; a governor
   trip keeps its reason. *)
let test_bounded_model_check_structured_errors () =
  (match Core.verify_consensus_bounded ~n:2 ~max_ts:4 ~max_states:10 () with
  | Error (Modelcheck.Explorer.State_limit_hit m) ->
      List.iter
        (fun sub ->
          Alcotest.(check bool) ("limit message names " ^ sub) true
            (contains m sub))
        [ "Explorer.check_exhaustive"; "wiring"; "limit 10"; "--max-states" ]
  | _ -> Alcotest.fail "expected State_limit_hit");
  let governor = Modelcheck.Governor.create ~quota:50 () in
  (match Core.verify_consensus_bounded ~n:2 ~max_ts:4 ~governor () with
  | Error
      (Modelcheck.Explorer.Budget_exhausted
         { reason = Modelcheck.Governor.Quota; _ }) -> ()
  | _ -> Alcotest.fail "expected a quota Budget_exhausted");
  Modelcheck.Governor.dispose governor

let prop_consensus_valid =
  QCheck.Test.make ~name:"consensus agreement+validity on random configs"
    ~count:40
    QCheck.(pair (int_range 2 6) (int_bound 10_000))
    (fun (n, seed) ->
      let inputs = Array.init n (fun i -> ((i * seed) mod 4) + 1) in
      match Core.solve_consensus ~seed ~inputs () with
      | Ok r ->
          let v = r.Core.outputs.(0) in
          Array.for_all (Int.equal v) r.Core.outputs
          && Array.exists (Int.equal v) inputs
      | Error _ -> false)

let () =
  Alcotest.run "consensus"
    [
      ( "decision-rule",
        [
          Alcotest.test_case "decides at gap 2" `Quick test_resolve_decides_on_two_ahead;
          Alcotest.test_case "no decision at gap 1" `Quick
            test_resolve_no_decision_within_one;
          Alcotest.test_case "lone value must pump to 2" `Quick
            test_resolve_lone_value_must_pump;
          Alcotest.test_case "tie adopts deterministically" `Quick
            test_resolve_tie_adopts_deterministically;
          Alcotest.test_case "max timestamp per value" `Quick
            test_resolve_uses_max_per_value;
        ] );
      ( "obstruction-freedom",
        [
          Alcotest.test_case "solo decides own input" `Quick test_solo_decides_own_input;
          Alcotest.test_case "solo after contention decides" `Quick
            test_solo_after_contention_decides;
          Alcotest.test_case "rounds counted" `Quick test_rounds_counted;
        ] );
      ( "safety",
        [
          Alcotest.test_case "agreement+validity, 100 seeds" `Slow
            test_agreement_validity_many_seeds;
          Alcotest.test_case "partial decisions agree" `Quick
            test_partial_decisions_agree;
          Alcotest.test_case "unanimity" `Quick test_unanimous_inputs_decide_that_value;
          Alcotest.test_case "validity binary inputs" `Quick
            test_no_register_writes_outside_snapshot;
          Alcotest.test_case "bounded model check: agreement (n=2, ts<=4)" `Slow
            test_bounded_model_check_agreement;
          Alcotest.test_case "bounded model check: same inputs" `Quick
            test_bounded_model_check_same_inputs;
          Alcotest.test_case "bounded model check: structured errors" `Quick
            test_bounded_model_check_structured_errors;
        ] );
      ("properties", [ QCheck_alcotest.to_alcotest prop_consensus_valid ]);
    ]
