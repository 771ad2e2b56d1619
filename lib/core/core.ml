(** High-level entry points to the fully-anonymous shared-memory library.

    This module is the one-stop API used by the examples, the CLI and the
    benchmarks.  It wires the algorithms of the paper to concrete wirings
    and schedulers and returns validated results:

    - {!solve_snapshot} — the wait-free snapshot task (Figure 3);
    - {!solve_renaming} — adaptive [M(M+1)/2]-renaming (Figure 4);
    - {!solve_consensus} — obstruction-free consensus (Figure 5), driven to
      termination by granting solo time to undecided processors;
    - {!stable_view_analysis} — the eventual pattern of Section 4;
    - {!figure2_table} — the paper's Figure 2 execution table;
    - {!lower_bound_demo} — the Section 2.1 covering construction;
    - {!verify_snapshot_model} / {!find_nonatomic_execution} — the
      model-checking claims about the Figure-3 algorithm.

    Lower-level control (custom wirings, schedulers, protocols) lives in
    the [Anonmem], [Algorithms], [Tasks], [Modelcheck] and [Analysis]
    libraries, all re-exported here. *)

module Iset = Repro_util.Iset
module Rng = Repro_util.Rng
module Wiring = Anonmem.Wiring
module Scheduler = Anonmem.Scheduler
module Protocol = Anonmem.Protocol

type scheduler_kind = [ `Random | `Round_robin ]

let scheduler_of_kind rng = function
  | `Random -> Scheduler.random rng
  | `Round_robin -> Scheduler.round_robin ()

(** {1 Snapshot} *)

module Snapshot_sys = Anonmem.System.Make (Algorithms.Snapshot)

type 'o solved = {
  outputs : 'o array;
  steps : int;
  wiring : Wiring.t;
  seed : int;
}

(** Solve the snapshot task for [inputs] (group identifiers).  The wiring
    is drawn at random from [seed]; the schedule is fair.  Returns the
    snapshot of each processor, validated against the snapshot task (both
    the group-solvability definition and the stronger all-outputs
    containment the algorithm guarantees). *)
let solve_snapshot ?(seed = 0) ?(scheduler = `Random) ?(max_steps = 2_000_000)
    ~inputs () =
  let n = Array.length inputs in
  let rng = Rng.create ~seed in
  let cfg = Algorithms.Snapshot.standard ~n in
  let wiring = Wiring.random rng ~n ~m:n in
  let state = Snapshot_sys.init ~cfg ~wiring ~inputs in
  let sched = scheduler_of_kind (Rng.split rng) scheduler in
  let stop, steps = Snapshot_sys.run ~max_steps ~sched state in
  match stop with
  | Snapshot_sys.All_halted -> (
      let outputs =
        Array.map
          (function Some o -> o | None -> assert false)
          (Snapshot_sys.outputs state)
      in
      let outcome =
        Tasks.Outcome.make ~inputs ~outputs:(Snapshot_sys.outputs state) ()
      in
      match
        ( Tasks.Snapshot_task.check_group_solution outcome,
          Tasks.Snapshot_task.check_strong outcome )
      with
      | Ok (), Ok () -> Ok { outputs; steps; wiring; seed }
      | Error e, _ | _, Error e ->
          Error
            (Fmt.str "snapshot outputs failed validation: %a"
               Tasks.Task_failure.pp e))
  | Snapshot_sys.Max_steps ->
      Error (Fmt.str "snapshot did not terminate within %d steps" max_steps)
  | Snapshot_sys.Scheduler_done -> Error "scheduler gave up"

(** {1 Renaming} *)

module Renaming_sys = Anonmem.System.Make (Algorithms.Renaming)

let solve_renaming ?(seed = 0) ?(scheduler = `Random) ?(max_steps = 2_000_000)
    ~inputs () =
  let n = Array.length inputs in
  let rng = Rng.create ~seed in
  let cfg = Algorithms.Renaming.standard ~n in
  let wiring = Wiring.random rng ~n ~m:n in
  let state = Renaming_sys.init ~cfg ~wiring ~inputs in
  let sched = scheduler_of_kind (Rng.split rng) scheduler in
  let stop, steps = Renaming_sys.run ~max_steps ~sched state in
  match stop with
  | Renaming_sys.All_halted -> (
      let outputs =
        Array.map
          (function Some o -> o | None -> assert false)
          (Renaming_sys.outputs state)
      in
      let outcome =
        Tasks.Outcome.make ~inputs
          ~outputs:
            (Array.map
               (Option.map (fun o -> o.Algorithms.Renaming.name_out))
               (Renaming_sys.outputs state))
          ()
      in
      match Tasks.Renaming_task.check outcome with
      | Ok () -> Ok { outputs; steps; wiring; seed }
      | Error e ->
          Error
            (Fmt.str "renaming outputs failed validation: %a"
               Tasks.Task_failure.pp e))
  | Renaming_sys.Max_steps ->
      Error (Fmt.str "renaming did not terminate within %d steps" max_steps)
  | Renaming_sys.Scheduler_done -> Error "scheduler gave up"

(** {1 Consensus} *)

module Consensus_sys = Anonmem.System.Make (Algorithms.Consensus)

(** Solve consensus on [inputs].  The algorithm is obstruction-free, so a
    fully adversarial scheduler could livelock it; this driver runs a fair
    contention phase of [contention_steps] steps and then grants each
    still-undecided processor solo time, which the obstruction-freedom
    guarantee turns into termination.  The decided values are validated
    for agreement and validity. *)
let solve_consensus ?(seed = 0) ?(contention_steps = 5_000)
    ?(max_steps = 5_000_000) ~inputs () =
  let n = Array.length inputs in
  let rng = Rng.create ~seed in
  let cfg = Algorithms.Consensus.standard ~n in
  let wiring = Wiring.random rng ~n ~m:n in
  let state = Consensus_sys.init ~cfg ~wiring ~inputs in
  let sched = Scheduler.random (Rng.split rng) in
  let _, contention = Consensus_sys.run ~max_steps:contention_steps ~sched state in
  let solo_budget = max_steps - contention in
  let rec finish p steps =
    if p >= n then Ok steps
    else if Consensus_sys.is_halted state p then finish (p + 1) steps
    else
      let stop, s =
        Consensus_sys.run ~max_steps:solo_budget ~sched:(Scheduler.solo p) state
      in
      match stop with
      | Consensus_sys.Max_steps -> Error "solo run did not decide within budget"
      | Consensus_sys.All_halted | Consensus_sys.Scheduler_done ->
          if Consensus_sys.is_halted state p then finish (p + 1) (steps + s)
          else Error "solo run stalled without deciding"
  in
  match finish 0 contention with
  | Error e -> Error e
  | Ok steps -> (
      let outputs =
        Array.map
          (function Some o -> o | None -> assert false)
          (Consensus_sys.outputs state)
      in
      let outcome =
        Tasks.Outcome.make ~inputs ~outputs:(Consensus_sys.outputs state) ()
      in
      match Tasks.Consensus_task.check outcome with
      | Ok () -> Ok { outputs; steps; wiring; seed }
      | Error e ->
          Error
            (Fmt.str "consensus outputs failed validation: %a"
               Tasks.Task_failure.pp e))

(** {1 Analyses and reproductions} *)

let stable_view_analysis ?(seed = 0) ~n ~m ~inputs () =
  Analysis.Stable_views.run_random ~n ~m ~inputs ~seed ()

let figure2_table ?actions () =
  Repro_util.Text_table.render
    (Analysis.Figure2.to_table (Analysis.Figure2.generate ?actions ()))

let lower_bound_demo ~n () = Analysis.Lower_bound.run ~n ()

module Snapshot_mc = Modelcheck.Explorer.Make (Modelcheck.Codecs.Snapshot)

(** The strong snapshot invariant checked during model checking: every
    pair of outputs produced so far is related by containment, every
    output contains the owner's input and only participating inputs. *)
let snapshot_invariant cfg inputs (st : Snapshot_mc.state) =
  let participating = Iset.of_list (Array.to_list inputs) in
  let outs =
    Array.to_list st.Snapshot_mc.locals
    |> List.mapi (fun p l -> (p, Algorithms.Snapshot.output cfg l))
    |> List.filter_map (fun (p, o) -> Option.map (fun o -> (p, o)) o)
  in
  let rec check = function
    | [] -> Ok ()
    | (p, o) :: rest ->
        if not (Iset.mem inputs.(p) o) then
          Error (Fmt.str "output of p%d misses its own input" (p + 1))
        else if not (Iset.subset o participating) then
          Error (Fmt.str "output of p%d contains non-participants" (p + 1))
        else if
          List.exists (fun (_, o') -> not (Iset.comparable o o')) rest
        then Error (Fmt.str "incomparable outputs (p%d)" (p + 1))
        else check rest
  in
  check outs

(** Exhaustively verify the Figure-3 algorithm for [n] processors: for the
    given inputs and {e every} wiring (processor 0 pinned to the identity —
    lossless by register anonymity), explore all interleavings, check the
    strong snapshot invariant and wait-freedom.  [n = 3] reproduces the
    paper's TLC claim.

    [~reduction:true] quotients each per-wiring space by its anonymity
    symmetries (a gain exactly when [inputs] has repeated values — with
    all-distinct inputs the symmetry group is trivial).  The sweep is the
    sequential DFS of {!Modelcheck.Explorer.Make.check_all_wirings}, so
    [governor], [ckpt] and [resume] give it the full durable-run
    contract. *)
let verify_snapshot_model ?(n = 3) ?(inputs = None) ?max_states
    ?(reduction = false) ?governor ?ckpt ?(resume = false) () =
  let inputs = match inputs with Some i -> i | None -> Array.init n (fun i -> i + 1) in
  let cfg = Algorithms.Snapshot.standard ~n in
  Snapshot_mc.check_all_wirings ?max_states ~reduction ?governor ?ckpt ~resume
    ~invariant:(snapshot_invariant cfg inputs)
    ~cfg ~inputs ()

(** RAM-bounded, safety-only variant of {!verify_snapshot_model}: the
    hash-compacted fingerprint engine
    ({!Modelcheck.Explorer.Make.check_all_wirings_fp}) sweeps the same
    wirings under [ram_budget_bytes] of visited-set RAM, spilling sorted
    fingerprint runs to disk past the budget.  The summary's
    [fp_omission_bound] (birthday bound, states² · 2⁻⁶⁴) qualifies the
    verdict; wait-freedom is {e not} decided (no edges are stored) — use
    the exact engines for liveness.  Supports the full
    governor/checkpoint/resume contract of the sequential engine. *)
let verify_snapshot_model_fp ?(n = 3) ?(inputs = None) ?max_states
    ?(reduction = false) ?ram_budget_bytes ?batch_states ?spill_dir ?governor
    ?ckpt ?(resume = false) () =
  let inputs =
    match inputs with Some i -> i | None -> Array.init n (fun i -> i + 1)
  in
  let cfg = Algorithms.Snapshot.standard ~n in
  Snapshot_mc.check_all_wirings_fp ?max_states ~reduction ?ram_budget_bytes
    ?batch_states ?spill_dir ?governor ?ckpt ~resume
    ~invariant:(snapshot_invariant cfg inputs)
    ~cfg ~inputs ()

module Snapshot_fault_mc =
  Modelcheck.Fault_explorer.Make (Modelcheck.Codecs.Snapshot)

(** Exhaustively verify the strong snapshot invariant under at most
    [max_crashes] injected crash-stops: for every wiring (processor 0
    pinned to the identity) and every interleaving, the search also
    branches on crashing any live processor at any point, which covers
    every timed crash-stop plan with at most [max_crashes] crashes.  The
    default [n = 2] completes in well under a second; [n = 3] is feasible
    but expensive (the crash branching multiplies the fault-free space).

    Only safety is checked — crashed processors trivially never
    terminate, so wait-freedom questions under crashes are the fuzzer's
    territory (a crash-stopped processor is exactly one that is never
    scheduled again). *)
let verify_snapshot_model_crashes ?(n = 2) ?(inputs = None) ?(max_crashes = 1)
    ?max_states ?(reduction = false) ?governor () =
  let inputs =
    match inputs with Some i -> i | None -> Array.init n (fun i -> i + 1)
  in
  let cfg = Algorithms.Snapshot.standard ~n in
  Snapshot_fault_mc.check_all_wirings ?max_states ~max_crashes ~reduction
    ?governor
    ~invariant:(snapshot_invariant cfg inputs)
    ~cfg ~inputs ()

module Consensus_mc = Modelcheck.Explorer.Make (Modelcheck.Codecs.Consensus)

(** Bounded model checking of the Figure-5 consensus algorithm (an
    extension beyond the paper's verification): explore every interleaving
    for [n] processors until some timestamp would exceed [max_ts], checking
    agreement and validity of all decisions along the way.  The timestamp
    bound makes the otherwise-infinite state space finite; safety holds for
    the full algorithm iff it holds for every bound, so each run is a
    genuine bounded-safety certificate.  Returns the total state count, or
    the structured {!Modelcheck.Explorer.sweep_error} of the first wiring
    that fails. *)
let verify_consensus_bounded ?(n = 2) ?(inputs = None) ?(max_ts = 5)
    ?max_states ?(reduction = false) ?governor () =
  let inputs =
    match inputs with Some i -> i | None -> Array.init n (fun i -> i + 1)
  in
  let cfg = Algorithms.Consensus.standard ~n in
  let participating = Iset.of_list (Array.to_list inputs) in
  let invariant (st : Consensus_mc.state) =
    let decided =
      Array.to_list st.Consensus_mc.locals
      |> List.filter_map (fun l -> l.Algorithms.Consensus.decided)
    in
    match decided with
    | [] -> Ok ()
    | v :: rest ->
        if not (List.for_all (Int.equal v) rest) then
          Error (Fmt.str "agreement violated: %a" Fmt.(list ~sep:comma int) decided)
        else if not (Iset.mem v participating) then
          Error (Fmt.str "validity violated: decided %d" v)
        else Ok ()
  in
  let stop_expansion (st : Consensus_mc.state) =
    Array.exists
      (fun l -> l.Algorithms.Consensus.ts >= max_ts)
      st.Consensus_mc.locals
  in
  let max_states =
    Option.value max_states ~default:Consensus_mc.dfs_max_states
  in
  Modelcheck.Sweep.fold ~init:0
    (Anonmem.Wiring.enumerate ~n ~m:n ~fix_first:true)
    (fun _ wiring total ->
      match
        Consensus_mc.check_exhaustive ~max_states ~fail_on_cycle:false
          ~reduction ?governor ~invariant ~stop_expansion ~cfg ~wiring ~inputs
          ()
      with
      | Consensus_mc.Dfs_ok s -> Ok (total + s.Consensus_mc.dfs_states)
      | Consensus_mc.Dfs_cycle _ -> assert false
      | Consensus_mc.Dfs_invariant_failed { message; _ } ->
          Error (Modelcheck.Explorer.invariant_error ~wiring message)
      | Consensus_mc.Dfs_state_limit k ->
          Error
            (Modelcheck.Explorer.state_limit_error
               ~engine:"Explorer.check_exhaustive" ~wiring ~limit:max_states
               ~states:k)
      | Consensus_mc.Dfs_exhausted { reason; stats } ->
          Error
            (Modelcheck.Explorer.exhausted_error ~wiring ~reason
               ~states:stats.Consensus_mc.dfs_states))

(** {1 Protocol portfolio verification}

    Model-checking entry points for the literature portfolio
    ({!Algorithms.Rt_mutex}, {!Algorithms.Naming},
    {!Algorithms.Weak_leader}).  Unlike the wait-free snapshot, the mutex
    and the naming layer built on it are only deadlock-free at coprime
    register counts — their spin loops put genuine cycles in the
    transition graph — so verification splits into a state invariant
    (safety) and a fair-SCC search (liveness), both per wiring.  The
    verdicts feed {!Analysis.Feasibility}. *)

(** One verdict shape for every portfolio protocol, structured enough for
    the feasibility map and for witness replay in the test suite.  Paths
    are processor-id step sequences from the initial state
    ({!Modelcheck.Witness.Replay} rematerializes the executions). *)
type verdict =
  | Verified of { wirings : int; states : int }
  | Safety_violation of {
      wiring : Wiring.t;
      message : string;
      path : int list;  (** steps to the violating state (may be empty
                            when the violation was caught at terminal
                            outcomes rather than mid-trace) *)
    }
  | Liveness_violation of {
      wiring : Wiring.t;
      live : int list;  (** the processors spinning forever *)
      stem : int list;  (** steps from the initial state to the cycle *)
      cycle : int list;  (** steps around the fair cycle, stepping every
                             live processor at least once *)
    }
  | Resource_limit of int
  | Exhausted of {
      reason : Modelcheck.Governor.reason;
      states_visited : int;
      checkpoint : string option;
          (** where the engine wrote its final checkpoint, when a
              checkpoint policy was in force — resuming with the same
              policy continues exactly where the budget ran out *)
    }

let pp_verdict ppf = function
  | Verified { wirings; states } ->
      Fmt.pf ppf "verified (%d wirings, %d states)" wirings states
  | Safety_violation { wiring; message; _ } ->
      Fmt.pf ppf "safety violation under wiring %a: %s" Wiring.pp wiring
        message
  | Liveness_violation { wiring; live; _ } ->
      Fmt.pf ppf "deadlock under wiring %a: processors %a spin forever"
        Wiring.pp wiring
        Fmt.(list ~sep:(any ", ") (fun ppf p -> Fmt.pf ppf "p%d" (p + 1)))
        live
  | Resource_limit k -> Fmt.pf ppf "state limit hit at %d states" k
  | Exhausted { reason; states_visited; checkpoint } ->
      Fmt.pf ppf "budget exhausted (%a) after %d states%a"
        Modelcheck.Governor.pp_reason reason states_visited
        Fmt.(option (any "; resume from " ++ string))
        checkpoint

let verdict_is_verified = function Verified _ -> true | _ -> false

(** The generic per-wiring portfolio check, written once for every
    protocol whose liveness is decided by fair-SCC search: BFS with the
    state [invariant], the task [oracle] at terminal outcomes, then the
    fair-SCC pass.  Instances keep the full {!Modelcheck.Explorer.Make}
    interface. *)
module Portfolio_mc (P : Modelcheck.Explorer.CHECKABLE with type input = int) =
struct
  include Modelcheck.Explorer.Make (P)

  (* Liveness post-pass: the space was explored clean of safety
     violations; look for a fair SCC.  Detection is exact on reduced
     spaces, but the lasso witness needs concrete states, so a hit on a
     proper quotient triggers one unreduced re-exploration (a trivial
     group, as distinct inputs give, already explored the concrete
     space). *)
  let liveness ?max_states ~cfg ~wiring ~inputs space :
      (unit, verdict) Stdlib.result =
    match find_fair_scc space with
    | None -> Ok ()
    | Some (_, live) ->
        let wspace =
          if not (is_quotient space) then Some space
          else
            match
              explore ?max_states ~reduction:false ~cfg ~wiring ~inputs ()
            with
            | Explored s -> Some s
            | _ -> None
        in
        let live, stem, cycle =
          match Option.map (fun s -> (s, find_fair_scc s)) wspace with
          | Some (s, Some (entry, live)) ->
              ( live,
                List.map fst (trace_to s entry),
                fair_cycle_witness s ~entry ~live )
          | _ -> (live, [], [])
        in
        Error (Liveness_violation { wiring; live; stem; cycle })

  (** Check one wiring; [Ok k] is its state count, [states] the count
      of the wirings before it (reported on exhaustion). *)
  let verify_wiring ?max_states ~reduction ?governor ~invariant ~oracle ~cfg
      ~wiring ~inputs ~states () : (int, verdict) Stdlib.result =
    match
      explore ?max_states ~reduction ?governor ~invariant ~cfg ~wiring ~inputs
        ()
    with
    | State_limit k -> Error (Resource_limit k)
    | Exhausted { reason; states = k } ->
        Error
          (Exhausted
             { reason; states_visited = states + k; checkpoint = None })
    | Invariant_failed (_, v) ->
        Error
          (Safety_violation
             { wiring; message = v.message; path = List.map fst v.trace })
    | Explored space -> (
        match
          List.find_map
            (fun t ->
              Result.fold ~ok:(fun () -> None) ~error:Option.some (oracle t))
            (terminal_outcomes space ~group_of_input:Fun.id
               ~to_task_output:Fun.id)
        with
        | Some e ->
            Error
              (Safety_violation
                 {
                   wiring;
                   message = Fmt.str "%a" Tasks.Task_failure.pp e;
                   path = [];
                 })
        | None ->
            (* Read the count first: [liveness] may re-explore the
               unreduced space, and a closure over [space] would keep the
               reduced one live meanwhile. *)
            let states = state_count space in
            Result.map
              (fun () -> states)
              (liveness ?max_states ~cfg ~wiring ~inputs space))
end

module Rt_mutex_mc = Portfolio_mc (Modelcheck.Codecs.Rt_mutex)
module Rt_mutex_fault_mc =
  Modelcheck.Fault_explorer.Make (Modelcheck.Codecs.Rt_mutex)
module Weak_leader_mc = Modelcheck.Explorer.Make (Modelcheck.Codecs.Weak_leader)
module Naming_mc = Portfolio_mc (Modelcheck.Codecs.Naming)
module Naming_fault_mc =
  Modelcheck.Fault_explorer.Make (Modelcheck.Codecs.Naming)

(* Every portfolio verdict is one {!Modelcheck.Sweep} over the wirings
   (or the wiring classes), threading (wirings checked, states); [check]
   returns one wiring's state count given the count before it.  The
   packed mutex sweep checkpoints that pair as its 3-int ["sweep"]
   section. *)
let portfolio_sweep ?ckpt ?resume ~wiring_classes ~n ~m check =
  let wirings =
    if wiring_classes then Wiring.enumerate_classes ~n ~m
    else Wiring.enumerate ~n ~m ~fix_first:true
  in
  let codec =
    {
      Modelcheck.Sweep.section = "sweep";
      width = 2;
      encode = (fun (wirings, states) -> [| wirings; states |]);
      decode = (fun a -> (a.(0), a.(1)));
    }
  in
  match
    Modelcheck.Sweep.fold ?ckpt ?resume ~codec ~init:(0, 0) wirings
      (fun at wiring (wcount, states) ->
        Result.map
          (fun k -> (wcount + 1, states + k))
          (check at wiring ~states))
  with
  | Ok (wirings, states) -> Verified { wirings; states }
  | Error v -> v

(** Mutual exclusion as a state invariant: at most one processor inside
    the critical section, and no completed audit may have tripped. *)
let mutex_invariant cfg (st : Rt_mutex_mc.state) =
  let in_cs =
    Array.to_list st.Rt_mutex_mc.locals
    |> List.mapi (fun p l -> (p, l))
    |> List.filter (fun (_, l) -> Algorithms.Rt_mutex.in_cs l)
    |> List.map fst
  in
  match in_cs with
  | _ :: _ :: _ ->
      Error
        (Fmt.str "%a" Tasks.Task_failure.pp
           (Tasks.Mutex_task.exclusion_failure ~processors:in_cs))
  | _ ->
      let intruded =
        Array.to_list st.Rt_mutex_mc.locals
        |> List.mapi (fun p l -> (p, Algorithms.Rt_mutex.output cfg l))
        |> List.filter (fun (_, o) -> o = Some Algorithms.Rt_mutex.Cs_intruded)
        |> List.map fst
      in
      if intruded = [] then Ok ()
      else
        Error
          (Fmt.str "audit tripwire: %a observed an intruder"
             Fmt.(list ~sep:(any ", ") (fun ppf p -> Fmt.pf ppf "p%d" (p + 1)))
             intruded)

(** Exhaustively verify the symmetric mutex at [(n, m)]: for every wiring
    (processor 0 pinned), explore every interleaving, check mutual
    exclusion along the way, the audit tripwire at terminal outcomes, and
    deadlock-freedom as absence of fair SCCs.  Pass [~cfg] to check a
    planted-bug variant ({!Algorithms.Rt_mutex.cfg_eager}).
    [~wiring_classes:true] additionally quotients the wiring sweep by
    processor relabelling ({!Anonmem.Wiring.enumerate_classes}) — sound
    here because every verdict below is id-agnostic.  [~packed:true]
    sweeps each wiring with the single-word engine
    ({!Modelcheck.Rt_mutex_packed}; same step relation and verdicts, an
    order of magnitude faster — what makes the clean n = 3 feasibility
    cells exhaustively checkable): clean wirings are accepted on its
    word, while any violating or unsupported wiring is re-explored by
    the generic engine below so counterexample witnesses stay concrete
    and replayable. *)
let verify_mutex ?(n = 2) ?(m = 3) ?cfg ?max_states ?(reduction = false)
    ?(wiring_classes = false) ?(packed = false) ?governor ?ckpt
    ?(resume = false) () =
  let cfg = match cfg with Some c -> c | None -> Algorithms.Rt_mutex.cfg ~n ~m in
  let n = Algorithms.Rt_mutex.processors cfg in
  let m = Algorithms.Rt_mutex.registers cfg in
  let inputs = Array.init n (fun i -> i + 1) in
  let generic wiring ~states =
    Rt_mutex_mc.verify_wiring ?max_states ~reduction ?governor
      ~invariant:(mutex_invariant cfg) ~oracle:Tasks.Mutex_task.check ~cfg
      ~wiring ~inputs ~states ()
  in
  if not packed then
    portfolio_sweep ~wiring_classes ~n ~m (fun _ -> generic)
  else
    (* Only the packed engine checkpoints, so only its sweep resumes. *)
    let ws = Modelcheck.Rt_mutex_packed.ws () in
    portfolio_sweep ?ckpt ~resume ~wiring_classes ~n ~m
      (fun at wiring ~states ->
        match
          Modelcheck.Rt_mutex_packed.check_wiring ~ws ?max_states ?governor
            ?ckpt ~ckpt_extra:at.Modelcheck.Sweep.ckpt_extra
            ~resume:at.Modelcheck.Sweep.resume ~cfg ~wiring ~inputs ()
        with
        | Modelcheck.Rt_mutex_packed.Clean { states = k } -> Ok k
        | Modelcheck.Rt_mutex_packed.Limit k -> Error (Resource_limit k)
        | Modelcheck.Rt_mutex_packed.Exhausted { reason; states = k } ->
            Error
              (Exhausted
                 {
                   reason;
                   states_visited = states + k;
                   checkpoint =
                     Option.map (fun p -> p.Modelcheck.Checkpoint.path) ckpt;
                 })
        | Modelcheck.Rt_mutex_packed.Breach
        | Modelcheck.Rt_mutex_packed.Fair_cycle
        | Modelcheck.Rt_mutex_packed.Unsupported ->
            generic wiring ~states)

(** Name distinctness as a state invariant (inputs are distinct
    identities, so any repeated acquired name is a violation).  The
    flood phase is deliberately {e not} required to be exclusive: each
    flood write releases the register it extends, so a successor can
    legitimately start its own flood before the predecessor's last
    write lands — a benign overlap, serialized by the name ledger
    itself rather than by CS occupancy. *)
let naming_invariant cfg (st : Naming_mc.state) =
  let named =
    Array.to_list st.Naming_mc.locals
    |> List.mapi (fun p l -> (p, Algorithms.Naming.output cfg l))
    |> List.filter_map (fun (p, o) ->
           Option.map (fun o -> (p, o.Algorithms.Naming.name)) o)
  in
  let rec dup = function
    | [] -> None
    | (p, k) :: rest -> (
        match List.find_opt (fun (_, k') -> k = k') rest with
        | Some (q, _) -> Some (p, q, k)
        | None -> dup rest)
  in
  match dup named with
  | Some (p, q, k) ->
      Error
        (Fmt.str "p%d and p%d both acquired name %d" (p + 1) (q + 1) k)
  | None -> Ok ()

(** Exhaustively verify the desanonymization layer at [(n, m)]:
    distinctness and flood exclusion as invariants, the full naming task
    (distinctness, own-cell inclusion, view containment) at terminal
    outcomes, and deadlock-freedom by fair-SCC search.  The layer runs
    above the mutex, so its feasibility inherits the mutex threshold. *)
let verify_naming ?(n = 2) ?(m = 3) ?cfg ?max_states ?(reduction = false)
    ?(wiring_classes = false) ?governor () =
  let cfg = match cfg with Some c -> c | None -> Algorithms.Naming.cfg ~n ~m in
  let n = Algorithms.Naming.processors cfg in
  let m = Algorithms.Naming.registers cfg in
  let inputs = Array.init n (fun i -> i + 1) in
  portfolio_sweep ~wiring_classes ~n ~m (fun _ wiring ~states ->
      Naming_mc.verify_wiring ?max_states ~reduction ?governor
        ~invariant:(naming_invariant cfg) ~oracle:Tasks.Naming_task.check ~cfg
        ~wiring ~inputs ~states ())

(** Leader uniqueness as a state invariant. *)
let leader_invariant cfg (st : Weak_leader_mc.state) =
  let leaders =
    Array.to_list st.Weak_leader_mc.locals
    |> List.mapi (fun p l -> (p, Algorithms.Weak_leader.output cfg l))
    |> List.filter (fun (_, o) -> o = Some Algorithms.Weak_leader.Leader)
    |> List.map fst
  in
  match leaders with
  | p :: q :: _ ->
      Error
        (Fmt.str "p%d and p%d both elected themselves leader" (p + 1) (q + 1))
  | _ -> Ok ()

(** Exhaustively verify the weak leader protocol at [(n, m)]: leader
    uniqueness as an invariant and wait-freedom as acyclicity, both via
    the lean DFS engine (the protocol claims wait-freedom, so cycles are
    violations here — no fair-SCC pass needed).  A wait-freedom breach
    reports the spinning processors as a liveness violation. *)
let verify_leader ?(n = 2) ?(m = 3) ?cfg ?max_states ?(reduction = false)
    ?(wiring_classes = false) ?governor () =
  let cfg =
    match cfg with Some c -> c | None -> Algorithms.Weak_leader.cfg ~n ~m
  in
  let n = Algorithms.Weak_leader.processors cfg in
  let m = Algorithms.Weak_leader.registers cfg in
  let inputs = Array.init n (fun i -> i + 1) in
  portfolio_sweep ~wiring_classes ~n ~m (fun _ wiring ~states ->
      match
        Weak_leader_mc.check_exhaustive ?max_states ~reduction ?governor
          ~invariant:(leader_invariant cfg) ~cfg ~wiring ~inputs ()
      with
      | Weak_leader_mc.Dfs_ok stats -> Ok stats.Weak_leader_mc.dfs_states
      | Weak_leader_mc.Dfs_invariant_failed { message; path; _ } ->
          Error (Safety_violation { wiring; message; path })
      | Weak_leader_mc.Dfs_cycle { processors; _ } ->
          Error
            (Liveness_violation
               { wiring; live = processors; stem = []; cycle = [] })
      | Weak_leader_mc.Dfs_state_limit k -> Error (Resource_limit k)
      | Weak_leader_mc.Dfs_exhausted { reason; stats } ->
          Error
            (Exhausted
               {
                 reason;
                 states_visited = states + stats.Weak_leader_mc.dfs_states;
                 checkpoint = None;
               }))

(** Mutual exclusion under at most [max_crashes] crash-stops: a crashed
    holder deadlocks the lock (liveness is forfeit, as for any one-shot
    mutex under crash-stop) but exclusion must survive.  Exhaustive over
    wirings, interleavings and crash placements. *)
let verify_mutex_crashes ?(n = 2) ?(m = 3) ?cfg ?(max_crashes = 1) ?max_states
    ?(reduction = false) ?governor () =
  let cfg = match cfg with Some c -> c | None -> Algorithms.Rt_mutex.cfg ~n ~m in
  let n = Algorithms.Rt_mutex.processors cfg in
  let inputs = Array.init n (fun i -> i + 1) in
  Rt_mutex_fault_mc.check_all_wirings ?max_states ~max_crashes ~reduction
    ?governor ~invariant:(mutex_invariant cfg) ~cfg ~inputs ()

(** Name distinctness under at most [max_crashes] crash-stops. *)
let verify_naming_crashes ?(n = 2) ?(m = 3) ?cfg ?(max_crashes = 1) ?max_states
    ?(reduction = false) ?governor () =
  let cfg = match cfg with Some c -> c | None -> Algorithms.Naming.cfg ~n ~m in
  let n = Algorithms.Naming.processors cfg in
  let inputs = Array.init n (fun i -> i + 1) in
  Naming_fault_mc.check_all_wirings ?max_states ~max_crashes ~reduction
    ?governor ~invariant:(naming_invariant cfg) ~cfg ~inputs ()

(** Glue between the verifiers above and the pure map of
    {!Analysis.Feasibility}: classify one cell of the (task, n, m) grid
    by exhaustive model checking.

    Durable-run knobs: [wall_seconds] / [heap_words] / [quota] bound the
    cell with a fresh {!Modelcheck.Governor} (disposed afterwards);
    [interrupted_flag] is shared across cells so one SIGINT stops the
    whole sweep; [ckpt_dir] enables engine checkpointing (the packed
    mutex path) to [ckpt_dir/task-n-m.ckpt], with resume always on — a
    budget-exhausted or interrupted cell classifies as
    {!Analysis.Feasibility.Unknown} carrying the checkpoint path, and
    re-running the same cell with the same [ckpt_dir] continues from it. *)
let feasibility_check ?max_states ?(reduction = false)
    ?(wiring_classes = false) ?wall_seconds ?heap_words ?quota
    ?interrupted_flag ?ckpt_dir ~task ~n ~m () =
  let classify = function
    | Verified { wirings; states } ->
        Analysis.Feasibility.Solved { wirings; states }
    | Safety_violation { message; _ } -> Analysis.Feasibility.Safety_broken message
    | Liveness_violation { live; _ } ->
        Analysis.Feasibility.Deadlock
          (Fmt.str "processors %a spin forever"
             Fmt.(list ~sep:(any ", ") (fun ppf p -> Fmt.pf ppf "p%d" (p + 1)))
             live)
    | Resource_limit k -> Analysis.Feasibility.Limit k
    | Exhausted { reason; states_visited; checkpoint } ->
        Analysis.Feasibility.Unknown
          {
            reason = Modelcheck.Governor.reason_to_string reason;
            states = states_visited;
            checkpoint;
          }
  in
  let budgeted =
    wall_seconds <> None || heap_words <> None || quota <> None
    || interrupted_flag <> None
  in
  let governor =
    if budgeted then
      Some
        (Modelcheck.Governor.create ?wall_seconds ?heap_words ?quota
           ?interrupted_flag ())
    else None
  in
  let ckpt =
    Option.map
      (fun dir ->
        {
          Modelcheck.Checkpoint.path =
            Filename.concat dir (Fmt.str "%s-%d-%d.ckpt" task n m);
          every_states = 100_000;
        })
      ckpt_dir
  in
  let verdict =
    match task with
    | "mutex" ->
        verify_mutex ~n ~m ?max_states ~reduction ~wiring_classes
          ~packed:true ?governor ?ckpt ~resume:true ()
    | "naming" ->
        verify_naming ~n ~m ?max_states ~reduction ~wiring_classes ?governor
          ()
    | "leader" ->
        verify_leader ~n ~m ?max_states ~reduction ~wiring_classes ?governor
          ()
    | t ->
        Option.iter Modelcheck.Governor.dispose governor;
        invalid_arg (Fmt.str "feasibility_check: unknown task %S" t)
  in
  Option.iter Modelcheck.Governor.dispose governor;
  (* A finished cell's checkpoint is dead weight (and would poison a
     re-run with a stale context): drop it. *)
  (match (verdict, ckpt) with
  | (Verified _ | Safety_violation _ | Liveness_violation _), Some p
    when Sys.file_exists p.Modelcheck.Checkpoint.path ->
      Sys.remove p.Modelcheck.Checkpoint.path
  | _ -> ());
  classify verdict

(** The empirical feasibility map: every cell of the portfolio grids
    checked exhaustively, each verdict compared against the
    coprimality-threshold prediction.  [quick] restricts to the [n = 2]
    rows (the smoke budget).  [cached] / [on_fresh] / [stop] are the
    durable-run hooks of {!Analysis.Feasibility.run} (journal replay,
    journal append, interrupt); the budget knobs are per cell, as in
    {!feasibility_check}. *)
let feasibility_map ?(quick = false) ?max_states ?reduction ?wiring_classes
    ?wall_seconds ?heap_words ?quota ?interrupted_flag ?ckpt_dir ?on_cell
    ?on_fresh ?cached ?stop () =
  Analysis.Feasibility.run ?on_cell ?on_fresh ?cached ?stop
    ~check:(fun ~task ~n ~m ->
      feasibility_check ?max_states ?reduction ?wiring_classes ?wall_seconds
        ?heap_words ?quota ?interrupted_flag ?ckpt_dir ~task ~n ~m ())
    (Analysis.Feasibility.grids ~quick ())

module Snapshot_witness = Modelcheck.Witness.Search (Algorithms.Snapshot)

let snapshot_memory_set regs =
  Array.fold_left
    (fun acc (v : Algorithms.Snapshot.value) -> Iset.union acc v.view)
    Iset.empty regs

(** The claim-7b candidates, (inputs, target set), in search order.  Group
    assignments come first: two same-input processors can raise each
    other's levels while the third keeps covering. *)
let nonatomic_candidates =
  [
    ([| 1; 1; 2 |], [ 1 ]);
    ([| 1; 2; 2 |], [ 2 ]);
    ([| 1; 1; 2 |], [ 1; 2 ]);
    ([| 1; 2; 3 |], [ 1; 2 ]);
  ]

(** Claim 7b, decided exhaustively for the paper's 3-processor
    configuration under its nondeterministic write order: for each
    (inputs, target) candidate, pruned reachability over all 36 wirings
    ({!Modelcheck.Snapshot3.find_nonatomic}) either finds an execution in
    which a processor returns [target] although the memory never contains
    it, refutes the candidate, or runs out of visited-table capacity.  The
    sequence is lazy (each candidate is searched when it is reached, so
    callers can report as the run goes) and ends after the first
    witness. *)
let find_nonatomic_packed ?log2_capacity () =
  let wirings = Anonmem.Wiring.enumerate ~n:3 ~m:3 ~fix_first:true in
  let rec go candidates () =
    match candidates with
    | [] -> Seq.Nil
    | (inputs, target) :: rest ->
        let target_mask =
          Iset.to_bits (Iset.map (fun i -> i - 1) (Iset.of_list target))
        in
        let outcome =
          Modelcheck.Snapshot3.find_nonatomic ?log2_capacity ~inputs
            ~target_mask ~wirings ()
        in
        let rest =
          match outcome with
          | Modelcheck.Snapshot3.Witness _ -> Seq.empty
          | Refuted _ | Undecided _ -> go rest
        in
        Seq.Cons (((inputs, Iset.of_list target), outcome), rest)
  in
  go nonatomic_candidates

(** Human-readable report of one {!find_nonatomic_packed} outcome, one
    line per fact; processors, registers and wiring rows are 1-based. *)
let nonatomic_report (inputs, target) outcome =
  let module S = Modelcheck.Snapshot3 in
  let candidate =
    Printf.sprintf "inputs (%s), target %s"
      (String.concat "," (Array.to_list (Array.map string_of_int inputs)))
      (Iset.to_string target)
  in
  let per_wiring refuted =
    String.concat " "
      (List.map (fun (s : S.stats) -> string_of_int s.S.states) refuted)
  in
  let total refuted =
    List.fold_left (fun acc (s : S.stats) -> acc + s.S.states) 0 refuted
  in
  match outcome with
  | S.Witness w ->
      [
        Printf.sprintf
          "%s: WITNESS — processor %d returns %s although the memory never \
           contains it"
          candidate (w.S.culprit + 1) (Iset.to_string target);
        Fmt.str "  wiring %a, %d steps as (processor, private register \
                 written; - for a read), after %d states:"
          Anonmem.Wiring.pp w.S.wiring (List.length w.S.path)
          w.S.states_explored;
        "  "
        ^ String.concat " "
            (List.map
               (fun (p, wrote) ->
                 Printf.sprintf "(%d,%s)" (p + 1)
                   (match wrote with
                   | Some i -> string_of_int (i + 1)
                   | None -> "-"))
               w.S.path);
      ]
  | S.Refuted refuted ->
      [
        Printf.sprintf "%s: refuted exhaustively over %d wiring%s, %d states"
          candidate (List.length refuted)
          (if List.length refuted = 1 then "" else "s")
          (total refuted);
        "  states per wiring: " ^ per_wiring refuted;
      ]
  | S.Undecided { wiring; states; log2_capacity; refuted } ->
      [
        Fmt.str
          "%s: UNDECIDED — the visited table (2^%d slots of 8 bytes) filled \
           after %d states on wiring %a, wiring %d in search order"
          candidate log2_capacity states Anonmem.Wiring.pp wiring
          (List.length refuted + 1);
        Printf.sprintf
          "  remedy: raise ~log2_capacity above %d (each step doubles the \
           table); refuted before it: %d wirings%s"
          log2_capacity (List.length refuted)
          (if refuted = [] then "" else ", states per wiring " ^ per_wiring refuted);
      ]

(** Search for the Section-8 non-atomicity witness: an execution in which
    some processor's snapshot never equalled the set of inputs present in
    memory at any time. *)
let find_nonatomic_execution ?(n = 3) ?(attempts = 2_000) () =
  let inputs = Array.init n (fun i -> i + 1) in
  let cfg = Algorithms.Snapshot.standard ~n in
  Snapshot_witness.find_nonatomic ~cfg ~inputs ~memory_set:snapshot_memory_set
    ~output_set:Fun.id ~attempts ()
