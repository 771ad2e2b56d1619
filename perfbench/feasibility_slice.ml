(* feasibility_slice: a slice of the Raynal–Taubenfeld feasibility map,
   checked cell by cell through [Core.feasibility_check] with the
   settings of [anonsim feasibility] — symmetry reduction, wiring
   classes, a checkpoint directory and one journal line per cell.

   Known answers: each verdict must confirm the coprimality prediction,
   carry the status FEASIBILITY.json records for the cell, and for
   solved cells report its wiring and state counts. *)

module F = Analysis.Feasibility

type answer = Solved of { wirings : int; states : int } | Refuted of string

type cell = { task : string; n : int; m : int; answer : answer }

let solved wirings states = Solved { wirings; states }
let safety = Refuted "safety-violation"
let deadlock = Refuted "deadlock"

(* The n = 2 cells of the quick map plus the n = 3 cells that finish in
   seconds; the answers are FEASIBILITY.json's. *)
let full_slice =
  List.map
    (fun (task, n, m, answer) -> { task; n; m; answer })
    [
      ("mutex", 2, 1, safety);
      ("mutex", 2, 2, deadlock);
      ("mutex", 2, 3, solved 5 5602);
      ("mutex", 2, 4, deadlock);
      ("mutex", 2, 5, solved 73 462503);
      ("mutex", 2, 6, deadlock);
      ("naming", 2, 2, deadlock);
      ("naming", 2, 3, solved 5 4766);
      ("naming", 2, 4, deadlock);
      ("naming", 2, 5, solved 73 424406);
      ("leader", 2, 1, safety);
      ("leader", 2, 2, solved 2 213);
      ("leader", 2, 3, solved 5 2084);
      ("leader", 2, 4, solved 17 21590);
      ("mutex", 3, 1, safety);
      ("mutex", 3, 2, safety);
      ("mutex", 3, 3, safety);
      ("mutex", 3, 4, deadlock);
      ("naming", 3, 3, safety);
      ("leader", 3, 1, safety);
      ("leader", 3, 2, solved 2 3288);
      ("leader", 3, 3, solved 10 152116);
    ]

let tiny_slice =
  List.filter
    (fun c -> List.mem (c.task, c.n, c.m) [ ("mutex", 2, 3); ("leader", 2, 1) ])
    full_slice

let name c = Printf.sprintf "%s-%d-%d" c.task c.n c.m

let expectation c =
  let g = List.find (fun g -> g.F.g_task = c.task) (F.grids ()) in
  F.expected ~floor:g.F.g_floor ~coprime:g.F.g_coprime ~n:c.n ~m:c.m

let check_cell c status =
  let matches =
    match (c.answer, status) with
    | Solved a, F.Solved b -> a.wirings = b.wirings && a.states = b.states
    | Refuted keyword, status -> String.equal keyword (F.status_keyword status)
    | Solved _, _ -> false
  in
  Common.expect
    (matches && F.confirms (expectation c) status)
    (Fmt.str "feasibility %s: %a" (name c) F.pp_status status)

let check ?ckpt_dir c =
  Core.feasibility_check ~reduction:true ~wiring_classes:true ?ckpt_dir
    ~task:c.task ~n:c.n ~m:c.m ()

let record c status =
  F.cell_to_record
    { F.task = c.task; n = c.n; m = c.m; expectation = expectation c; status }

(* One pass over the slice in a fresh checkpoint directory (a stale
   checkpoint would resume instead of recomputing), journaling each
   cell as [anonsim feasibility] does. *)
let with_sweep f =
  let dir = Filename.concat Common.out_dir "feasibility" in
  Common.rm_rf dir;
  Sys.mkdir dir 0o755;
  let journal =
    Runtime_shm.Journal.create (Filename.concat dir "feasibility.journal")
  in
  f ~dir ~journal;
  Runtime_shm.Journal.close journal;
  Common.rm_rf dir

let pass cells () =
  with_sweep (fun ~dir ~journal ->
      List.iter
        (fun c ->
          let status = check ~ckpt_dir:dir c in
          Runtime_shm.Journal.append journal (record c status);
          check_cell c status)
        cells)

let slice (ctx : Common.ctx) = if ctx.tiny then tiny_slice else full_slice

let solved_states cells =
  List.fold_left
    (fun acc c ->
      match c.answer with Solved a -> acc + a.states | Refuted _ -> acc)
    0 cells

let run (ctx : Common.ctx) =
  let cells = slice ctx in
  let passes = Common.timed_passes ~seconds:ctx.seconds (pass cells) in
  Common.end_to_end ~passes ~work:(solved_states cells)
    ~verdicts:(List.length cells)

(* ---- traced run ------------------------------------------------------ *)

let traced (ctx : Common.ctx) =
  let cells = slice ctx in
  Common.mark_first_call ();
  let g0 = Gc.quick_stat () and w0 = Gc.minor_words () in
  with_sweep (fun ~dir ~journal ->
      List.iter
        (fun c ->
          let status =
            Spans.with_span ~label:(name c) "feasibility.cell" (fun () ->
                check ~ckpt_dir:dir c)
          in
          Spans.with_span ~label:(name c) "journal.append" (fun () ->
              Runtime_shm.Journal.append journal (record c status));
          check_cell c status)
        cells);
  let g1 = Gc.quick_stat () and w1 = Gc.minor_words () in
  (* Price the checkpoints: rerun the packed mutex cells with and without
     a checkpoint directory, alternating which goes first, and compare
     the medians.  Mutex (3,4) is left out: its packed pass never reaches
     a checkpoint interval, and its ten seconds of generic exploration
     would bury a sub-second difference in run-to-run noise. *)
  let mutex =
    List.filter (fun c -> c.task = "mutex" && name c <> "mutex-3-4") cells
  in
  for rep = 1 to 5 do
    with_sweep (fun ~dir ~journal:_ ->
        List.iter
          (fun c ->
            let timed ckpt_dir span =
              check_cell c
                (Spans.with_span ~label:(name c) span (fun () ->
                     check ?ckpt_dir c))
            in
            let with_ckpt () = timed (Some dir) "feasibility.cell_with_ckpt"
            and without () = timed None "feasibility.cell_without_ckpt" in
            if rep mod 2 = 0 then (with_ckpt (); without ())
            else (without (); with_ckpt ()))
          mutex)
  done;
  let overhead c =
    let median span = Common.median (Spans.durations ~label:(name c) span) in
    median "feasibility.cell_with_ckpt" -. median "feasibility.cell_without_ckpt"
  in
  List.map
    (fun c ->
      Common.metric
        ("feasibility.cell_s." ^ name c)
        "s"
        (Spans.total_s ~label:(name c) "feasibility.cell"))
    cells
  @ [
      Common.metric "journal.append_s" "s" (Spans.self_s "journal.append");
      Common.metric "checkpoint.overhead_s" "s"
        (List.fold_left (fun acc c -> acc +. overhead c) 0. mutex);
      Common.metric "gc.minor_words_per_state" "words/state"
        ((w1 -. w0) /. float_of_int (solved_states cells));
      Common.metric "gc.minor_collections" "count"
        (float_of_int (g1.Gc.minor_collections - g0.Gc.minor_collections));
      Common.metric "gc.major_collections" "count"
        (float_of_int (g1.Gc.major_collections - g0.Gc.major_collections));
    ]
