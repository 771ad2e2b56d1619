(* mc_headline: the paper's claim-7a cell — the Figure-3 snapshot at
   n = 3 under the identity wiring with one input group — explored in
   full and then symmetry-reduced, with the wait-freedom verdict after
   each.  The self-test scale runs the n = 2 group cell instead. *)

module E = Modelcheck.Explorer.Make (Modelcheck.Codecs.Snapshot)
module St = Modelcheck.State_table
module Ckpt = Modelcheck.Checkpoint

type counts = { states : int; transitions : int }

type setup = {
  cfg : Algorithms.Snapshot.cfg;
  wiring : Anonmem.Wiring.t;
  inputs : int array;
  full : counts;  (** known answer of the full space *)
  reduced : counts;  (** known answer of the symmetry quotient *)
}

let setup (ctx : Common.ctx) =
  if ctx.tiny then
    {
      cfg = Algorithms.Snapshot.standard ~n:2;
      wiring =
        (match Anonmem.Wiring.enumerate ~n:2 ~m:2 ~fix_first:true with
        | _ :: w :: _ -> w
        | _ -> assert false);
      inputs = [| 1; 1 |];
      full = { states = 368; transitions = 654 };
      reduced = { states = 189; transitions = 335 };
    }
  else
    {
      cfg = Algorithms.Snapshot.standard ~n:3;
      wiring = Anonmem.Wiring.identity ~n:3 ~m:3;
      inputs = [| 1; 1; 1 |];
      full = { states = 1_954_379; transitions = 5_666_028 };
      reduced = { states = 335_983; transitions = 974_235 };
    }

let label ~reduction = if reduction then "reduced" else "full"

(* Explore one space and check its counts against the known answer. *)
let explore s ~reduction =
  let want = if reduction then s.reduced else s.full in
  match
    E.explore ~reduction ~cfg:s.cfg ~wiring:s.wiring ~inputs:s.inputs ()
  with
  | E.Explored space ->
      let states = E.state_count space
      and transitions = E.transition_count space in
      Common.expect
        (states = want.states && transitions = want.transitions)
        (Printf.sprintf "%s space: %d states / %d transitions, expected %d / %d"
           (label ~reduction) states transitions want.states want.transitions);
      Some space
  | _ ->
      Common.expect false (label ~reduction ^ " space: exploration did not end");
      None

let expect_wait_free ~reduction wait_free =
  Common.expect wait_free (label ~reduction ^ " space: not wait-free")

let pass s () =
  List.iter
    (fun reduction ->
      Option.iter
        (fun space -> expect_wait_free ~reduction (E.is_wait_free space))
        (explore s ~reduction))
    [ false; true ]

let run (ctx : Common.ctx) =
  let s = setup ctx in
  let passes = Common.timed_passes ~seconds:ctx.seconds (pass s) in
  Common.end_to_end ~passes
    ~work:(s.full.states + s.reduced.states)
    ~verdicts:2

(* ---- traced run ------------------------------------------------------ *)

(* States replayed per batch.  Each batch goes through one layer at a
   time — key read + decode, enabled + successor, encode, canonicalize,
   intern — so every span times thousands of calls of a single layer. *)
let batch = 128

(* Re-expand every stored state of [space] through the explorer's public
   step functions, interning into a fresh table exactly as the BFS does
   (it pops ids in ascending order, so the intern sequence is the BFS's
   own).  Returns the number of intern attempts. *)
let replay s ~reduction space =
  let label = label ~reduction in
  let cfg = s.cfg and wiring = s.wiring in
  let n = E.state_count space in
  let table = St.create ~log2_slots:16 ~key_width:(E.key_width cfg) () in
  ignore (St.intern table (St.key_of_id space.E.table 0));
  let attempts = ref 1 in
  let lo = ref 0 in
  while !lo < n do
    let first = !lo and len = min batch (n - !lo) in
    let states =
      Spans.with_span ~label "explorer.decode" (fun () ->
          Array.init len (fun i ->
              E.decode_state cfg (St.key_of_id space.E.table (first + i))))
    in
    let succs =
      Spans.with_span ~label "explorer.successor" (fun () ->
          Array.map
            (fun st -> List.map (E.successor cfg wiring st) (E.enabled cfg st))
            states)
    in
    let keys =
      Spans.with_span ~label "explorer.encode" (fun () ->
          Array.map (List.map (E.encode_state cfg)) succs)
    in
    let keys =
      match space.E.reduction with
      | None -> keys
      | Some canon ->
          Spans.with_span ~label "canon.canonicalize" (fun () ->
              Array.map (List.map (Modelcheck.Canon.canonicalize canon)) keys)
    in
    Spans.with_span ~label "state_table.intern" (fun () ->
        Array.iter
          (List.iter (fun key ->
               incr attempts;
               ignore (St.intern table key)))
          keys);
    lo := first + len
  done;
  Common.expect
    (St.length table = n && !attempts - 1 = E.transition_count space)
    (label ^ " replay: re-expansion does not reproduce the explored space");
  !attempts

(* Save and reload the full space's sections as an explorer checkpoint
   (the same sections [Explorer.explore ~ckpt] writes); returns the file
   size in bytes. *)
let checkpoint_round_trip space =
  let path = Filename.concat Common.out_dir "mc_headline.ckpt" in
  Spans.with_span "checkpoint.save" (fun () ->
      Ckpt.save ~path
        [
          ("table", St.serialize space.E.table);
          ("parent", St.Packed_vec.serialize space.E.parent);
          ("succ", St.Packed_vec.serialize space.E.succ);
          ("deg", St.Packed_vec.serialize space.E.deg);
          ("terminal", Ckpt.bytes_of_ints (Array.of_list space.E.terminal));
        ]);
  let bytes = (Unix.stat path).Unix.st_size in
  let table, succ =
    Spans.with_span "checkpoint.load" (fun () ->
        let sections = Ckpt.load ~path in
        let table = St.deserialize (Ckpt.find "table" sections) in
        ignore (St.Packed_vec.deserialize (Ckpt.find "parent" sections));
        ignore (St.Packed_vec.deserialize (Ckpt.find "deg" sections));
        (table, St.Packed_vec.deserialize (Ckpt.find "succ" sections)))
  in
  Common.expect
    (St.length table = E.state_count space
    && St.Packed_vec.length succ = E.transition_count space)
    "checkpoint round trip: reloaded sections differ";
  Sys.remove path;
  bytes

let traced (ctx : Common.ctx) =
  let s = setup ctx in
  Common.mark_first_call ();
  let states = ref 0 and attempts = ref 0 in
  let minor_words = ref 0. and minor_gcs = ref 0 and major_gcs = ref 0 in
  let ckpt_bytes = ref 0 in
  List.iter
    (fun reduction ->
      Gc.compact ();
      let space =
        Spans.with_span ~label:(label ~reduction) "explorer.explore"
          (fun () ->
            let g0 = Gc.quick_stat () and w0 = Gc.minor_words () in
            let space = explore s ~reduction in
            let g1 = Gc.quick_stat () in
            minor_words := !minor_words +. Gc.minor_words () -. w0;
            minor_gcs :=
              !minor_gcs + g1.Gc.minor_collections - g0.Gc.minor_collections;
            major_gcs :=
              !major_gcs + g1.Gc.major_collections - g0.Gc.major_collections;
            space)
      in
      Option.iter
        (fun space ->
          states := !states + E.state_count space;
          expect_wait_free ~reduction
            (Spans.with_span ~label:(label ~reduction) "scc.wait_free"
               (fun () -> E.is_wait_free space));
          attempts := !attempts + replay s ~reduction space;
          if not reduction then ckpt_bytes := checkpoint_round_trip space)
        space)
    [ false; true ];
  let layer_metrics =
    List.map
      (fun span -> Common.metric (span ^ "_s") "s" (Spans.self_s span))
      [
        "explorer.decode";
        "explorer.successor";
        "explorer.encode";
        "canon.canonicalize";
        "state_table.intern";
      ]
  in
  let replayed =
    List.fold_left (fun acc m -> acc +. m.Common.value) 0. layer_metrics
  in
  layer_metrics
  @ [
      Common.metric "explorer.replay_coverage" "ratio"
        (replayed /. Spans.total_s "explorer.explore");
      Common.metric "state_table.fresh_ratio" "ratio"
        (float_of_int !states /. float_of_int !attempts);
      Common.metric "scc.wait_free_s" "s" (Spans.self_s "scc.wait_free");
      Common.metric "checkpoint.save_s" "s" (Spans.self_s "checkpoint.save");
      Common.metric "checkpoint.load_s" "s" (Spans.self_s "checkpoint.load");
      Common.metric "checkpoint.bytes" "bytes" (float_of_int !ckpt_bytes);
      Common.metric "gc.minor_words_per_state" "words/state"
        (!minor_words /. float_of_int !states);
      Common.metric "gc.minor_collections" "count" (float_of_int !minor_gcs);
      Common.metric "gc.major_collections" "count" (float_of_int !major_gcs);
    ]
