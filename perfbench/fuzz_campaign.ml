(* fuzz_campaign: a fixed mix of schedule-fuzzing campaigns through
   [Fuzzing.Harness.Make (T).campaign] at two domains with the stock
   5,000-step budget.  The case seeds derive from the benchmark seed.

   Known answers: no campaign finds a counterexample, every pass prints
   the same [deterministic_summary], and a one-domain rerun prints it
   byte for byte. *)

let max_steps = 5_000
let domains = 2

type campaign = {
  name : string;
  iterations : int;
  run : domains:int -> Fuzzing.Harness.report * string;
      (** the campaign and its deterministic summary *)
  replay : unit -> int * float;
      (** the same cases one by one through the harness layers, one span
          per batch and layer; returns (steps, words allocated while
          executing) *)
}

module Of_target (T : Fuzzing.Target.S) = struct
  module H = Fuzzing.Harness.Make (T)

  let make ~key ~name ~n_range ?fault_profile ~seed ~iterations () =
    let run ~domains =
      let report =
        H.campaign ~domains ~n_range ~max_steps ?fault_profile ~seed
          ~iterations ()
      in
      (report, H.deterministic_summary ~key report)
    in
    (* Batches are the campaign's own chunks, so case seeds come from
       the same per-chunk streams the campaign draws them from. *)
    let replay () =
      let steps = ref 0 and words = ref 0. in
      let allocated () =
        let g = Gc.quick_stat () in
        Gc.minor_words () +. g.Gc.major_words -. g.Gc.promoted_words
      in
      for c = 0 to ((iterations + H.chunk_size - 1) / H.chunk_size) - 1 do
        let len = min H.chunk_size (iterations - (c * H.chunk_size)) in
        let rng = H.chunk_stream ~seed c in
        let seeds = Array.init len (fun _ -> Repro_util.Rng.int rng max_int) in
        let cases =
          Spans.with_span ~label:name "fuzz.gen" (fun () ->
              Array.map
                (fun seed ->
                  Fuzzing.Gen.case ~seed ~n_range ~m_range:T.m_range
                    ?fault_profile ~max_steps ())
                seeds)
        in
        let w0 = allocated () in
        let runs =
          Spans.with_span ~label:name "fuzz.exec" (fun () ->
              Array.map (fun case -> H.run_case ~record:false case) cases)
        in
        words := !words +. allocated () -. w0;
        let verdicts =
          Spans.with_span ~label:name "fuzz.oracle" (fun () ->
              Array.map2
                (fun (case : Fuzzing.Gen.case) run ->
                  H.verdict ~n:case.n ~m:case.m ~inputs:case.inputs run)
                cases runs)
        in
        Array.iter (fun (r : H.run) -> steps := !steps + r.H.steps) runs;
        Array.iter
          (fun v -> Common.expect (Result.is_ok v) (name ^ ": case failed"))
          verdicts
      done;
      (!steps, !words)
    in
    { name; iterations; run; replay }
end

module Snapshot = Of_target (Fuzzing.Targets.Snapshot)
module Consensus = Of_target (Fuzzing.Targets.Consensus)

(* A full pass simulates about 56M shared-memory steps; the self-test
   scale runs 1/320 of each campaign. *)
let mix (ctx : Common.ctx) =
  let scale k = if ctx.tiny then max 1 (k / 320) else k in
  let seed i = (ctx.seed * 16) + i in
  [
    Snapshot.make ~key:"snapshot" ~name:"snapshot" ~n_range:(2, 5)
      ~seed:(seed 0) ~iterations:(scale 32_000) ();
    Snapshot.make ~key:"snapshot" ~name:"snapshot_crash" ~n_range:(2, 5)
      ~fault_profile:Fuzzing.Fault_gen.Crash_stop_only ~seed:(seed 1)
      ~iterations:(scale 32_000) ();
    Consensus.make ~key:"consensus" ~name:"consensus" ~n_range:(2, 5)
      ~seed:(seed 2) ~iterations:(scale 32_000) ();
    Snapshot.make ~key:"snapshot" ~name:"snapshot_large" ~n_range:(24, 40)
      ~seed:(seed 3) ~iterations:(scale 6_400) ();
  ]

let check_report c (report : Fuzzing.Harness.report) =
  Common.expect
    (report.counterexample = None && report.iterations = c.iterations)
    (c.name ^ ": campaign reported a counterexample")

let run (ctx : Common.ctx) =
  let mix = mix ctx in
  Fuzzing.Domain_pool.ensure (domains - 1);
  let summaries = ref [] in
  let work = ref 0 in
  let pass () =
    let reports = List.map (fun c -> c.run ~domains) mix in
    List.iter2 (fun c (r, _) -> check_report c r) mix reports;
    let summary = List.map snd reports in
    match !summaries with
    | [] ->
        summaries := summary;
        work :=
          List.fold_left
            (fun acc (r, _) -> acc + r.Fuzzing.Harness.total_steps)
            0 reports
    | first ->
        Common.expect (summary = first) "campaign summaries differ between passes"
  in
  let passes = Common.timed_passes ~seconds:ctx.seconds pass in
  List.iter2
    (fun c two ->
      Common.expect
        (String.equal (snd (c.run ~domains:1)) two)
        (c.name ^ ": one-domain summary differs from the two-domain one"))
    mix !summaries;
  Common.end_to_end ~passes ~work:!work
    ~verdicts:(List.fold_left (fun acc c -> acc + c.iterations) 0 mix)

(* ---- traced run ------------------------------------------------------ *)

let traced (ctx : Common.ctx) =
  let mix = mix ctx in
  Fuzzing.Domain_pool.ensure (domains - 1);
  Common.mark_first_call ();
  let minor_gcs = ref 0 and major_gcs = ref 0 in
  let per_campaign =
    List.concat_map
      (fun c ->
        let steps, words = c.replay () in
        let one, summary1 =
          Spans.with_span ~label:c.name "campaign.one_domain" (fun () ->
              c.run ~domains:1)
        in
        check_report c one;
        Common.expect
          (steps = one.Fuzzing.Harness.total_steps)
          (c.name ^ ": case-by-case replay ran other steps than the campaign");
        let g0 = Gc.quick_stat () in
        let two, summary2 =
          Spans.with_span ~label:c.name "campaign.two_domains" (fun () ->
              c.run ~domains)
        in
        let g1 = Gc.quick_stat () in
        minor_gcs :=
          !minor_gcs + g1.Gc.minor_collections - g0.Gc.minor_collections;
        major_gcs :=
          !major_gcs + g1.Gc.major_collections - g0.Gc.major_collections;
        check_report c two;
        Common.expect
          (String.equal summary1 summary2)
          (c.name ^ ": one- and two-domain summaries differ");
        let layer l = Spans.total_s ~label:c.name l in
        [
          Common.metric ("fuzz.gen_s." ^ c.name) "s" (layer "fuzz.gen");
          Common.metric ("fuzz.exec_s." ^ c.name) "s" (layer "fuzz.exec");
          Common.metric ("fuzz.oracle_s." ^ c.name) "s" (layer "fuzz.oracle");
          Common.metric
            ("fuzz.alloc_words_per_step." ^ c.name)
            "words/step"
            (words /. float_of_int steps);
        ])
      mix
  in
  per_campaign
  @ [
      Common.metric "domain_pool.efficiency" "ratio"
        (Spans.total_s "campaign.one_domain"
        /. (float_of_int domains *. Spans.total_s "campaign.two_domains"));
      Common.metric "gc.minor_collections" "count" (float_of_int !minor_gcs);
      Common.metric "gc.major_collections" "count" (float_of_int !major_gcs);
    ]
