(* The benchmark's worker process: runs one workload, untraced (the
   end-to-end metrics) or traced (the per-layer metrics), and prints one
   JSON line.  perfbench/run.py drives it; see perfbench/README.md. *)

let workloads =
  [
    ("mc_headline", (Mc_headline.run, Mc_headline.traced));
    ("feasibility_slice", (Feasibility_slice.run, Feasibility_slice.traced));
    ("fuzz_campaign", (Fuzz_campaign.run, Fuzz_campaign.traced));
  ]

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 40. in
  let trace = ref 0 and scale = ref "full" in
  let setup_only = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S how long to repeat passes");
      ("--trace", Arg.Set_int trace, "0|1 untraced or traced run");
      ("--scale", Arg.Set_string scale, "full|tiny input scale");
      ( "--setup-only",
        Arg.Set setup_only,
        " stop at the first timed library call" );
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME [options]";
  let run, traced =
    match List.assoc_opt !workload workloads with
    | Some w -> w
    | None ->
        prerr_endline ("bench.exe: unknown workload " ^ !workload);
        exit 2
  in
  let ctx =
    {
      Common.seed = !seed;
      seconds = !seconds;
      tiny = String.equal !scale "tiny";
    }
  in
  if not (Sys.file_exists Common.out_dir) then Sys.mkdir Common.out_dir 0o755;
  let traced_run = !trace = 1 in
  Common.setup_only := !setup_only;
  let metrics =
    try if traced_run then traced ctx else run ctx
    with Common.Setup_done -> []
  in
  let host = Common.host_facts ~ctx ~traced:traced_run in
  if traced_run && not !setup_only then
    Spans.write
      ~path:
        (Filename.concat Common.out_dir
           (Printf.sprintf "spans-%s-seed%d.json" !workload ctx.seed))
      ~run_id:(Printf.sprintf "%s-seed%d-%d" !workload ctx.seed (Unix.getpid ()))
      ~fields:[ ("workload", Json.str !workload); ("host", Json.obj host) ];
  print_endline
    (Json.obj
       [
         ("workload", Json.str !workload);
         ("first_call_wall", Json.num !Common.first_call_wall);
         ("correct", Json.bool (!Common.failed = 0));
         ("attempted", Json.int !Common.attempted);
         ("failed", Json.int !Common.failed);
         ( "metrics",
           Json.arr
             (List.map
                (fun m ->
                  Json.obj
                    [
                      ("name", Json.str m.Common.name);
                      ("value", Json.num m.Common.value);
                      ("unit", Json.str m.Common.unit);
                    ])
                metrics) );
         ("pass_s", Json.arr (List.map Json.num !Common.pass_times));
         ("host", Json.obj host);
       ])
