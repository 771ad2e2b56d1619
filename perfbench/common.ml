(* Plumbing shared by the workloads: the run settings, the known-answer
   ledger, the timed-pass loop, metrics and host facts. *)

type ctx = {
  seed : int;
  seconds : float;  (** how long the untraced run keeps repeating passes *)
  tiny : bool;  (** self-test scale: small inputs, same code paths *)
}

(* Scratch files (checkpoints, journals, spans), relative to the repo
   root; git-ignored. *)
let out_dir = "_perfbench"

type metric = { name : string; value : float; unit : string }

let metric name unit value = { name; value; unit }

(* Every verdict checked against its known answer lands here; the run is
   correct iff [failed] stays 0. *)
let attempted = ref 0
let failed = ref 0

let expect ok what =
  incr attempted;
  if not ok then begin
    incr failed;
    prerr_endline ("perfbench: known answer not met: " ^ what)
  end

(* Wall-clock time of the first timed library call; run.py measures
   set-up as the distance from process spawn to this instant.  A
   set-up-only run stops right there, so it runs exactly the set-up code
   of the full run. *)
let first_call_wall = ref nan
let setup_only = ref false

exception Setup_done

let mark_first_call () =
  if Float.is_nan !first_call_wall then begin
    first_call_wall := Unix.gettimeofday ();
    if !setup_only then raise Setup_done
  end

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Peak resident set of this process (VmHWM), in MiB. *)
let vm_hwm_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.starts_with ~prefix:"VmHWM:" line ->
        Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
    | _ -> scan ()
    | exception End_of_file -> nan
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

(* Read after the first pass: later passes reuse a heap the runtime has
   not handed back, so the peak would otherwise creep with the count. *)
let peak_rss_mb = ref nan

(* Time [pass] repeatedly and return every pass's wall time.  Another
   pass starts only while one more of the same length still fits in
   [seconds]; at least one always runs.  The heap is compacted between
   passes, outside the timings, so each pass starts from a clean heap. *)
let pass_times = ref []

let timed_passes ~seconds pass =
  mark_first_call ();
  let start = Spans.now_ns () in
  let rec go acc =
    let t0 = Spans.now_ns () in
    pass ();
    let dt = Spans.seconds_between t0 (Spans.now_ns ()) in
    if acc = [] then peak_rss_mb := vm_hwm_mb ();
    Gc.compact ();
    let acc = dt :: acc in
    if Spans.seconds_between start (Spans.now_ns ()) +. dt <= seconds then
      go acc
    else List.rev acc
  in
  pass_times := go [];
  !pass_times

(* The end-to-end metrics every workload reports, bar [setup_s], which
   run.py measures from outside the process.  [work] is the
   workload's unit of work done per pass (states or steps), [verdicts]
   the verdicts it reaches per pass. *)
let end_to_end ~passes ~work ~verdicts =
  let verdict_s = median passes in
  [
    metric "verdict_s" "s" verdict_s;
    metric "work_per_s" "1/s" (float_of_int work /. verdict_s);
    metric "verdicts_per_s" "1/s" (float_of_int verdicts /. verdict_s);
    metric "peak_rss_mb" "MiB" !peak_rss_mb;
  ]

let host_facts ~ctx ~traced =
  let gc = Gc.get () in
  [
    ("recommended_domain_count", Json.int (Domain.recommended_domain_count ()));
    ("ocaml_version", Json.str Sys.ocaml_version);
    ("minor_heap_words", Json.int gc.Gc.minor_heap_size);
    ("word_size", Json.int Sys.word_size);
    ("seed", Json.int ctx.seed);
    ("traced", Json.bool traced);
    ("scale", Json.str (if ctx.tiny then "tiny" else "full"));
  ]

let rm_rf path =
  let rec go p =
    if Sys.file_exists p then
      if Sys.is_directory p then begin
        Array.iter (fun f -> go (Filename.concat p f)) (Sys.readdir p);
        Sys.rmdir p
      end
      else Sys.remove p
  in
  go path
