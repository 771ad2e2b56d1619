(* In-memory span recorder for the traced runs.

   A span covers one call, or one batch of calls, into a single layer:
   its name is the layer metric it feeds ("explorer.decode",
   "state_table.intern", ...), its label says which input it ran on,
   and its parent is the enclosing span (-1 at the top).  Spans stay in
   memory until [write] dumps them at the end of the run.  A layer's
   self time is the sum, over its spans, of each span's duration minus
   the time its direct children cover. *)

type span = {
  id : int;
  name : string;
  label : string;
  parent : int;
  start_ns : int64;
  stop_ns : int64;
}

let recorded : span list ref = ref []
let open_spans : int list ref = ref []
let next_id = ref 0

let now_ns () = Monotonic_clock.now ()
let seconds_between t0 t1 = Int64.to_float (Int64.sub t1 t0) /. 1e9

let with_span ?(label = "") name f =
  let id = !next_id in
  incr next_id;
  let parent = match !open_spans with p :: _ -> p | [] -> -1 in
  open_spans := id :: !open_spans;
  let start_ns = now_ns () in
  let close () =
    let stop_ns = now_ns () in
    open_spans := List.tl !open_spans;
    recorded := { id; name; label; parent; start_ns; stop_ns } :: !recorded
  in
  match f () with
  | r ->
      close ();
      r
  | exception e ->
      close ();
      raise e

let duration s = seconds_between s.start_ns s.stop_ns

(* Self time summed over every span named [name]. *)
let self_s name =
  let children = Hashtbl.create 64 in
  List.iter
    (fun s ->
      let prev = Option.value ~default:0. (Hashtbl.find_opt children s.parent) in
      Hashtbl.replace children s.parent (prev +. duration s))
    !recorded;
  List.fold_left
    (fun acc s ->
      if String.equal s.name name then
        acc +. duration s
        -. Option.value ~default:0. (Hashtbl.find_opt children s.id)
      else acc)
    0. !recorded

(* Durations of the spans named [name] (children included). *)
let durations ?label name =
  List.filter_map
    (fun s ->
      if
        String.equal s.name name
        && match label with Some l -> String.equal s.label l | None -> true
      then Some (duration s)
      else None)
    !recorded

let total_s ?label name = List.fold_left ( +. ) 0. (durations ?label name)

(* Write every span, plus the run-level [fields], as one JSON object. *)
let write ~path ~run_id ~fields =
  let span s =
    Json.obj
      [
        ("id", Json.int s.id);
        ("name", Json.str s.name);
        ("label", Json.str s.label);
        ("parent", Json.int s.parent);
        ("start_ns", Int64.to_string s.start_ns);
        ("end_ns", Int64.to_string s.stop_ns);
        ("run_id", Json.str run_id);
      ]
  in
  let oc = open_out path in
  output_string oc
    (Json.obj
       ((("run_id", Json.str run_id) :: fields)
       @ [ ("spans", Json.arr (List.rev_map span !recorded)) ]));
  output_char oc '\n';
  close_out oc
