(* An independent reference explorer: the textbook explicit-state search
   the differential suites hold [Explorer.explore] to.

   It shares as little as possible with the engine it checks.  A protocol
   is seen only through the boxed reference semantics of [Explorer.Make]
   ([init_state], [enabled], [successor]), and [encode_state] serves
   purely as the key of a plain [Hashtbl].  There is no key stepper, no
   [State_table], no canonicalization, no checkpointing and no domains:
   a queue of boxed states, a visited table and an edge list.

   Wait-freedom is decided by plain reachability over that edge list, not
   by an SCC pass: processor [p] diverges iff some [p]-edge [u -> v] lies
   on a cycle, i.e. [u] is reachable from [v].  That pass is quadratic on
   cyclic spaces, so the reference is meant for small cells.

   The explored space is unreduced; compare it with an unreduced
   [Explorer.explore]. *)

module Make (P : Modelcheck.Explorer.CHECKABLE) = struct
  module E = Modelcheck.Explorer.Make (P)

  type counts = {
    states : int;  (** distinct reachable states, bounded leaves included *)
    transitions : int;  (** one per (expanded state, enabled processor) *)
    terminals : int;  (** expanded states with no enabled processor *)
    divergent : int list;  (** sorted pids with an edge on a cycle *)
  }

  type outcome =
    | Clean of counts
    | Violated of { depth : int; message : string }
        (** the invariant failed; [depth] is the BFS layer of the first
            violating state found, i.e. the minimal counterexample
            length *)

  (* Processors with an edge [u -p-> v] whose source is reachable from its
     target (a zero-length path counts, so self-loops diverge).  A node
     with no incoming or no outgoing edge lies on no cycle, so such nodes
     are peeled off first, repeatedly; on an acyclic space nothing
     survives and no search runs.  Edges into one surviving target share
     its forward search. *)
  let divergent ~states edges =
    let succs = Array.make states [] and preds = Array.make states [] in
    let indeg = Array.make states 0 and outdeg = Array.make states 0 in
    List.iter
      (fun (u, p, v) ->
        succs.(u) <- v :: succs.(u);
        preds.(v) <- (u, p) :: preds.(v);
        outdeg.(u) <- outdeg.(u) + 1;
        indeg.(v) <- indeg.(v) + 1)
      edges;
    let alive = Array.make states true in
    let peel = Queue.create () in
    let consider x =
      if alive.(x) && (indeg.(x) = 0 || outdeg.(x) = 0) then begin
        alive.(x) <- false;
        Queue.add x peel
      end
    in
    for x = 0 to states - 1 do
      consider x
    done;
    while not (Queue.is_empty peel) do
      let x = Queue.pop peel in
      List.iter
        (fun y ->
          indeg.(y) <- indeg.(y) - 1;
          consider y)
        succs.(x);
      List.iter
        (fun (w, _) ->
          outdeg.(w) <- outdeg.(w) - 1;
          consider w)
        preds.(x)
    done;
    let bad = ref [] in
    for v = 0 to states - 1 do
      let open_preds =
        List.filter
          (fun (u, p) -> alive.(v) && alive.(u) && not (List.mem p !bad))
          preds.(v)
      in
      if open_preds <> [] then begin
        let seen = Array.make states false in
        let rec mark = function
          | [] -> ()
          | x :: rest ->
              if seen.(x) || not alive.(x) then mark rest
              else begin
                seen.(x) <- true;
                mark (List.rev_append succs.(x) rest)
              end
        in
        mark [ v ];
        List.iter
          (fun (u, p) ->
            if seen.(u) && not (List.mem p !bad) then bad := p :: !bad)
          open_preds
      end
    done;
    List.sort compare !bad

  (** Breadth-first search from the initial state.  [invariant] is checked
      on every state when it is first discovered; states satisfying
      [stop_expansion] are counted but not expanded (nor terminal). *)
  let explore ?invariant ?(stop_expansion = fun _ -> false) ~cfg ~wiring
      ~inputs () =
    let ids : (string, int) Hashtbl.t = Hashtbl.create 1024 in
    let queue = Queue.create () in
    let edges = ref [] and transitions = ref 0 and terminals = ref 0 in
    let violation = ref None in
    let visit depth st =
      let key = E.encode_state cfg st in
      match Hashtbl.find_opt ids key with
      | Some id -> id
      | None ->
          let id = Hashtbl.length ids in
          Hashtbl.add ids key id;
          (match Option.map (fun check -> check st) invariant with
          | Some (Error message) when !violation = None ->
              violation := Some (depth, message)
          | _ -> ());
          Queue.add (id, depth, st) queue;
          id
    in
    ignore (visit 0 (E.init_state ~cfg ~inputs));
    while !violation = None && not (Queue.is_empty queue) do
      let id, depth, st = Queue.pop queue in
      if not (stop_expansion st) then
        match E.enabled cfg st with
        | [] -> incr terminals
        | pids ->
            List.iter
              (fun p ->
                let id' = visit (depth + 1) (E.successor cfg wiring st p) in
                incr transitions;
                edges := (id, p, id') :: !edges)
              pids
    done;
    match !violation with
    | Some (depth, message) -> Violated { depth; message }
    | None ->
        let states = Hashtbl.length ids in
        Clean
          {
            states;
            transitions = !transitions;
            terminals = !terminals;
            divergent = divergent ~states !edges;
          }
end
