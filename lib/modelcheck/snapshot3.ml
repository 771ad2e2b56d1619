(** Specialized exhaustive checker for the 3-processor instance of the
    Figure-3 snapshot algorithm — the exact configuration of the paper's
    TLC claims: the implementation is wait-free and solves the snapshot
    task (claim 7a, {!check}), yet some execution returns a set of inputs
    the memory never held (claim 7b, {!find_nonatomic}).

    The generic explorer ({!Explorer}) keeps one hash-table entry, a byte
    key and bookkeeping per state (~70 bytes); the 3-processor spaces top
    100 million states per wiring, which does not fit comfortably.  Here a
    whole system state packs into a single 54-bit integer:

    {v
    per processor (13 bits x 3):   per register (5 bits x 3):
      view       3 bits              view   3 bits
      level      2 bits              level  2 bits
      written    3 bits  (private registers written this round)
      phase      3 bits  (0 = writing, 1 + pos*2 + all_own = scanning)
      min_level  2 bits
    v}

    {b Write order.}  Figure 3's write phase is a PlusCal [with]: it
    "picks a register that it has not written to since it last wrote all
    the registers".  Write choice [c] of a processor is the [c]-th
    register, in private order, missing from its round's written set.
    The implementation ({!Algorithms.Snapshot}) always takes choice 0, the
    lowest unwritten register, so its written sets are the prefixes
    [{}, {0}, {0,1}] and map one-to-one onto a cyclic write cursor.  The
    entry point fixes the order: {!check} explores choice 0 only (the
    implementation), {!find_nonatomic} every choice (the paper's spec).

    The visited set is an open-addressing table of packed states with a
    2-bit DFS color per slot (~8.2 bytes per state at 50% load), and the
    transition function works directly on the packed representation, so
    exploration allocates nothing on the hot path.  Wait-freedom is
    checked as acyclicity (DFS back edge), the safety invariant as in
    {!Core.snapshot_invariant}: all outputs contain the owner's input,
    only participating inputs, and are pairwise related by containment.

    Two sound canonicalizations quotient the space (both are in the
    generic codec path as well, except the last): [min_level] is pinned
    to 0 once a scan has diverged, and a terminated processor's written
    set is pinned to empty (it takes no further steps, so the set is dead
    state).

    [selfcheck] cross-validates the packed semantics under choice 0
    against the reference implementation in lockstep. *)

open Repro_util

let n = 3
let m = 3

(* -- bit twiddling --------------------------------------------------------- *)

let local_bits = 13
let reg_bits = 5
let reg_off r = (n * local_bits) + (r * reg_bits)
let local_off p = p * local_bits
let lmask = (1 lsl local_bits) - 1
let rmask = (1 lsl reg_bits) - 1
let all_written = (1 lsl m) - 1

(* local fields *)
let l_view l = l land 7
let l_level l = (l lsr 3) land 3
let l_written l = (l lsr 5) land 7
let l_phase l = (l lsr 8) land 7
let l_min l = (l lsr 11) land 3

let mk_local ~view ~level ~written ~phase ~mn =
  view lor (level lsl 3) lor (written lsl 5) lor (phase lsl 8) lor (mn lsl 11)

(* register fields *)
let r_view v = v land 7
let r_level v = (v lsr 3) land 3
let mk_reg ~view ~level = view lor (level lsl 3)

let get_local s p = (s lsr local_off p) land lmask
let set_local s p l = s land lnot (lmask lsl local_off p) lor (l lsl local_off p)
let get_reg s r = (s lsr reg_off r) land rmask
let set_reg s r v = s land lnot (rmask lsl reg_off r) lor (v lsl reg_off r)

let halted l = l_level l >= n && l_phase l = 0

(* -- semantics on packed states -------------------------------------------- *)

(** Number of choices processor [p] has in state [s]: 0 when halted, 1
    during a scan, and one per unwritten register during the write
    phase. *)
let choices s p =
  let l = get_local s p in
  if halted l then 0
  else if l_phase l <> 0 then 1
  else m - Bits.popcount (l_written l)

(** The private register written by write choice [c] in a round that has
    written the registers of [written]. *)
let write_target written c = Bits.nth_set (all_written land lnot written) c

(** [step s p c sigma] is the packed successor when processor [p], wired
    through [sigma] (array: private index -> physical register), takes its
    pending step under choice [c] ([c < choices s p]).  Under choice 0
    behaviourally identical to
    {!Algorithms.Snapshot}/{!Algorithms.Snapshot_core} (checked by
    {!selfcheck}). *)
let step s p c sigma =
  let l = get_local s p in
  let phase = l_phase l in
  if phase = 0 then begin
    (* write phase: write (view, level) to an unwritten register *)
    let i = write_target (l_written l) c in
    let s = set_reg s sigma.(i) (mk_reg ~view:(l_view l) ~level:(l_level l)) in
    let written = l_written l lor (1 lsl i) in
    let l' =
      mk_local ~view:(l_view l) ~level:(l_level l)
        ~written:(if written = all_written then 0 else written)
        ~phase:2 (* scanning, pos 0, all_own *)
        ~mn:n
    in
    set_local s p l'
  end
  else begin
    (* scan phase: read register sigma(pos) *)
    let pos = (phase - 1) / 2 in
    let all_own = (phase - 1) land 1 = 1 in
    let v = get_reg s sigma.(pos) in
    let all_own = all_own && r_view v = l_view l in
    let view = if all_own then l_view l else l_view l lor r_view v in
    let mn = if all_own then min (l_min l) (r_level v) else 0 in
    let l' =
      if pos + 1 < m then
        mk_local ~view ~level:(l_level l) ~written:(l_written l)
          ~phase:(1 + ((pos + 1) * 2) + (if all_own then 1 else 0))
          ~mn
      else
        let level = if all_own then min (mn + 1) n else 0 in
        (* canonicalize the dead written set of a just-terminated processor *)
        let written = if level >= n then 0 else l_written l in
        mk_local ~view ~level ~written ~phase:0 ~mn:0
    in
    set_local s p l'
  end

(** Each processor's private-index -> physical-register map, as {!step}
    takes it. *)
let sigmas_of wiring =
  Array.init n (fun p -> Array.init m (fun i -> Anonmem.Wiring.phys wiring ~p i))

let initial_state inputs =
  Array.to_seqi inputs
  |> Seq.fold_left
       (fun s (p, input) ->
         if input < 1 || input > 3 then
           invalid_arg "Snapshot3: inputs must be in 1..3";
         set_local s p
           (mk_local ~view:(1 lsl (input - 1)) ~level:0 ~written:0 ~phase:0
              ~mn:0))
       0

(** Outputs present in a packed state, as (processor, view bitmask). *)
let outputs s =
  List.filter_map
    (fun p ->
      let l = get_local s p in
      if halted l then Some (p, l_view l) else None)
    [ 0; 1; 2 ]

(* The strong snapshot invariant on bitmasks: own input set, only
   participants, pairwise containment (a ⊆ b as bitmasks: a land b = a). *)
let invariant_ok inputs s =
  let participants =
    Array.fold_left (fun acc i -> acc lor (1 lsl (i - 1))) 0 inputs
  in
  let outs = outputs s in
  List.for_all
    (fun (p, o) ->
      o land (1 lsl (inputs.(p) - 1)) <> 0
      && o land lnot participants = 0
      && List.for_all
           (fun (_, o') -> o land o' = o || o land o' = o')
           outs)
    outs

(* -- cross-validation against the reference semantics ----------------------- *)

module Ref_protocol = Algorithms.Snapshot
module Ref_sys = Anonmem.System.Make (Algorithms.Snapshot)

(** Pack a reference-implementation state, applying the same
    dead-variable canonicalization as {!step} (terminated processors'
    written sets read as empty).  The reference's cyclic cursor [k] is the
    written set [{0..k-1}]. *)
let pack_reference (st : Ref_sys.state) =
  let cfg = st.Ref_sys.cfg in
  let s = ref 0 in
  Array.iteri
    (fun p (l : Algorithms.Snapshot.local) ->
      let module C = Algorithms.Snapshot.Core in
      let view = Iset.fold (fun i acc -> acc lor (1 lsl (i - 1))) l.C.view 0 in
      let halted = Ref_protocol.next cfg l = None in
      let phase, mn =
        match l.C.phase with
        | C.Writing -> (0, 0)
        | C.Scanning sc ->
            (1 + (sc.C.pos * 2) + (if sc.C.all_own then 1 else 0), sc.C.min_level)
      in
      let packed =
        mk_local ~view ~level:l.C.level
          ~written:(if halted then 0 else Bits.full l.C.next_write)
          ~phase
          ~mn:(if phase = 0 then 0 else mn)
      in
      s := set_local !s p packed)
    st.Ref_sys.locals;
  Array.iteri
    (fun r (v : Algorithms.Snapshot.value) ->
      let view = Iset.fold (fun i acc -> acc lor (1 lsl (i - 1))) v.view 0 in
      s := set_reg !s r (mk_reg ~view ~level:v.level))
    st.Ref_sys.registers;
  !s

(** Run [runs] random executions, stepping the packed semantics under
    choice 0 and the reference protocol in lockstep and comparing after
    every step.  Returns the number of steps compared; raises [Failure] on
    the first divergence. *)
let selfcheck ?(runs = 50) ?(max_steps = 2_000) () =
  let compared = ref 0 in
  for seed = 0 to runs - 1 do
    let rng = Rng.create ~seed in
    let wiring = Anonmem.Wiring.random rng ~n ~m in
    let inputs = [| 1 + Rng.int rng 3; 1 + Rng.int rng 3; 1 + Rng.int rng 3 |] in
    let cfg = Algorithms.Snapshot.standard ~n in
    let ref_state = Ref_sys.init ~cfg ~wiring ~inputs in
    let sigmas = sigmas_of wiring in
    let packed = ref (initial_state inputs) in
    if !packed <> pack_reference ref_state then
      failwith "Snapshot3.selfcheck: initial states differ";
    let steps = ref 0 in
    while !steps < max_steps && Ref_sys.enabled ref_state <> [] do
      let en = Ref_sys.enabled ref_state in
      let p = Rng.pick rng en in
      ignore (Ref_sys.step_in_place ref_state p);
      packed := step !packed p 0 sigmas.(p);
      incr steps;
      incr compared;
      if !packed <> pack_reference ref_state then
        failwith
          (Printf.sprintf
             "Snapshot3.selfcheck: divergence at seed %d step %d" seed !steps)
    done
  done;
  !compared

(* -- the DFS ----------------------------------------------------------------- *)

type stats = {
  states : int;
  transitions : int;
  terminals : int;
  max_depth : int;
}

type result =
  | Verified of stats
  | Invariant_violation of { state : int; path : (int * int) list; stats : stats }
      (** path steps are [(processor, choice)] from the initial state *)
  | Cycle of { processors : int list; stats : stats }
  | Table_full of int

(* Open-addressing visited table.  Slots hold the packed state + 1 shifted
   left twice, with the DFS color in the low 2 bits (1 gray, 2 black);
   0 = empty.  Linear probing; the table never shrinks. *)
module Table = struct
  type t = { slots : int array; mask : int; mutable count : int; limit : int }

  let create ~log2_capacity =
    let cap = 1 lsl log2_capacity in
    (* Collect any dead table first: the major GC would otherwise keep the
       previous wiring's table (up to 2 GiB) alive next to this one. *)
    Gc.full_major ();
    { slots = Array.make cap 0; mask = cap - 1; count = 0; limit = cap * 7 / 10 }

  (* Fibonacci hashing of the packed state. *)
  let slot_of t key =
    let h = key * 0x9E3779B97F4A7C1 in
    (h lsr 8) land t.mask

  let rec probe t key i =
    let stored = t.slots.(i) in
    if stored = 0 then i
    else if stored lsr 2 = key + 1 then i
    else probe t key ((i + 1) land t.mask)

  let find_slot t key = probe t key (slot_of t key)
  let color t i = t.slots.(i) land 3

  let insert_gray t key i =
    t.slots.(i) <- ((key + 1) lsl 2) lor 1;
    t.count <- t.count + 1

  let blacken t i = t.slots.(i) <- t.slots.(i) land lnot 3 lor 2
  let full t = t.count >= t.limit
end

let default_log2_capacity = 28

(* One DFS for both claims.  [free] explores every write choice (the
   paper's order), otherwise choice 0 only (the implementation).  [prune]
   states are recorded but not expanded; a [witness] state stops the
   search like an invariant violation, with its path.

   The stack holds (state, meta) pairs, where meta packs
   [slot lsl 9 lor (entered + 1) lsl 4 lor cursor]: [entered = p * 4 + c]
   is the step that pushed the frame and the cursor the next (p, c) pair
   to try, [p * 4 + c], with [n * 4] meaning exhausted. *)
let search ~free ~prune ~witness ~log2_capacity ~wiring ~inputs =
  if Anonmem.Wiring.processors wiring <> n || Anonmem.Wiring.registers wiring <> m
  then invalid_arg "Snapshot3: need 3 processors and 3 registers";
  let sigmas = sigmas_of wiring in
  let table = Table.create ~log2_capacity in
  let st_stack = Vec.create () in
  let meta_stack = Vec.create () in
  let entered meta = ((meta lsr 4) land 31) - 1 in
  let step_of pc = (pc lsr 2, pc land 3) in
  let transitions = ref 0 and terminals = ref 0 and max_depth = ref 0 in
  let depth = ref 0 in
  let stats () =
    {
      states = table.Table.count;
      transitions = !transitions;
      terminals = !terminals;
      max_depth = !max_depth;
    }
  in
  let outcome = ref None in
  let push state slot entered_pc =
    Table.insert_gray table state slot;
    let flagged = match witness with Some f -> f state | None -> false in
    if (flagged || not (invariant_ok inputs state)) && !outcome = None then begin
      (* the current DFS path, oldest step first, plus the entering step *)
      let rev = ref [] in
      Vec.iteri
        (fun _ meta ->
          let pc = entered meta in
          if pc >= 0 then rev := step_of pc :: !rev)
        meta_stack;
      let path =
        List.rev !rev @ (if entered_pc >= 0 then [ step_of entered_pc ] else [])
      in
      outcome := Some (Invariant_violation { state; path; stats = stats () })
    end;
    ignore (Vec.push st_stack state);
    ignore (Vec.push meta_stack ((slot lsl 9) lor ((entered_pc + 1) lsl 4)));
    incr depth;
    if !depth > !max_depth then max_depth := !depth
  in
  let s0 = initial_state inputs in
  push s0 (Table.find_slot table s0) (-1);
  let exhausted = n * 4 in
  let running = ref true in
  while !running && !outcome = None do
    let top = Vec.length st_stack - 1 in
    if top < 0 then running := false
    else begin
      let state = Vec.get st_stack top in
      let meta = Vec.get meta_stack top in
      let cursor = meta land 15 in
      if cursor >= exhausted then begin
        (* frame exhausted: terminal detection and blacken *)
        let all_halted =
          halted (get_local state 0)
          && halted (get_local state 1)
          && halted (get_local state 2)
        in
        if all_halted then incr terminals;
        Table.blacken table (meta lsr 9);
        Vec.truncate st_stack top;
        Vec.truncate meta_stack top;
        decr depth
      end
      else if cursor = 0 && (match prune with Some f -> f state | None -> false)
      then
        (* skip all successors of a pruned state *)
        Vec.set meta_stack top (meta lor exhausted)
      else begin
        let p = cursor lsr 2 and c = cursor land 3 in
        let k =
          if free then choices state p
          else if halted (get_local state p) then 0
          else 1
        in
        let next = if c + 1 < k then cursor + 1 else (p + 1) * 4 in
        Vec.set meta_stack top (meta land lnot 15 lor next);
        if c < k then begin
          incr transitions;
          let s' = step state p c sigmas.(p) in
          let slot = Table.find_slot table s' in
          match Table.color table slot with
          | 0 ->
              if Table.full table then begin
                outcome := Some (Table_full table.Table.count);
                running := false
              end
              else push s' slot cursor
          | 1 ->
              (* back edge: cycle; collect the pids on the loop *)
              let pids = ref [ p ] in
              let continue = ref true in
              let i = ref top in
              while !continue && !i >= 0 do
                if Vec.get st_stack !i = s' then continue := false
                else begin
                  let pc = entered (Vec.get meta_stack !i) in
                  if pc >= 0 then pids := (pc lsr 2) :: !pids;
                  decr i
                end
              done;
              outcome :=
                Some
                  (Cycle
                     {
                       processors = List.sort_uniq compare !pids;
                       stats = stats ();
                     })
          | _ -> ()
        end
      end
    end
  done;
  match !outcome with
  | Some r -> r
  | None -> Verified (stats ())

(** Claim 7a: exhaustively check the implementation (write choice 0) on
    one wiring for the snapshot invariant and wait-freedom.
    [log2_capacity] sizes the visited table (default 2^28 slots = 2 GiB,
    good for ~187M states). *)
let check ?(log2_capacity = default_log2_capacity) ~wiring ~inputs () =
  search ~free:false ~prune:None ~witness:None ~log2_capacity ~wiring ~inputs

(* -- claim 7b: the Section-8 non-atomicity witness --------------------------- *)

(** The set of inputs present in memory, as a bitmask. *)
let memory_mask s = r_view (get_reg s 0) lor r_view (get_reg s 1) lor r_view (get_reg s 2)

type nonatomic_witness = {
  wiring : Anonmem.Wiring.t;
  culprit : int;
  target_mask : int;  (** bit [i] = input [i+1] *)
  path : (int * int option) list;
      (** processor steps from the initial state, each with the private
          register it wrote ([None] for a read) *)
  states_explored : int;
}

type nonatomic_outcome =
  | Witness of nonatomic_witness
  | Refuted of stats list  (** one per wiring, in the order searched *)
  | Undecided of {
      wiring : Anonmem.Wiring.t;
      states : int;
      log2_capacity : int;
      refuted : stats list;
    }
      (** the visited table of [2^log2_capacity] slots filled up on
          [wiring] after [states] states; [refuted] covers the wirings
          searched before it *)

(* Replay a (processor, choice) path, naming the register each write
   picked. *)
let written_registers ~wiring ~inputs path =
  let sigmas = sigmas_of wiring in
  let s = ref (initial_state inputs) in
  List.map
    (fun (p, c) ->
      let l = get_local !s p in
      let wrote =
        if l_phase l = 0 then Some (write_target (l_written l) c) else None
      in
      s := step !s p c sigmas.(p);
      (p, wrote))
    path

(** Claim 7b for one candidate [target_mask], under the paper's
    nondeterministic write order, over [wirings]: explore only states
    whose memory content differs from the target (pruning on equality)
    and stop at any state where a terminated processor's snapshot equals
    the target.  A hit proves the Section-8 claim outright: along the
    whole witness execution the memory never contained exactly the
    returned set, and freezing the execution there keeps it that way
    forever.  A full visited table leaves the candidate [Undecided]; it is
    never read as a refutation. *)
let find_nonatomic ?(log2_capacity = default_log2_capacity) ~inputs
    ~target_mask ~wirings () =
  let prune s =
    memory_mask s = target_mask
    (* views only grow, so once no processor's view is contained in the
       target, no future output can equal it: cut the branch *)
    || not
         (List.exists
            (fun p ->
              let v = l_view (get_local s p) in
              v land target_mask = v)
            [ 0; 1; 2 ])
  in
  let witness s =
    memory_mask s <> target_mask
    && List.exists (fun (_, o) -> o = target_mask) (outputs s)
  in
  let rec go refuted = function
    | [] -> Refuted (List.rev refuted)
    | wiring :: rest -> (
        match
          search ~free:true ~prune:(Some prune) ~witness:(Some witness)
            ~log2_capacity ~wiring ~inputs
        with
        | Verified stats -> go (stats :: refuted) rest
        | Table_full states ->
            Undecided
              { wiring; states; log2_capacity; refuted = List.rev refuted }
        | Invariant_violation { state; path; stats } when witness state ->
            let culprit =
              fst (List.find (fun (_, o) -> o = target_mask) (outputs state))
            in
            Witness
              {
                wiring;
                culprit;
                target_mask;
                path = written_registers ~wiring ~inputs path;
                states_explored = stats.states;
              }
        | Invariant_violation _ ->
            failwith
              (Fmt.str
                 "Snapshot3.find_nonatomic: the snapshot invariant fails \
                  under the free write order on wiring %a"
                 Anonmem.Wiring.pp wiring)
        | Cycle _ ->
            failwith
              (Fmt.str
                 "Snapshot3.find_nonatomic: wait-freedom fails under the \
                  free write order on wiring %a"
                 Anonmem.Wiring.pp wiring))
  in
  go [] wirings
