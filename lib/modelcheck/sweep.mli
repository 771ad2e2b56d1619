(** The one wiring-sweep driver.

    Every verdict that quantifies over wirings — the paper's claim 7a,
    each cell of the feasibility map, the crash-stop and consensus
    sweeps — is a fold of a per-wiring check over a wiring list.  This
    module owns the fold and every decision around it:

    - stop at the first per-wiring error, threading the accumulator;
    - hand each wiring its checkpoint position ([ckpt_extra]: the wiring
      index followed by the accumulator as ints, in one named section);
    - on resume, load that section, validate it, fast-forward to the
      stored wiring and tell only that wiring to resume.

    A resume position that cannot be trusted — section missing, wrong
    length, index outside the wiring list, any negative field — raises
    {!Checkpoint.Corrupt_checkpoint}; the sweep never silently restarts
    from wiring 0.  A missing checkpoint {e file} is not an error: the
    sweep runs fresh, so drivers may pass [~resume:true] unconditionally. *)

type 'acc codec = {
  section : string;  (** checkpoint section name, e.g. ["sweep"] *)
  width : int;  (** ints the accumulator occupies after the index *)
  encode : 'acc -> int array;  (** exactly [width] nonnegative ints *)
  decode : int array -> 'acc;  (** inverse of [encode] *)
}
(** How a checkpointing sweep stores its accumulator.  The section
    payload is [index :: encode acc] as 8-byte little-endian ints
    ({!Checkpoint.bytes_of_ints}). *)

type at = {
  resume : bool;
      (** this wiring is the one the checkpoint stopped in: the engine
          should restart it from its own sections *)
  ckpt_extra : (string * Bytes.t) list;
      (** the sweep section to write alongside the engine's own
          sections (empty when the sweep does not checkpoint) *)
}
(** What the driver tells one per-wiring step. *)

val fold :
  ?ckpt:Checkpoint.policy ->
  ?resume:bool ->
  ?codec:'acc codec ->
  init:'acc ->
  Anonmem.Wiring.t list ->
  (at -> Anonmem.Wiring.t -> 'acc -> ('acc, 'e) result) ->
  ('acc, 'e) result
(** [fold ?ckpt ?resume ?codec ~init wirings step] runs [step] on each
    wiring in order, threading the accumulator from [init], and returns
    the first [Error] or the final accumulator.  The sweep checkpoints
    only when both [ckpt] and [codec] are given; [resume] (default
    [false]) then restarts from [ckpt.path] if that file exists. *)
