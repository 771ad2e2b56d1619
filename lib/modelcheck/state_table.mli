(** Arena-backed visited-state tables for the explicit-state explorers.

    Every exact engine in this library ({!Explorer}'s BFS and DFS passes,
    {!Fault_explorer}) needs the same data
    structure: a set of fixed-width byte keys with a dense integer id per
    key (id = insertion order), O(1) membership, and the ability to read a
    key back from its id (for expanding popped states and for concretizing
    counterexample traces).  The previous representation — a stdlib
    [(string, int) Hashtbl] plus a parallel [string Vec.t] — pays, per
    state, a boxed string (header + padding), a hash-bucket cons cell and
    two pointer slots; at the paper's 3-processor scale (~2M states per
    wiring) that is ~77 bytes per 21-byte key.

    {b Layout.}  {!t} stores the keys themselves back to back in a single
    growable [Bytes] arena (key [id] lives at offset [id * key_width]) and
    resolves membership through an open-addressing array of 8-byte slot
    words, also a [Bytes] (so the GC never scans either).  A slot word is
    [(tag lsl 32) lor (id + 1)], 0 meaning empty, where the {!tag} is the
    upper 31 bits of the key's 63-bit {!hash}.  The home slot of a key in
    a table of [2^k] slots is the top [k] bits of its tag
    ({!slot_index}); probing is linear.  A probe compares tags first, so
    it almost never touches the arena for keys that do not match.

    {b Growth.}  Slot counts are powers of two, doubled at 3/4 load.
    Because the home slot is a prefix of the stored tag, doubling
    re-places every slot word from the word alone: the arena is neither
    read nor re-hashed.  Only {!deserialize} hashes the arena, once.

    {b Cost.}  [key_width] arena bytes (plus the arena's 3/2 growth slack)
    and 8 / load bytes of slots — between 10.7 and 21.3 bytes at the
    3/8..3/4 load range — per state.  Capacity stops at 2^31 slots, so a
    table holds at most [3 * 2^29] keys.

    Keys are hashed eight bytes at a time.  {!intern_bytes},
    {!find_bytes} and {!blit_key} work on caller-owned buffers, so the
    explorers' hot path interns a successor image without building a
    string.

    The table is deliberately minimal: no deletion, no satellite values
    (the dense id {e is} the value), single-writer: a table belongs to
    one domain and is never shared. *)

type t

val create : ?log2_slots:int -> key_width:int -> unit -> t
(** [create ~key_width ()] is an empty table for keys of exactly
    [key_width] bytes.  [log2_slots] (default 12) sizes the initial slot
    array; it only matters as a pre-sizing hint, the table grows as
    needed.  Raises [Invalid_argument] if [key_width < 0]. *)

val key_width : t -> int
val length : t -> int
(** Number of distinct keys interned so far.  Dense ids are exactly
    [0 .. length - 1]. *)

val capacity : t -> int
(** Current slot count (a power of two) — exposed for the load-factor
    assertions of the oracle-differential test suite. *)

val intern : t -> string -> int
(** [intern t key] returns the dense id of [key], inserting it with id
    [length t] if absent.  The caller can detect insertion by comparing
    {!length} before and after (or the returned id against the prior
    length).  Raises [Invalid_argument] if [String.length key] differs
    from [key_width t]. *)

val intern_bytes : t -> Bytes.t -> int
(** [intern_bytes t b] is [intern t (Bytes.to_string b)] without the
    copy: a fresh key's bytes are blitted into the arena, so the caller
    may reuse [b] at once.  [Bytes.length b] must equal [key_width t]. *)

val find : t -> string -> int option
(** [find t key] is the dense id of [key], or [None]; never inserts.
    Raises [Invalid_argument] on a key-width mismatch. *)

val find_bytes : t -> Bytes.t -> int option
(** [find] on a caller-owned buffer of exactly [key_width t] bytes. *)

val mem : t -> string -> bool

val key_of_id : t -> int -> string
(** [key_of_id t id] is a fresh copy of the key with dense id [id] — the
    inverse of the id assignment, used to decode popped states and to
    rebuild counterexample traces.  Raises [Invalid_argument] if [id] is
    not in [0 .. length t - 1]. *)

val blit_key : t -> int -> Bytes.t -> unit
(** [blit_key t id dst] copies the key with dense id [id] into the first
    [key_width t] bytes of [dst] — {!key_of_id} without the allocation,
    for the explorers' per-pop read of the parent key.  Raises
    [Invalid_argument] on an id outside [0 .. length t - 1]. *)

val iter : (int -> string -> unit) -> t -> unit
(** [iter f t] applies [f id key] to every interned key in id
    (= insertion) order. *)

val words : t -> int
(** Approximate retained size of the table in machine words (arena + slot
    array + record), for the benchmark's memory column. *)

val hash : string -> int
(** The table's own key hash: word-at-a-time multiply-xor with a final
    avalanche, all 63 bits of the OCaml int live (it may be negative). *)

val tag : int -> int
(** [tag h] is the part of hash [h] a slot word stores: its upper 31
    bits, in [0 .. 2^31 - 1].  Two keys with different tags are told
    apart without reading the arena. *)

val slot_index : capacity:int -> int -> int
(** [slot_index ~capacity h] is the home slot of hash [h] in a table of
    [capacity] slots (a power of two, at most 2^31): the top
    [log2 capacity] bits of [tag h].  Exposed, with {!hash} and {!tag},
    so tests can seed same-bucket and same-tag collisions. *)

val serialize : t -> Bytes.t
(** Checkpoint image of the table: a checksummed header plus a blit of
    the used arena prefix.  The slot words are a pure function of the
    interned keys, so they are rebuilt on load rather than stored. *)

val deserialize : Bytes.t -> t
(** Inverse of {!serialize} — membership, dense ids, {!key_of_id} and
    iteration order are all restored exactly.  Raises
    [Checkpoint.Corrupt_checkpoint] on truncation, bad framing or a
    checksum mismatch. *)

(** Growable vectors of fixed-stride little-endian unsigned integers,
    packed in one [Bytes] buffer — 1 to 7 bytes per element instead of a
    boxed-array word.  The explorers use stride 5 for packed parent links
    and edge words (ids up to 2^35) and stride 1 for DFS colors and
    per-state out-degrees. *)
module Packed_vec : sig
  type t

  val create : ?capacity:int -> stride:int -> unit -> t
  (** [create ~stride ()] is an empty vector of [stride]-byte elements
      ([1 <= stride <= 7]); elements must lie in [0 .. 2^(8*stride) - 1].
      [capacity] pre-sizes in elements. *)

  val stride : t -> int
  val length : t -> int

  val push : t -> int -> int
  (** Appends and returns the index of the new element.  Raises
      [Invalid_argument] if the value does not fit the stride — the
      structured overflow error that replaces silent truncation. *)

  val get : t -> int -> int
  val set : t -> int -> int -> unit
  val words : t -> int
  (** Approximate retained size in machine words. *)

  val serialize : t -> Bytes.t
  val deserialize : Bytes.t -> t
  (** Checksummed image of the packed buffer; raises
      [Checkpoint.Corrupt_checkpoint] on any integrity failure. *)
end
