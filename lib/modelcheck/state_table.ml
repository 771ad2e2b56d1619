(* Arena-backed open-addressing visited table.  See state_table.mli for
   the layout rationale; the short version:

     arena : Bytes.t     all interned keys, back to back; key [id] is the
                         [key_width] bytes at offset [id * key_width]
     slots : Bytes.t     capacity * 8 bytes, one little-endian slot word
                         per slot: [(tag lsl 32) lor (id + 1)], so that
                         all-zero = empty (which is what
                         [Bytes.make _ '\000'] gives us for free)

   [tag] is the upper 31 bits of the key's 63-bit hash, and a key's home
   slot is the top [log2 capacity] bits of that tag.  A tag mismatch
   rejects a colliding key without reading the arena, and growth re-places
   every slot word from the word alone.  A [Bytes] buffer holds no
   pointers, so the GC never scans the slots or the arena.

   Probing is linear (step 1).  With power-of-two capacities and load
   kept at or below 3/4, the expected number of arena comparisons per
   lookup stays within a few percent of one. *)

type t = {
  key_width : int;
  mutable arena : Bytes.t; (* count * key_width bytes in use *)
  mutable count : int;
  mutable slots : Bytes.t; (* 8 bytes per slot, (tag lsl 32) lor (id + 1) *)
  mutable log2 : int; (* capacity = 2^log2 *)
}

(* Keys are hashed eight bytes at a time: multiply-xor over the 64-bit
   little-endian words (the top bit of each word, which [Int64.to_int]
   drops, is folded in separately), the tail bytes as one more word, and
   a final avalanche so the top bits — which pick the home slot — depend
   on every key byte.  All arithmetic is in OCaml's 63-bit ints, so every
   result bit is live. *)
let k1 = 0x2545F4914F6CDD1D
let k2 = 0x1CE4E5B9BF58476D

let hash_sub b off w =
  let h = ref (w * k2) in
  let i = ref 0 in
  while !i + 8 <= w do
    let v = Bytes.get_int64_le b (off + !i) in
    h :=
      ((!h lxor Int64.to_int v) * k1)
      + Int64.to_int (Int64.shift_right_logical v 63);
    i := !i + 8
  done;
  if !i < w then begin
    let x = ref 0 in
    for j = w - 1 downto !i do
      x := (!x lsl 8) lor Char.code (Bytes.get b (off + j))
    done;
    h := (!h lxor !x) * k1
  end;
  let h = !h in
  let h = (h lxor (h lsr 31)) * k2 in
  h lxor (h lsr 29)

let hash key = hash_sub (Bytes.unsafe_of_string key) 0 (String.length key)

(* Tags are 31 bits, so capacities stop at 2^31 slots, and the 3/4 load
   bound caps the key count at [max_count], well below the 2^32 - 1 ids
   a slot word holds. *)
let tag_bits = 31
let max_count = 3 lsl (tag_bits - 2)
let tag h = h lsr 32

let slot_index ~capacity h =
  if capacity < 1 || capacity > 1 lsl tag_bits then
    invalid_arg "State_table.slot_index: capacity outside [1..2^31]";
  let rec log2 k = if 1 lsl k >= capacity then k else log2 (k + 1) in
  tag h lsr (tag_bits - log2 0)

let create ?(log2_slots = 12) ~key_width () =
  if key_width < 0 then invalid_arg "State_table.create: negative key_width";
  let log2 = min tag_bits (max 3 log2_slots) in
  {
    key_width;
    arena = Bytes.create (max 64 (64 * key_width));
    count = 0;
    slots = Bytes.make (8 lsl log2) '\000';
    log2;
  }

let key_width t = t.key_width
let length t = t.count
let capacity t = 1 lsl t.log2

let slot_get slots i = Int64.to_int (Bytes.get_int64_le slots (8 * i))
let slot_set slots i w = Bytes.set_int64_le slots (8 * i) (Int64.of_int w)

(* Keys are compared against the arena without materializing a string,
   eight bytes at a time: bytes [i..w) of [b] against the arena from
   [off + i].  The loops are top-level functions, not closures, so the
   hot path allocates nothing. *)
let rec equal_from a off b w i =
  if i + 8 <= w then
    Int64.equal (Bytes.get_int64_le a (off + i)) (Bytes.get_int64_le b i)
    && equal_from a off b w (i + 8)
  else
    i = w
    || Char.equal (Bytes.unsafe_get a (off + i)) (Bytes.unsafe_get b i)
       && equal_from a off b w (i + 1)

(* Walk the probe sequence from slot [i] for the key in [b] with tag
   [tg].  Returns the id if present, [lnot slot_index] of the first empty
   slot if absent — an int encoding rather than a variant so the hot path
   stays allocation-free. *)
let rec probe_from t b tg mask i =
  let s = slot_get t.slots i in
  if s = 0 then lnot i
  else
    let id = (s land 0xFFFF_FFFF) - 1 in
    if s lsr 32 = tg && equal_from t.arena (id * t.key_width) b t.key_width 0
    then id
    else probe_from t b tg mask ((i + 1) land mask)

let probe t b h =
  let tg = tag h in
  probe_from t b tg ((1 lsl t.log2) - 1) (tg lsr (tag_bits - t.log2))

let check_width t b name =
  if Bytes.length b <> t.key_width then
    invalid_arg
      (Printf.sprintf "State_table.%s: key of width %d, table of width %d" name
         (Bytes.length b) t.key_width)

let check_id t id name =
  if id < 0 || id >= t.count then
    invalid_arg
      (Printf.sprintf "State_table.%s: id %d outside [0..%d]" name id
         (t.count - 1))

let key_of_id t id =
  check_id t id "key_of_id";
  Bytes.sub_string t.arena (id * t.key_width) t.key_width

let blit_key t id dst =
  check_id t id "blit_key";
  Bytes.blit t.arena (id * t.key_width) dst 0 t.key_width

let iter f t =
  for id = 0 to t.count - 1 do
    f id (Bytes.sub_string t.arena (id * t.key_width) t.key_width)
  done

(* Place a slot word at the first free slot of its probe sequence. *)
let rec free_from slots mask i =
  if slot_get slots i = 0 then i else free_from slots mask ((i + 1) land mask)

let place slots log2 w =
  let home = (w lsr 32) lsr (tag_bits - log2) in
  slot_set slots (free_from slots ((1 lsl log2) - 1) home) w

(* Double the slot array, re-placing each slot word from its own tag bits:
   the arena is neither read nor re-hashed.  Insertion order (hence every
   dense id) is untouched. *)
let grow_slots t =
  let old = t.slots and cap = 1 lsl t.log2 in
  t.log2 <- t.log2 + 1;
  t.slots <- Bytes.make (8 lsl t.log2) '\000';
  for i = 0 to cap - 1 do
    let w = slot_get old i in
    if w <> 0 then place t.slots t.log2 w
  done

let ensure_arena t =
  let need = (t.count + 1) * t.key_width in
  if need > Bytes.length t.arena then begin
    let cap = max need (Bytes.length t.arena + (Bytes.length t.arena / 2)) in
    let arena = Bytes.create cap in
    Bytes.blit t.arena 0 arena 0 (t.count * t.key_width);
    t.arena <- arena
  end

let intern_bytes t b =
  check_width t b "intern";
  let h = hash_sub b 0 t.key_width in
  let r = probe t b h in
  if r >= 0 then r
  else begin
    if t.count >= max_count then
      invalid_arg "State_table.intern: table full (3 * 2^29 keys)";
    let id = t.count in
    ensure_arena t;
    Bytes.blit b 0 t.arena (id * t.key_width) t.key_width;
    t.count <- id + 1;
    slot_set t.slots (lnot r) ((tag h lsl 32) lor (id + 1));
    (* Grow at 3/4 load, after insertion so the slot was still valid. *)
    if 4 * t.count >= 3 lsl t.log2 && t.log2 < tag_bits then grow_slots t;
    id
  end

let intern t key = intern_bytes t (Bytes.unsafe_of_string key)

let find_bytes t b =
  check_width t b "find";
  let r = probe t b (hash_sub b 0 t.key_width) in
  if r >= 0 then Some r else None

let find t key = find_bytes t (Bytes.unsafe_of_string key)
let mem t key = find t key <> None

let words t =
  (* Bytes payloads round up to whole words, plus a 1-word header each;
     the record itself is 5 fields + header. *)
  let bytes_words b = 2 + (Bytes.length b / (Sys.word_size / 8)) in
  6 + bytes_words t.arena + bytes_words t.slots

(* --- checkpoint (de)serialization -------------------------------------
   The arena is the whole truth: dense ids are insertion order, and the
   slot words are a pure function of the interned keys.  So the image is
   a small header plus a blit of the used arena prefix, and
   [deserialize] re-hashes the arena once to rebuild the slots —
   membership, ids, [key_of_id] and iteration order all come back
   bit-identical. *)

let st_magic = "STBL0001"

let corrupt fmt =
  Printf.ksprintf (fun s -> raise (Checkpoint.Corrupt_checkpoint s)) fmt

let serialize t =
  let used = t.count * t.key_width in
  let b = Bytes.create (8 + 8 + 8 + 8 + used) in
  Bytes.blit_string st_magic 0 b 0 8;
  Bytes.set_int64_le b 8 (Int64.of_int t.key_width);
  Bytes.set_int64_le b 16 (Int64.of_int t.count);
  Bytes.blit t.arena 0 b 32 used;
  Bytes.set_int64_le b 24 (Int64.of_int (Checkpoint.checksum b 32 used));
  b

let deserialize b =
  if Bytes.length b < 32 then
    corrupt "State_table image truncated at header (%d bytes)" (Bytes.length b);
  if Bytes.sub_string b 0 8 <> st_magic then
    corrupt "State_table image has bad magic";
  let key_width = Int64.to_int (Bytes.get_int64_le b 8) in
  let count = Int64.to_int (Bytes.get_int64_le b 16) in
  let crc = Int64.to_int (Bytes.get_int64_le b 24) in
  if key_width < 0 || count < 0 || count > max_count then
    corrupt "State_table image has implausible header (width %d, count %d)"
      key_width count;
  let used = count * key_width in
  if Bytes.length b <> 32 + used then
    corrupt "State_table image length %d, expected %d (width %d, count %d)"
      (Bytes.length b) (32 + used) key_width count;
  if Checkpoint.checksum b 32 used <> crc then
    corrupt "State_table arena checksum mismatch";
  (* Slot capacity: smallest power of two keeping load under 3/4. *)
  let log2 = ref 3 in
  while 4 * count >= 3 * (1 lsl !log2) && !log2 < tag_bits do incr log2 done;
  let t = create ~log2_slots:!log2 ~key_width () in
  t.arena <- Bytes.create (max 64 (max used (64 * key_width)));
  Bytes.blit b 32 t.arena 0 used;
  t.count <- count;
  for id = 0 to count - 1 do
    let h = hash_sub t.arena (id * key_width) key_width in
    place t.slots t.log2 ((tag h lsl 32) lor (id + 1))
  done;
  t

module Packed_vec = struct
  type t = {
    stride : int;
    limit : int; (* exclusive upper bound on element values *)
    mutable buf : Bytes.t;
    mutable len : int; (* in elements *)
  }

  let create ?(capacity = 64) ~stride () =
    if stride < 1 || stride > 7 then
      invalid_arg "Packed_vec.create: stride outside [1..7]";
    {
      stride;
      limit = 1 lsl (8 * stride);
      buf = Bytes.create (max 1 capacity * stride);
      len = 0;
    }

  let stride t = t.stride
  let length t = t.len

  let get t i =
    if i < 0 || i >= t.len then
      invalid_arg
        (Printf.sprintf "Packed_vec.get: index %d outside [0..%d]" i (t.len - 1));
    let off = i * t.stride in
    let v = ref 0 in
    for k = t.stride - 1 downto 0 do
      v := (!v lsl 8) lor Char.code (Bytes.unsafe_get t.buf (off + k))
    done;
    !v

  let put t i x =
    let off = i * t.stride in
    let v = ref x in
    for k = 0 to t.stride - 1 do
      Bytes.unsafe_set t.buf (off + k) (Char.unsafe_chr (!v land 0xff));
      v := !v lsr 8
    done

  let check_range t x name =
    if x < 0 || x >= t.limit then
      invalid_arg
        (Printf.sprintf "Packed_vec.%s: value %d does not fit %d byte(s)" name x
           t.stride)

  let set t i x =
    if i < 0 || i >= t.len then
      invalid_arg
        (Printf.sprintf "Packed_vec.set: index %d outside [0..%d]" i (t.len - 1));
    check_range t x "set";
    put t i x

  let push t x =
    check_range t x "push";
    let need = (t.len + 1) * t.stride in
    if need > Bytes.length t.buf then begin
      let cap = max need (Bytes.length t.buf + (Bytes.length t.buf / 2)) in
      let buf = Bytes.create cap in
      Bytes.blit t.buf 0 buf 0 (t.len * t.stride);
      t.buf <- buf
    end;
    let i = t.len in
    t.len <- i + 1;
    put t i x;
    i

  let words t = 6 + (Bytes.length t.buf / (Sys.word_size / 8))

  let pv_magic = "PVEC0001"

  let serialize t =
    let used = t.len * t.stride in
    let b = Bytes.create (8 + 8 + 8 + 8 + used) in
    Bytes.blit_string pv_magic 0 b 0 8;
    Bytes.set_int64_le b 8 (Int64.of_int t.stride);
    Bytes.set_int64_le b 16 (Int64.of_int t.len);
    Bytes.blit t.buf 0 b 32 used;
    Bytes.set_int64_le b 24 (Int64.of_int (Checkpoint.checksum b 32 used));
    b

  let deserialize b =
    if Bytes.length b < 32 then
      corrupt "Packed_vec image truncated at header (%d bytes)"
        (Bytes.length b);
    if Bytes.sub_string b 0 8 <> pv_magic then
      corrupt "Packed_vec image has bad magic";
    let stride = Int64.to_int (Bytes.get_int64_le b 8) in
    let len = Int64.to_int (Bytes.get_int64_le b 16) in
    let crc = Int64.to_int (Bytes.get_int64_le b 24) in
    if stride < 1 || stride > 7 || len < 0 then
      corrupt "Packed_vec image has implausible header (stride %d, len %d)"
        stride len;
    let used = len * stride in
    if Bytes.length b <> 32 + used then
      corrupt "Packed_vec image length %d, expected %d (stride %d, len %d)"
        (Bytes.length b) (32 + used) stride len;
    if Checkpoint.checksum b 32 used <> crc then
      corrupt "Packed_vec buffer checksum mismatch";
    let t = create ~capacity:(max 1 len) ~stride () in
    Bytes.blit b 32 t.buf 0 used;
    t.len <- len;
    t
end
