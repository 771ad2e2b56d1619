(** Symmetry canonicalization of encoded states under full anonymity.

    Full anonymity is a symmetry theorem in disguise: all processors run
    the same program, so two processors with the same input are
    behaviourally identical, and the registers have no global names, so
    relabelling physical registers is invisible to every program.  For a
    {e fixed} wiring, however, not every relabelling is sound — a
    processor permutation [pi] changes which hidden permutation each local
    state is interpreted through, so it must be compensated by the unique
    register permutation [rho = sigma_{pi 0} ∘ sigma_0⁻¹], and only when
    the same [rho] reconciles {e every} processor is the pair an
    automorphism of the transition system ({!Anonmem.Wiring.automorphisms}
    computes exactly this subgroup; its documentation carries the proof
    sketch).  This is why the naive "sort local-state slices within each
    input class and sort register slices" recipe is {e unsound}: it
    quotients by permutations outside the group and silently merges
    genuinely distinct states.  We instead canonicalize by {b orbit
    minimum}: apply every group element to the encoded key and keep the
    lexicographically least image.  The group has at most [n!] elements
    ([n <= 4] in any feasible exploration), so the scan is cheap, and
    orbit-minimum is trivially idempotent and constant on orbits.

    Canonicalization operates directly on the byte-string state encodings
    of {!Explorer.CHECKABLE} protocols: permuting processors permutes the
    fixed-width local slices, permuting registers permutes the value
    slices, and local states carry over {e verbatim} — private register
    indices inside a local state (scan cursors, write cursors) need no
    relabelling because they are reinterpreted through the moved wiring
    permutation.  See DESIGN.md §"Symmetry reduction" for the soundness
    argument and for why named processors would break it. *)

open Repro_util

type sym = { pi : int array; rho : int array }
(** One automorphism, as raw image arrays: processor [p]'s slice moves to
    slot [pi.(p)], register [r]'s slice to slot [rho.(r)]. *)

type image = {
  src : int array;
      (** byte [i] of the image of a key is byte [src.(i)] of the key, over
          the [n*lw + m*vw] state image *)
  pi_of : int array;  (** the processor permutation, for crash masks *)
}
(** One nontrivial automorphism, precompiled for {!canonicalize_into}. *)

type t = {
  n : int;
  m : int;
  lw : int;  (** local slice width, bytes *)
  vw : int;  (** register slice width, bytes *)
  nontrivial : sym list;  (** group minus the identity *)
  group : sym list;  (** the full group, identity first *)
  images : image array;  (** [nontrivial], precompiled *)
}

(** Interchangeability classes of an input assignment: same class iff
    (structurally) equal input.  Class ids are first-occurrence indices. *)
let classes_of_inputs inputs =
  let n = Array.length inputs in
  Array.init n (fun p ->
      let rec first q = if inputs.(q) = inputs.(p) then q else first (q + 1) in
      first 0)

let of_permutation p = Array.init (Permutation.size p) (Permutation.apply p)

let make ~local_width ~value_width ~wiring ~classes =
  let n = Anonmem.Wiring.processors wiring in
  let m = Anonmem.Wiring.registers wiring in
  let group =
    Anonmem.Wiring.automorphisms wiring ~classes
    |> List.map (fun (pi, rho) ->
           { pi = of_permutation pi; rho = of_permutation rho })
  in
  let is_identity s =
    Array.for_all2 ( = ) s.pi (Array.init n Fun.id)
    && Array.for_all2 ( = ) s.rho (Array.init m Fun.id)
  in
  let identity, nontrivial = List.partition is_identity group in
  let lw = local_width and vw = value_width in
  let compile s =
    let src = Array.make ((n * lw) + (m * vw)) 0 in
    for p = 0 to n - 1 do
      for j = 0 to lw - 1 do
        src.((s.pi.(p) * lw) + j) <- (p * lw) + j
      done
    done;
    for r = 0 to m - 1 do
      for j = 0 to vw - 1 do
        src.((n * lw) + (s.rho.(r) * vw) + j) <- (n * lw) + (r * vw) + j
      done
    done;
    { src; pi_of = s.pi }
  in
  {
    n;
    m;
    lw;
    vw;
    nontrivial;
    group = identity @ nontrivial;
    images = Array.of_list (List.map compile nontrivial);
  }

let is_trivial t = t.nontrivial = []
let group t = t.group
let group_order t = List.length t.group
let pid_image s p = s.pi.(p)

(* Apply one automorphism to an encoded key.  [extra] bytes past the
   [n*lw + m*vw] state image (e.g. a crash mask) are copied verbatim;
   {!apply_masked} permutes them instead. *)
let apply_raw t s key =
  let body = (t.n * t.lw) + (t.m * t.vw) in
  if String.length key < body then
    invalid_arg "Canon.apply: key shorter than the state image";
  let out = Bytes.of_string key in
  for p = 0 to t.n - 1 do
    Bytes.blit_string key (p * t.lw) out (s.pi.(p) * t.lw) t.lw
  done;
  let roff = t.n * t.lw in
  for r = 0 to t.m - 1 do
    Bytes.blit_string key
      (roff + (r * t.vw))
      out
      (roff + (s.rho.(r) * t.vw))
      t.vw
  done;
  out

let apply t s key = Bytes.unsafe_to_string (apply_raw t s key)

(** [apply_masked] additionally treats the {e last} byte of the key as a
    processor bitmask (the crash set of {!Fault_explorer}) and permutes
    its bits by [pi]: crashed processors move with their local slices. *)
let apply_masked t s key =
  let out = apply_raw t s key in
  let last = String.length key - 1 in
  let mask = Char.code key.[last] in
  let mask' = ref 0 in
  for p = 0 to t.n - 1 do
    if mask land (1 lsl p) <> 0 then mask' := !mask' lor (1 lsl s.pi.(p))
  done;
  Bytes.set out last (Char.chr !mask');
  Bytes.unsafe_to_string out

let minimize t per_sym key =
  List.fold_left
    (fun best s ->
      let img = per_sym t s key in
      if String.compare img best < 0 then img else best)
    key t.nontrivial

(** Orbit minimum of [key] under the group — the canonical representative.
    Idempotent, and constant on orbits (two keys canonicalize equally iff
    some group element maps one to the other). *)
let canonicalize t key =
  if t.nontrivial = [] then key else minimize t apply key

(** Orbit minimum for fault-explorer keys carrying a trailing crash-mask
    byte. *)
let canonicalize_masked t key =
  if t.nontrivial = [] then key else minimize t apply_masked key

(* The crash mask's bits move with their processors, as in
   [apply_masked]. *)
let rec mask_image pi mask p acc =
  if p >= Array.length pi then acc
  else
    mask_image pi mask (p + 1)
      (if mask land (1 lsl p) <> 0 then acc lor (1 lsl pi.(p)) else acc)

(* Byte [i] of the image of [key] under [im]; [i = body] is the crash
   mask, which exists only for masked keys. *)
let image_byte im key body i =
  if i < body then Char.code (Bytes.unsafe_get key im.src.(i))
  else mask_image im.pi_of (Char.code (Bytes.get key body)) 0 0

let rec write_image im key body w dst i =
  if i < w then begin
    Bytes.unsafe_set dst i (Char.unsafe_chr (image_byte im key body i));
    write_image im key body w dst (i + 1)
  end

(* Replace [dst] by the image of [key] if the image is smaller: compare
   lazily from the first byte and write only from the first difference
   on. *)
let rec improve im key body w dst i =
  if i < w then begin
    let c = image_byte im key body i
    and d = Char.code (Bytes.unsafe_get dst i) in
    if c < d then write_image im key body w dst i
    else if c = d then improve im key body w dst (i + 1)
  end

(** [canonicalize_into t key dst] writes the orbit minimum of [key] into
    [dst] — {!canonicalize} (or, with [~masked:true], {!canonicalize_masked})
    on caller-owned buffers, with no image materialized per group element:
    each image is compared against the running minimum byte by byte
    straight from [key], and written only when it is smaller.  [key] is
    exactly the [n*lw + m*vw] state image, plus the crash-mask byte when
    masked; [dst] is at least that long and distinct from [key]. *)
let canonicalize_into ?(masked = false) t key dst =
  let body = (t.n * t.lw) + (t.m * t.vw) in
  let w = if masked then body + 1 else body in
  if Bytes.length key <> w || Bytes.length dst < w then
    invalid_arg "Canon.canonicalize_into: buffer width";
  Bytes.blit key 0 dst 0 w;
  for g = 0 to Array.length t.images - 1 do
    improve t.images.(g) key body w dst 0
  done
