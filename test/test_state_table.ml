(* Oracle-differential suite for the arena-backed visited table.

   State_table is the visited set of every exploration engine; a bug in it
   silently corrupts model-checking verdicts rather than crashing, so the
   table is held against an executable specification: a stdlib
   [(string, int) Hashtbl] assigning dense ids in insertion order.  The
   QCheck properties drive both through the same random operation
   sequences — duplicate-heavy key streams, absent probes, widths from 1
   to 12 — starting from the smallest legal slot array so every run
   crosses several growth boundaries, and demand identical membership,
   identical dense ids, and exact [key_of_id]/[iter] round-trips.  On top
   of that, deterministic unit tests pin down the adversarial cases
   randomness is unlikely to hit: seeded same-bucket (and same-tag)
   collision chains built from the table's own slot-index and tag
   functions, duplicate interns across a resize, and the structured
   width/range errors.  The Packed_vec companion gets the same
   treatment against a plain [int array] model. *)

module St = Modelcheck.State_table
module Pv = Modelcheck.State_table.Packed_vec

let qcheck_count =
  match Sys.getenv_opt "QCHECK_COUNT" with
  | Some s -> int_of_string s
  | None -> 300

(* ------------------------------------------------------------------ *)
(* Generators                                                          *)
(* ------------------------------------------------------------------ *)

(* Keys over a 4-letter alphabet so random streams are duplicate-heavy:
   at width <= 3 the universe has at most 64 keys, forcing re-interns. *)
let gen_key w = QCheck.Gen.(string_size ~gen:(char_range 'a' 'd') (return w))

let gen_scenario =
  QCheck.Gen.(
    1 -- 12 >>= fun w ->
    list_size (0 -- 400) (gen_key w) >>= fun inserts ->
    list_size (0 -- 100) (gen_key w) >>= fun probes ->
    return (w, inserts, probes))

let scenario =
  QCheck.make
    ~print:(fun (w, inserts, probes) ->
      Printf.sprintf "width=%d inserts=[%s] probes=[%s]" w
        (String.concat ";" inserts)
        (String.concat ";" probes))
    gen_scenario

(* ------------------------------------------------------------------ *)
(* QCheck: differential against the Hashtbl oracle                     *)
(* ------------------------------------------------------------------ *)

let run_against_oracle (w, inserts, probes) =
  let t = St.create ~log2_slots:0 ~key_width:w () in
  let oracle : (string, int) Hashtbl.t = Hashtbl.create 16 in
  let order = ref [] in
  List.iter
    (fun k ->
      let expected =
        match Hashtbl.find_opt oracle k with
        | Some id -> id
        | None ->
            let id = Hashtbl.length oracle in
            Hashtbl.add oracle k id;
            order := k :: !order;
            id
      in
      let got = St.intern t k in
      if got <> expected then
        QCheck.Test.fail_reportf "intern %S: id %d, oracle %d" k got expected)
    inserts;
  (t, oracle, List.rev !order, probes)

let prop_membership_and_ids =
  QCheck.Test.make ~name:"same membership and dense ids as the oracle"
    ~count:qcheck_count scenario (fun sc ->
      let t, oracle, _, probes = run_against_oracle sc in
      St.length t = Hashtbl.length oracle
      && List.for_all
           (fun k ->
             St.find t k = Hashtbl.find_opt oracle k
             && St.mem t k = Hashtbl.mem oracle k)
           probes)

let prop_key_of_id_round_trip =
  QCheck.Test.make ~name:"key_of_id inverts every oracle id"
    ~count:qcheck_count scenario (fun sc ->
      let t, oracle, _, _ = run_against_oracle sc in
      Hashtbl.fold
        (fun k id acc -> acc && String.equal (St.key_of_id t id) k)
        oracle true)

let prop_iter_is_insertion_order =
  QCheck.Test.make ~name:"iter yields keys in insertion order"
    ~count:qcheck_count scenario (fun sc ->
      let t, _, order, _ = run_against_oracle sc in
      let seen = ref [] in
      St.iter (fun id k -> seen := (id, k) :: !seen) t;
      List.rev !seen = List.mapi (fun i k -> (i, k)) order)

let prop_load_factor =
  QCheck.Test.make ~name:"growth keeps load at or below 3/4"
    ~count:qcheck_count scenario (fun sc ->
      let t, _, _, _ = run_against_oracle sc in
      let cap = St.capacity t in
      cap land (cap - 1) = 0 && 4 * St.length t <= 3 * cap)

(* ------------------------------------------------------------------ *)
(* Deterministic adversarial cases                                     *)
(* ------------------------------------------------------------------ *)

(* Width-8 keys: the little-endian image of [i]. *)
let key_of_int i =
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 (Int64.of_int i);
  Bytes.to_string b

let home ~cap k = St.slot_index ~capacity:cap (St.hash k)

(* Enumerate distinct width-8 keys whose home slot is [bucket] of a
   [cap]-slot table — the worst case for linear probing. *)
let colliding_keys ~cap ~bucket count =
  let rec go i acc found =
    if found = count then List.rev acc
    else
      let k = key_of_int i in
      if home ~cap k = bucket then go (i + 1) (k :: acc) (found + 1)
      else go (i + 1) acc found
  in
  go 0 [] 0

let test_seeded_collisions () =
  let cap = 8 in
  let keys = colliding_keys ~cap ~bucket:3 40 in
  Alcotest.(check int) "40 colliding keys found" 40 (List.length keys);
  let t = St.create ~log2_slots:3 ~key_width:8 () in
  List.iteri
    (fun i k -> Alcotest.(check int) "dense id" i (St.intern t k))
    keys;
  List.iteri
    (fun i k ->
      Alcotest.(check (option int)) "find after collisions" (Some i) (St.find t k);
      Alcotest.(check string) "key_of_id after collisions" k (St.key_of_id t i))
    keys;
  (* A colliding key that was never inserted must still miss. *)
  let absent = List.nth (colliding_keys ~cap ~bucket:3 41) 40 in
  Alcotest.(check (option int)) "absent collider misses" None (St.find t absent)

let test_same_tag_collisions () =
  (* Force full slot-tag agreement: keys with equal 31-bit tags share
     their home slot at every capacity, so only the arena comparison can
     tell them apart.  A birthday search over the tags finds such twins
     after ~60k keys. *)
  let by_tag = Hashtbl.create 65536 in
  let rec search i acc =
    if List.length acc >= 4 then acc
    else
      let k = key_of_int i in
      let tg = St.tag (St.hash k) in
      match Hashtbl.find_opt by_tag tg with
      | Some twin -> search (i + 1) ((twin, k) :: acc)
      | None ->
          Hashtbl.add by_tag tg k;
          search (i + 1) acc
  in
  let twins = search 0 [] in
  Alcotest.(check int) "found same-tag twins" 4 (List.length twins);
  let t = St.create ~log2_slots:3 ~key_width:8 () in
  List.iter
    (fun (a, b) ->
      List.iter
        (fun cap ->
          Alcotest.(check int) "twins share the home slot" (home ~cap a)
            (home ~cap b))
        [ 8; 1 lsl 20; 1 lsl 31 ];
      let ia = St.intern t a and ib = St.intern t b in
      Alcotest.(check bool) "twins get distinct ids" true (ia <> ib);
      Alcotest.(check (option int)) "twin a found" (Some ia) (St.find t a);
      Alcotest.(check (option int)) "twin b found" (Some ib) (St.find t b))
    twins

let test_tag_bits_live () =
  (* Every one of the 31 tag bits must vary: the top 8 take all 256
     values and the low bit both values over a few thousand keys.  (A
     hash with a dead bit would halve the filter's power.) *)
  let top = Hashtbl.create 256 and low = Hashtbl.create 2 in
  for i = 0 to 9999 do
    let tg = St.tag (St.hash (key_of_int i)) in
    Alcotest.(check bool) "tag in [0, 2^31)" true (tg >= 0 && tg < 1 lsl 31);
    Hashtbl.replace top (tg lsr 23) ();
    Hashtbl.replace low (tg land 1) ()
  done;
  Alcotest.(check int) "top 8 tag bits all live" 256 (Hashtbl.length top);
  Alcotest.(check int) "lowest tag bit live" 2 (Hashtbl.length low)

let test_duplicate_inserts_across_growth () =
  let t = St.create ~log2_slots:0 ~key_width:4 () in
  let key i = Printf.sprintf "%04d" i in
  (* First pass interns 5000 keys (many resizes from the 8-slot floor);
     second pass must return the same ids without growing the count. *)
  for i = 0 to 4999 do
    Alcotest.(check int) "first intern" i (St.intern t (key i))
  done;
  for i = 0 to 4999 do
    Alcotest.(check int) "re-intern" i (St.intern t (key i))
  done;
  Alcotest.(check int) "length unchanged by duplicates" 5000 (St.length t);
  Alcotest.(check string) "round trip" (key 1234) (St.key_of_id t 1234)

let test_structured_errors () =
  let t = St.create ~key_width:3 () in
  ignore (St.intern t "abc");
  let wrong_width f = match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "width mismatch accepted"
  in
  wrong_width (fun () -> St.intern t "ab");
  wrong_width (fun () -> St.find t "abcd" |> Option.is_some);
  wrong_width (fun () -> St.mem t "");
  (match St.key_of_id t 1 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "out-of-range id accepted");
  (match St.key_of_id t (-1) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative id accepted");
  Alcotest.(check int) "table undamaged" 1 (St.length t);
  Alcotest.(check (option int)) "original key intact" (Some 0) (St.find t "abc")

let test_words_grows () =
  let t = St.create ~key_width:8 () in
  let w0 = St.words t in
  for i = 0 to 9999 do
    ignore (St.intern t (key_of_int i))
  done;
  Alcotest.(check bool) "words reflects arena growth" true (St.words t > w0)

(* ------------------------------------------------------------------ *)
(* Packed_vec vs int-array model                                       *)
(* ------------------------------------------------------------------ *)

let gen_pv_scenario =
  QCheck.Gen.(
    1 -- 7 >>= fun stride ->
    let bound = (1 lsl (8 * min stride 7)) - 1 in
    let bound = min bound max_int in
    list_size (0 -- 300) (0 -- bound) >>= fun pushes ->
    list_size (0 -- 50) (pair (0 -- 299) (0 -- bound)) >>= fun sets ->
    return (stride, pushes, sets))

let pv_scenario =
  QCheck.make
    ~print:(fun (stride, pushes, sets) ->
      Printf.sprintf "stride=%d pushes=%d sets=%d" stride (List.length pushes)
        (List.length sets))
    gen_pv_scenario

let prop_packed_vec_model =
  QCheck.Test.make ~name:"Packed_vec matches the int-array model"
    ~count:qcheck_count pv_scenario (fun (stride, pushes, sets) ->
      let v = Pv.create ~capacity:1 ~stride () in
      let model = Array.make (List.length pushes) 0 in
      List.iteri
        (fun i x ->
          model.(i) <- x;
          if Pv.push v x <> i then QCheck.Test.fail_report "push index")
        pushes;
      List.iter
        (fun (i, x) ->
          if i < Pv.length v then begin
            model.(i) <- x;
            Pv.set v i x
          end)
        sets;
      Pv.length v = Array.length model
      && Array.for_all Fun.id (Array.mapi (fun i x -> Pv.get v i = x) model))

let test_packed_vec_range_errors () =
  let v = Pv.create ~stride:2 () in
  ignore (Pv.push v 65535);
  (match Pv.push v 65536 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "overflow push accepted");
  (match Pv.push v (-1) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative push accepted");
  Alcotest.(check int) "length unchanged by rejected pushes" 1 (Pv.length v);
  Alcotest.(check int) "stored value intact" 65535 (Pv.get v 0);
  (match Pv.set v 0 70000 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "overflow set accepted");
  (match Pv.get v 1 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "out-of-range get accepted");
  (match Pv.create ~stride:0 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "stride 0 accepted");
  (match Pv.create ~stride:8 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "stride 8 accepted")

let test_packed_vec_five_byte_words () =
  (* The explorers pack (id lsl 4) lor pid into stride-5 words; check the
     extremes survive the byte round-trip. *)
  let v = Pv.create ~stride:5 () in
  let top = (1 lsl 40) - 1 in
  ignore (Pv.push v 0);
  ignore (Pv.push v top);
  ignore (Pv.push v ((123456789 lsl 4) lor 15));
  Alcotest.(check int) "zero" 0 (Pv.get v 0);
  Alcotest.(check int) "max 5-byte word" top (Pv.get v 1);
  Alcotest.(check int) "packed edge word" ((123456789 lsl 4) lor 15) (Pv.get v 2)

let () =
  Alcotest.run "state_table"
    [
      ( "oracle-differential",
        [
          QCheck_alcotest.to_alcotest prop_membership_and_ids;
          QCheck_alcotest.to_alcotest prop_key_of_id_round_trip;
          QCheck_alcotest.to_alcotest prop_iter_is_insertion_order;
          QCheck_alcotest.to_alcotest prop_load_factor;
        ] );
      ( "collisions",
        [
          Alcotest.test_case "seeded same-bucket chain" `Quick
            test_seeded_collisions;
          Alcotest.test_case "same-bucket same-tag twins" `Quick
            test_same_tag_collisions;
          Alcotest.test_case "every tag bit live" `Quick test_tag_bits_live;
          Alcotest.test_case "duplicate inserts across growth" `Quick
            test_duplicate_inserts_across_growth;
        ] );
      ( "errors",
        [
          Alcotest.test_case "structured width/id errors" `Quick
            test_structured_errors;
          Alcotest.test_case "words tracks growth" `Quick test_words_grows;
        ] );
      ( "packed-vec",
        [
          QCheck_alcotest.to_alcotest prop_packed_vec_model;
          Alcotest.test_case "range errors" `Quick test_packed_vec_range_errors;
          Alcotest.test_case "five-byte explorer words" `Quick
            test_packed_vec_five_byte_words;
        ] );
    ]
