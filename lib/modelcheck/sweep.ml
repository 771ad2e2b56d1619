(* The one wiring-sweep driver; see the interface for the contract. *)

type 'acc codec = {
  section : string;
  width : int;
  encode : 'acc -> int array;
  decode : int array -> 'acc;
}

type at = { resume : bool; ckpt_extra : (string * Bytes.t) list }

let corrupt codec fmt =
  Printf.ksprintf
    (fun m ->
      raise (Checkpoint.Corrupt_checkpoint (codec.section ^ " section: " ^ m)))
    fmt

let read_position codec ~wirings sections =
  let a = Checkpoint.ints_of_bytes (Checkpoint.find codec.section sections) in
  if Array.length a <> 1 + codec.width then
    corrupt codec "%d ints, expected %d" (Array.length a) (1 + codec.width);
  if Array.exists (fun x -> x < 0) a then corrupt codec "negative field";
  if a.(0) >= wirings then
    corrupt codec "index %d outside the %d-wiring sweep" a.(0) wirings;
  (a.(0), codec.decode (Array.sub a 1 codec.width))

let fold ?ckpt ?(resume = false) ?codec ~init wirings step =
  let wirings = Array.of_list wirings in
  let durable =
    match (ckpt, codec) with
    | Some p, Some c -> Some (p.Checkpoint.path, c)
    | _ -> None
  in
  let start, init =
    match durable with
    | Some (path, c) when resume && Sys.file_exists path ->
        let idx, acc =
          read_position c ~wirings:(Array.length wirings)
            (Checkpoint.load ~path)
        in
        (Some idx, acc)
    | _ -> (None, init)
  in
  let rec go index acc =
    if index >= Array.length wirings then Ok acc
    else
      let ckpt_extra =
        match durable with
        | Some (_, c) ->
            let pos = Array.append [| index |] (c.encode acc) in
            [ (c.section, Checkpoint.bytes_of_ints pos) ]
        | None -> []
      in
      let at = { resume = start = Some index; ckpt_extra } in
      match step at wirings.(index) acc with
      | Ok acc -> go (index + 1) acc
      | Error _ as e -> e
  in
  go (Option.value start ~default:0) init
