(* Just enough JSON emission for the benchmark's result and span files. *)

let str s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* Full precision; non-finite values have no JSON spelling. *)
let num f = if Float.is_finite f then Printf.sprintf "%.17g" f else "null"
let int = string_of_int
let bool = string_of_bool

let obj fields =
  "{"
  ^ String.concat ", " (List.map (fun (k, v) -> str k ^ ": " ^ v) fields)
  ^ "}"

let arr items = "[" ^ String.concat ", " items ^ "]"
