let string s =
  let b = Buffer.create (String.length s + 8) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let float f =
  if Float.is_nan f then "0.0"
  else if f = Float.infinity then "1e308"
  else if f = Float.neg_infinity then "-1e308"
  else Printf.sprintf "%.3f" f

type t =
  | Int of int
  | Num of float
  | Bool of bool
  | Str of string
  | Null
  | Raw of string
  | List of t list
  | Obj of (string * t) list

let number f =
  if not (Float.is_finite f) then float f
  else
    let s = Printf.sprintf "%.15g" f in
    if Float.equal (float_of_string s) f then s else Printf.sprintf "%.17g" f

let rec to_string = function
  | Int i -> string_of_int i
  | Num f -> number f
  | Bool b -> string_of_bool b
  | Str s -> string s
  | Null -> "null"
  | Raw s -> s
  | List l -> "[" ^ String.concat "," (List.map to_string l) ^ "]"
  | Obj kv ->
      "{"
      ^ String.concat "," (List.map (fun (k, v) -> string k ^ ":" ^ to_string v) kv)
      ^ "}"
