(* Minimal JSON: enough of an emitter to produce Chrome trace_event files
   and JSON-lines metrics, and enough of a parser to validate them in
   tests and consume flow reports in CI.  No external dependency. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

(* --- emission --- *)

let add_escaped buf s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s

let rec emit buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f ->
      (* JSON has no NaN/infinity literals *)
      if Float.is_finite f then Buffer.add_string buf (Printf.sprintf "%.12g" f)
      else Buffer.add_string buf "null"
  | Str s ->
      Buffer.add_char buf '"';
      add_escaped buf s;
      Buffer.add_char buf '"'
  | List items ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_char buf ',';
          emit buf item)
        items;
      Buffer.add_char buf ']'
  | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          Buffer.add_char buf '"';
          add_escaped buf k;
          Buffer.add_string buf "\":";
          emit buf v)
        fields;
      Buffer.add_char buf '}'

let to_string j =
  let buf = Buffer.create 256 in
  emit buf j;
  Buffer.contents buf

(* --- parsing --- *)

exception Parse_error of string

let parse_exn s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while
      !pos < n
      && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      advance ()
    done
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected %c" c)
  in
  let literal word value =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      value
    end
    else fail ("expected " ^ word)
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string"
      else
        match s.[!pos] with
        | '"' -> advance ()
        | '\\' ->
            advance ();
            (if !pos >= n then fail "unterminated escape"
             else
               match s.[!pos] with
               | '"' -> Buffer.add_char buf '"'; advance ()
               | '\\' -> Buffer.add_char buf '\\'; advance ()
               | '/' -> Buffer.add_char buf '/'; advance ()
               | 'b' -> Buffer.add_char buf '\b'; advance ()
               | 'f' -> Buffer.add_char buf '\012'; advance ()
               | 'n' -> Buffer.add_char buf '\n'; advance ()
               | 'r' -> Buffer.add_char buf '\r'; advance ()
               | 't' -> Buffer.add_char buf '\t'; advance ()
               | 'u' ->
                   if !pos + 4 >= n then fail "short \\u escape";
                   let hex = String.sub s (!pos + 1) 4 in
                   let code =
                     try int_of_string ("0x" ^ hex)
                     with _ -> fail "bad \\u escape"
                   in
                   (* ASCII only; anything wider becomes '?' (we never emit it) *)
                   Buffer.add_char buf
                     (if code < 128 then Char.chr code else '?');
                   pos := !pos + 5
               | _ -> fail "unknown escape");
            go ()
        | c -> Buffer.add_char buf c; advance (); go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    let is_num_char c =
      match c with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while !pos < n && is_num_char s.[!pos] do
      advance ()
    done;
    let text = String.sub s start (!pos - start) in
    if String.exists (fun c -> c = '.' || c = 'e' || c = 'E') text then
      match float_of_string_opt text with
      | Some f -> Float f
      | None -> fail "bad number"
    else
      match int_of_string_opt text with
      | Some i -> Int i
      | None -> (
          match float_of_string_opt text with
          | Some f -> Float f
          | None -> fail "bad number")
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin advance (); List [] end
        else begin
          let items = ref [ parse_value () ] in
          skip_ws ();
          while peek () = Some ',' do
            advance ();
            items := parse_value () :: !items;
            skip_ws ()
          done;
          expect ']';
          List (List.rev !items)
        end
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin advance (); Obj [] end
        else begin
          let field () =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            (k, v)
          in
          let fields = ref [ field () ] in
          skip_ws ();
          while peek () = Some ',' do
            advance ();
            fields := field () :: !fields;
            skip_ws ()
          done;
          expect '}';
          Obj (List.rev !fields)
        end
    | Some _ -> parse_number ()
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

let parse s =
  match parse_exn s with
  | v -> Ok v
  | exception Parse_error msg -> Error msg

(* --- accessors --- *)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let to_list = function List items -> Some items | _ -> None

let to_number = function
  | Int i -> Some (float_of_int i)
  | Float f -> Some f
  | _ -> None

let to_str = function Str s -> Some s | _ -> None
