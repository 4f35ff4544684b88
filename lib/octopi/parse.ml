(* Hand-written lexer and recursive-descent parser for the OCTOPI DSL.

   Grammar (comments start with '#', newlines are insignificant except that
   a statement must be complete before the next begins):

     program  ::= { dims | stmt }
     dims     ::= "dims" ":" { IDENT "=" INT }
     stmt     ::= ref ("=" | "+=") rhs
     rhs      ::= "Sum" "(" "[" { IDENT } "]" "," product ")" | product
     product  ::= ref { "*" ref }
     ref      ::= IDENT "[" { IDENT } "]"
*)

exception Error of string

type token =
  | Ident of string
  | Int of int
  | Lbracket
  | Rbracket
  | Lparen
  | Rparen
  | Comma
  | Star
  | Equal
  | PlusEqual
  | Colon
  | Eof

let token_to_string = function
  | Ident s -> Printf.sprintf "identifier %S" s
  | Int n -> Printf.sprintf "integer %d" n
  | Lbracket -> "'['"
  | Rbracket -> "']'"
  | Lparen -> "'('"
  | Rparen -> "')'"
  | Comma -> "','"
  | Star -> "'*'"
  | Equal -> "'='"
  | PlusEqual -> "'+='"
  | Colon -> "':'"
  | Eof -> "end of input"

let is_ident_char c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') || c = '_'

let is_digit c = c >= '0' && c <= '9'

let tokenize src =
  let n = String.length src in
  let tokens = ref [] in
  let pos = ref 0 in
  let emit tok = tokens := tok :: !tokens in
  while !pos < n do
    let c = src.[!pos] in
    if c = ' ' || c = '\t' || c = '\n' || c = '\r' then incr pos
    else if c = '#' then begin
      (* comment to end of line *)
      while !pos < n && src.[!pos] <> '\n' do
        incr pos
      done
    end
    else if c = '[' then (emit Lbracket; incr pos)
    else if c = ']' then (emit Rbracket; incr pos)
    else if c = '(' then (emit Lparen; incr pos)
    else if c = ')' then (emit Rparen; incr pos)
    else if c = ',' then (emit Comma; incr pos)
    else if c = '*' then (emit Star; incr pos)
    else if c = ':' then (emit Colon; incr pos)
    else if c = '=' then (emit Equal; incr pos)
    else if c = '+' && !pos + 1 < n && src.[!pos + 1] = '=' then (emit PlusEqual; pos := !pos + 2)
    else if is_digit c then begin
      let start = !pos in
      while !pos < n && is_digit src.[!pos] do
        incr pos
      done;
      emit (Int (int_of_string (String.sub src start (!pos - start))))
    end
    else if is_ident_char c then begin
      let start = !pos in
      while !pos < n && is_ident_char src.[!pos] do
        incr pos
      done;
      emit (Ident (String.sub src start (!pos - start)))
    end
    else raise (Error (Printf.sprintf "unexpected character %C at offset %d" c !pos))
  done;
  emit Eof;
  List.rev !tokens

(* Mutable cursor over the token list. *)
type cursor = { mutable toks : token list }

let peek cur = match cur.toks with [] -> Eof | t :: _ -> t

let peek2 cur = match cur.toks with [] | [ _ ] -> Eof | _ :: t :: _ -> t

let advance cur = match cur.toks with [] -> () | _ :: rest -> cur.toks <- rest

let expect cur tok =
  let got = peek cur in
  if got = tok then advance cur
  else raise (Error (Printf.sprintf "expected %s but found %s" (token_to_string tok) (token_to_string got)))

let parse_ident cur =
  match peek cur with
  | Ident s -> advance cur; s
  | tok -> raise (Error (Printf.sprintf "expected identifier, found %s" (token_to_string tok)))

let parse_index_list cur =
  expect cur Lbracket;
  let rec loop acc =
    match peek cur with
    | Rbracket -> advance cur; List.rev acc
    | Ident s -> advance cur; loop (s :: acc)
    | tok -> raise (Error (Printf.sprintf "expected index or ']', found %s" (token_to_string tok)))
  in
  loop []

let parse_ref cur =
  let name = parse_ident cur in
  let indices = parse_index_list cur in
  { Ast.name; indices }

let parse_product cur =
  let rec loop acc =
    let r = parse_ref cur in
    if peek cur = Star then begin
      advance cur;
      loop (r :: acc)
    end
    else List.rev (r :: acc)
  in
  loop []

let parse_rhs cur =
  match peek cur with
  | Ident "Sum" ->
    advance cur;
    expect cur Lparen;
    let sum_indices = parse_index_list cur in
    expect cur Comma;
    let factors = parse_product cur in
    expect cur Rparen;
    (sum_indices, factors)
  | _ -> ([], parse_product cur)

let parse_dims cur =
  expect cur Colon;
  let rec loop acc =
    (* a dim entry is IDENT '=' INT; an IDENT followed by '[' starts the
       next statement instead *)
    match (peek cur, peek2 cur) with
    | Ident name, Equal -> (
      advance cur;
      expect cur Equal;
      match peek cur with
      | Int extent -> advance cur; loop ((name, extent) :: acc)
      | tok -> raise (Error (Printf.sprintf "expected extent, found %s" (token_to_string tok))))
    | _ -> List.rev acc
  in
  loop []

let program src =
  let cur = { toks = tokenize src } in
  let extents = ref [] in
  let stmts = ref [] in
  let rec loop () =
    match peek cur with
    | Eof -> ()
    | Ident "dims" ->
      advance cur;
      extents := !extents @ parse_dims cur;
      loop ()
    | Ident _ ->
      let lhs = parse_ref cur in
      let accumulate =
        match peek cur with
        | Equal -> advance cur; false
        | PlusEqual -> advance cur; true
        | tok -> raise (Error (Printf.sprintf "expected '=' or '+=', found %s" (token_to_string tok)))
      in
      let sum_indices, factors = parse_rhs cur in
      stmts := { Ast.lhs; sum_indices; factors; accumulate } :: !stmts;
      loop ()
    | tok -> raise (Error (Printf.sprintf "expected statement, found %s" (token_to_string tok)))
  in
  loop ();
  if !stmts = [] then raise (Error "no statements");
  { Ast.extents = !extents; stmts = List.rev !stmts }
