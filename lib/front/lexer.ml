(* Hand-written lexer for the CHLS C-like language. *)

type token =
  | INT of int64 * [ `Plain | `Unsigned | `Long | `Unsigned_long ]
  | ID of string
  | KW of string
  | PLUS | MINUS | STAR | SLASH | PERCENT
  | AMP | PIPE | CARET | TILDE | BANG
  | LSHIFT | RSHIFT
  | EQEQ | NEQ | LT | LE | GT | GE
  | ANDAND | OROR
  | ASSIGN
  | OP_ASSIGN of string (* "+=", "-=", ... desugared by the parser *)
  | PLUSPLUS | MINUSMINUS
  | LPAREN | RPAREN | LBRACE | RBRACE | LBRACKET | RBRACKET
  | SEMI | COMMA | QUESTION | COLON
  | EOF

type tok = { t : token; tline : int; tcol : int }

exception Error of string * Ast.loc

let keywords =
  [ "void"; "bool"; "_Bool"; "char"; "short"; "int"; "long"; "unsigned";
    "signed"; "if"; "else"; "while"; "do"; "for"; "return"; "break";
    "continue"; "par"; "send"; "recv"; "delay"; "constrain"; "chan"; "true";
    "false" ]

let is_ident_start c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'

let is_ident_char c = is_ident_start c || (c >= '0' && c <= '9')
let is_digit c = c >= '0' && c <= '9'

let is_hex_digit c =
  is_digit c || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')

type state = {
  src : string;
  mutable pos : int;
  mutable line : int;
  mutable bol : int; (* offset of beginning of current line *)
}

let loc st : Ast.loc = { line = st.line; col = st.pos - st.bol + 1 }
let peek st = if st.pos < String.length st.src then Some st.src.[st.pos] else None

let peek2 st =
  if st.pos + 1 < String.length st.src then Some st.src.[st.pos + 1] else None

let advance st =
  (match peek st with
  | Some '\n' ->
    st.line <- st.line + 1;
    st.bol <- st.pos + 1
  | Some _ | None -> ());
  st.pos <- st.pos + 1

let rec skip_trivia st =
  match (peek st, peek2 st) with
  | Some (' ' | '\t' | '\r' | '\n'), _ ->
    advance st;
    skip_trivia st
  | Some '/', Some '/' ->
    while peek st <> None && peek st <> Some '\n' do
      advance st
    done;
    skip_trivia st
  | Some '/', Some '*' ->
    advance st;
    advance st;
    let rec close () =
      match (peek st, peek2 st) with
      | Some '*', Some '/' ->
        advance st;
        advance st
      | None, _ -> raise (Error ("unterminated comment", loc st))
      | Some _, _ ->
        advance st;
        close ()
    in
    close ();
    skip_trivia st
  | (Some _ | None), _ -> ()

let lex_number st =
  let start = st.pos and at = loc st in
  let hex =
    peek st = Some '0' && (peek2 st = Some 'x' || peek2 st = Some 'X')
  in
  if hex then begin
    advance st;
    advance st;
    while match peek st with Some c -> is_hex_digit c | None -> false do
      advance st
    done
  end
  else
    while match peek st with Some c -> is_digit c | None -> false do
      advance st
    done;
  let digits = String.sub st.src start (st.pos - start) in
  let value =
    match Int64.of_string_opt digits with
    | Some v -> v
    | None ->
      raise
        (Error
           ( Printf.sprintf "integer literal %s is not a 64-bit integer"
               digits,
             at ))
  in
  let suffix = ref `Plain in
  let rec suffixes () =
    match peek st with
    | Some ('u' | 'U') ->
      advance st;
      suffix :=
        (match !suffix with
        | `Plain -> `Unsigned
        | `Long | `Unsigned_long -> `Unsigned_long
        | `Unsigned -> `Unsigned);
      suffixes ()
    | Some ('l' | 'L') ->
      advance st;
      suffix :=
        (match !suffix with
        | `Plain -> `Long
        | `Unsigned | `Unsigned_long -> `Unsigned_long
        | `Long -> `Long);
      suffixes ()
    | Some _ | None -> ()
  in
  suffixes ();
  INT (value, !suffix)

let lex_char_literal st =
  advance st; (* opening quote *)
  let c =
    match peek st with
    | Some '\\' -> (
      advance st;
      match peek st with
      | Some 'n' -> '\n'
      | Some 't' -> '\t'
      | Some 'r' -> '\r'
      | Some '0' -> '\000'
      | Some '\\' -> '\\'
      | Some '\'' -> '\''
      | Some c -> c
      | None -> raise (Error ("unterminated char literal", loc st)))
    | Some c -> c
    | None -> raise (Error ("unterminated char literal", loc st))
  in
  advance st;
  (match peek st with
  | Some '\'' -> advance st
  | Some _ | None -> raise (Error ("unterminated char literal", loc st)));
  INT (Int64.of_int (Char.code c), `Plain)

let lex_token st =
  skip_trivia st;
  let l = loc st in
  let two tok = advance st; advance st; tok in
  let one tok = advance st; tok in
  let token =
    match (peek st, peek2 st) with
    | None, _ -> EOF
    | Some '\'', _ -> lex_char_literal st
    | Some c, _ when is_digit c -> lex_number st
    | Some c, _ when is_ident_start c ->
      let start = st.pos in
      while match peek st with Some c -> is_ident_char c | None -> false do
        advance st
      done;
      let name = String.sub st.src start (st.pos - start) in
      if List.mem name keywords then KW name else ID name
    | Some '+', Some '+' -> two PLUSPLUS
    | Some '-', Some '-' -> two MINUSMINUS
    | Some '+', Some '=' -> two (OP_ASSIGN "+")
    | Some '-', Some '=' -> two (OP_ASSIGN "-")
    | Some '*', Some '=' -> two (OP_ASSIGN "*")
    | Some '/', Some '=' -> two (OP_ASSIGN "/")
    | Some '%', Some '=' -> two (OP_ASSIGN "%")
    | Some '&', Some '=' -> two (OP_ASSIGN "&")
    | Some '|', Some '=' -> two (OP_ASSIGN "|")
    | Some '^', Some '=' -> two (OP_ASSIGN "^")
    | Some '<', Some '<' ->
      advance st;
      advance st;
      if peek st = Some '=' then one (OP_ASSIGN "<<") else LSHIFT
    | Some '>', Some '>' ->
      advance st;
      advance st;
      if peek st = Some '=' then one (OP_ASSIGN ">>") else RSHIFT
    | Some '=', Some '=' -> two EQEQ
    | Some '!', Some '=' -> two NEQ
    | Some '<', Some '=' -> two LE
    | Some '>', Some '=' -> two GE
    | Some '&', Some '&' -> two ANDAND
    | Some '|', Some '|' -> two OROR
    | Some '+', _ -> one PLUS
    | Some '-', _ -> one MINUS
    | Some '*', _ -> one STAR
    | Some '/', _ -> one SLASH
    | Some '%', _ -> one PERCENT
    | Some '&', _ -> one AMP
    | Some '|', _ -> one PIPE
    | Some '^', _ -> one CARET
    | Some '~', _ -> one TILDE
    | Some '!', _ -> one BANG
    | Some '<', _ -> one LT
    | Some '>', _ -> one GT
    | Some '=', _ -> one ASSIGN
    | Some '(', _ -> one LPAREN
    | Some ')', _ -> one RPAREN
    | Some '{', _ -> one LBRACE
    | Some '}', _ -> one RBRACE
    | Some '[', _ -> one LBRACKET
    | Some ']', _ -> one RBRACKET
    | Some ';', _ -> one SEMI
    | Some ',', _ -> one COMMA
    | Some '?', _ -> one QUESTION
    | Some ':', _ -> one COLON
    | Some c, _ ->
      raise (Error (Printf.sprintf "unexpected character %C" c, l))
  in
  { t = token; tline = l.line; tcol = l.col }

(** Tokenize a complete source string (the trailing token is [EOF]). *)
let tokenize src =
  let st = { src; pos = 0; line = 1; bol = 0 } in
  let rec go acc =
    let tok = lex_token st in
    match tok.t with EOF -> List.rev (tok :: acc) | _ -> go (tok :: acc)
  in
  go []
