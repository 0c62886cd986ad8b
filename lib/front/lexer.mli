(** Hand-written lexer for the CHLS C-like language: C tokens plus the
    hardware-extension keywords ([par], [send], [recv], [delay],
    [constrain], [chan]). *)

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
  | OP_ASSIGN of string  (** "+=", "-=", ...: desugared by the parser *)
  | PLUSPLUS | MINUSMINUS
  | LPAREN | RPAREN | LBRACE | RBRACE | LBRACKET | RBRACKET
  | SEMI | COMMA | QUESTION | COLON
  | EOF

type tok = { t : token; tline : int; tcol : int }

exception Error of string * Ast.loc

val tokenize : string -> tok list
(** Tokenize a complete source string; the trailing token is [EOF].
    @raise Error on malformed input (bad characters, unterminated
    comments or character literals, an integer literal that is not a
    64-bit integer). *)
