(* Lexical tokens for the C subset.

   Keywords that the subset parses but treats as no-ops (e.g. [const],
   [volatile], [register]) still get distinct tokens so the parser can skip
   them in a principled way. *)

type pos = { file : string; line : int; col : int }

let dummy_pos = { file = "<none>"; line = 0; col = 0 }

let pp_pos fmt p = Format.fprintf fmt "%s:%d:%d" p.file p.line p.col

type t =
  (* Literals and identifiers *)
  | IDENT of string
  | INT_LIT of int
  | FLOAT_LIT of float
  | CHAR_LIT of int
  | STRING_LIT of string
  (* Keywords *)
  | KW_VOID | KW_CHAR | KW_INT | KW_LONG | KW_SHORT | KW_FLOAT | KW_DOUBLE
  | KW_SIGNED | KW_UNSIGNED
  | KW_STRUCT | KW_UNION | KW_ENUM | KW_TYPEDEF
  | KW_IF | KW_ELSE | KW_WHILE | KW_DO | KW_FOR | KW_SWITCH | KW_CASE
  | KW_DEFAULT | KW_BREAK | KW_CONTINUE | KW_GOTO | KW_RETURN
  | KW_SIZEOF
  | KW_STATIC | KW_EXTERN | KW_AUTO | KW_REGISTER | KW_CONST | KW_VOLATILE
  (* Punctuation and operators *)
  | LPAREN | RPAREN | LBRACE | RBRACE | LBRACKET | RBRACKET
  | SEMI | COMMA | COLON | QUESTION | ELLIPSIS
  | DOT | ARROW
  | PLUS | MINUS | STAR | SLASH | PERCENT
  | PLUSPLUS | MINUSMINUS
  | AMP | PIPE | CARET | TILDE | BANG
  | LSHIFT | RSHIFT
  | LT | GT | LE | GE | EQEQ | NEQ
  | ANDAND | OROR
  | ASSIGN
  | PLUS_ASSIGN | MINUS_ASSIGN | STAR_ASSIGN | SLASH_ASSIGN | PERCENT_ASSIGN
  | AMP_ASSIGN | PIPE_ASSIGN | CARET_ASSIGN | LSHIFT_ASSIGN | RSHIFT_ASSIGN
  | EOF

(* A match on string literals compiles to a binary search on the
   string's words, so identifiers cost a few word compares. *)
let keyword_of_string = function
  | "void" -> Some KW_VOID | "char" -> Some KW_CHAR | "int" -> Some KW_INT
  | "long" -> Some KW_LONG | "short" -> Some KW_SHORT
  | "float" -> Some KW_FLOAT | "double" -> Some KW_DOUBLE
  | "signed" -> Some KW_SIGNED | "unsigned" -> Some KW_UNSIGNED
  | "struct" -> Some KW_STRUCT | "union" -> Some KW_UNION
  | "enum" -> Some KW_ENUM | "typedef" -> Some KW_TYPEDEF
  | "if" -> Some KW_IF | "else" -> Some KW_ELSE | "while" -> Some KW_WHILE
  | "do" -> Some KW_DO | "for" -> Some KW_FOR | "switch" -> Some KW_SWITCH
  | "case" -> Some KW_CASE | "default" -> Some KW_DEFAULT
  | "break" -> Some KW_BREAK | "continue" -> Some KW_CONTINUE
  | "goto" -> Some KW_GOTO | "return" -> Some KW_RETURN
  | "sizeof" -> Some KW_SIZEOF
  | "static" -> Some KW_STATIC | "extern" -> Some KW_EXTERN
  | "auto" -> Some KW_AUTO | "register" -> Some KW_REGISTER
  | "const" -> Some KW_CONST | "volatile" -> Some KW_VOLATILE
  | _ -> None

let to_string = function
  | IDENT s -> s
  | INT_LIT n -> string_of_int n
  | FLOAT_LIT f -> string_of_float f
  | CHAR_LIT c -> Printf.sprintf "'%s'" (Char.escaped (Char.chr (c land 0xff)))
  | STRING_LIT s -> Printf.sprintf "%S" s
  | KW_VOID -> "void" | KW_CHAR -> "char" | KW_INT -> "int"
  | KW_LONG -> "long" | KW_SHORT -> "short" | KW_FLOAT -> "float"
  | KW_DOUBLE -> "double" | KW_SIGNED -> "signed" | KW_UNSIGNED -> "unsigned"
  | KW_STRUCT -> "struct" | KW_UNION -> "union" | KW_ENUM -> "enum"
  | KW_TYPEDEF -> "typedef"
  | KW_IF -> "if" | KW_ELSE -> "else" | KW_WHILE -> "while" | KW_DO -> "do"
  | KW_FOR -> "for" | KW_SWITCH -> "switch" | KW_CASE -> "case"
  | KW_DEFAULT -> "default" | KW_BREAK -> "break"
  | KW_CONTINUE -> "continue" | KW_GOTO -> "goto" | KW_RETURN -> "return"
  | KW_SIZEOF -> "sizeof"
  | KW_STATIC -> "static" | KW_EXTERN -> "extern" | KW_AUTO -> "auto"
  | KW_REGISTER -> "register" | KW_CONST -> "const"
  | KW_VOLATILE -> "volatile"
  | LPAREN -> "(" | RPAREN -> ")" | LBRACE -> "{" | RBRACE -> "}"
  | LBRACKET -> "[" | RBRACKET -> "]"
  | SEMI -> ";" | COMMA -> "," | COLON -> ":" | QUESTION -> "?"
  | ELLIPSIS -> "..."
  | DOT -> "." | ARROW -> "->"
  | PLUS -> "+" | MINUS -> "-" | STAR -> "*" | SLASH -> "/" | PERCENT -> "%"
  | PLUSPLUS -> "++" | MINUSMINUS -> "--"
  | AMP -> "&" | PIPE -> "|" | CARET -> "^" | TILDE -> "~" | BANG -> "!"
  | LSHIFT -> "<<" | RSHIFT -> ">>"
  | LT -> "<" | GT -> ">" | LE -> "<=" | GE -> ">=" | EQEQ -> "==" | NEQ -> "!="
  | ANDAND -> "&&" | OROR -> "||"
  | ASSIGN -> "="
  | PLUS_ASSIGN -> "+=" | MINUS_ASSIGN -> "-=" | STAR_ASSIGN -> "*="
  | SLASH_ASSIGN -> "/=" | PERCENT_ASSIGN -> "%="
  | AMP_ASSIGN -> "&=" | PIPE_ASSIGN -> "|=" | CARET_ASSIGN -> "^="
  | LSHIFT_ASSIGN -> "<<=" | RSHIFT_ASSIGN -> ">>="
  | EOF -> "<eof>"
