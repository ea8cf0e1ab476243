(* Hand-written lexer for the C subset.

   Operates on a whole source string (the mini preprocessor in [Preproc] runs
   first and produces plain C text). Produces a list of located tokens; the
   parser consumes them through a cursor. *)

exception Error of string * Token.pos

type located = { tok : Token.t; pos : Token.pos }

type state = {
  src : string;
  file : string;
  mutable off : int;   (* byte offset into [src] *)
  mutable line : int;
  mutable bol : int;   (* offset of beginning of current line *)
}

let make ~file src = { src; file; off = 0; line = 1; bol = 0 }

let pos st : Token.pos =
  { file = st.file; line = st.line; col = st.off - st.bol + 1 }

let error st msg = raise (Error (msg, pos st))

let at_end st = st.off >= String.length st.src

let peek st = if at_end st then '\000' else st.src.[st.off]

let peek2 st =
  if st.off + 1 >= String.length st.src then '\000' else st.src.[st.off + 1]

let peek3 st =
  if st.off + 2 >= String.length st.src then '\000' else st.src.[st.off + 2]

let advance st =
  if peek st = '\n' then begin
    st.line <- st.line + 1;
    st.off <- st.off + 1;
    st.bol <- st.off
  end else st.off <- st.off + 1

let is_digit c = c >= '0' && c <= '9'
let is_octal_digit c = c >= '0' && c <= '7'
let is_hex_digit c = is_digit c || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')
let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_ident_char c = is_ident_start c || is_digit c

(* Skip whitespace and comments; returns unit, may raise on unterminated
   comment. *)
let rec skip_trivia st =
  if at_end st then ()
  else
    match peek st with
    | ' ' | '\t' | '\r' | '\n' -> advance st; skip_trivia st
    | '/' when peek2 st = '*' ->
      let start = pos st in
      advance st; advance st;
      let rec loop () =
        if at_end st then
          raise (Error ("unterminated comment", start))
        else if peek st = '*' && peek2 st = '/' then begin
          advance st; advance st
        end else begin
          advance st; loop ()
        end
      in
      loop (); skip_trivia st
    | '/' when peek2 st = '/' ->
      while (not (at_end st)) && peek st <> '\n' do advance st done;
      skip_trivia st
    | _ -> ()

let lex_ident st =
  let start = st.off in
  while is_ident_char (peek st) do advance st done;
  String.sub st.src start (st.off - start)

(* Numeric literal: decimal, hex (0x...), octal (0...), or floating point
   (with optional exponent). Integer suffixes [uUlL] are accepted and
   ignored. *)
let lex_number st =
  let start = st.off in
  let is_float = ref false in
  if peek st = '0' && (peek2 st = 'x' || peek2 st = 'X') then begin
    advance st; advance st;
    while is_hex_digit (peek st) do advance st done
  end else begin
    while is_digit (peek st) do advance st done;
    if peek st = '.' && is_digit (peek2 st) then begin
      is_float := true;
      advance st;
      while is_digit (peek st) do advance st done
    end;
    if peek st = 'e' || peek st = 'E' then begin
      let save = st.off in
      advance st;
      if peek st = '+' || peek st = '-' then advance st;
      if is_digit (peek st) then begin
        is_float := true;
        while is_digit (peek st) do advance st done
      end else st.off <- save
    end
  end;
  let text = String.sub st.src start (st.off - start) in
  (* consume and drop integer suffixes *)
  while (match peek st with 'u' | 'U' | 'l' | 'L' -> true | _ -> false) do
    advance st
  done;
  if !is_float then Token.FLOAT_LIT (float_of_string text)
  else
    match int_of_string_opt text with
    | Some n -> Token.INT_LIT n
    | None -> error st (Printf.sprintf "invalid integer literal %S" text)

let lex_escape st =
  (* Called just after the backslash. *)
  let c = peek st in
  advance st;
  match c with
  | 'n' -> 10 | 't' -> 9 | 'r' -> 13 | 'b' -> 8 | 'f' -> 12
  | 'v' -> 11 | 'a' -> 7
  | '\\' -> 92 | '\'' -> 39 | '"' -> 34 | '?' -> 63
  | 'x' ->
    let v = ref 0 in
    let n = ref 0 in
    while is_hex_digit (peek st) && !n < 2 do
      let d = peek st in
      let dv =
        if is_digit d then Char.code d - Char.code '0'
        else (Char.code (Char.lowercase_ascii d) - Char.code 'a') + 10
      in
      v := (!v * 16) + dv;
      incr n;
      advance st
    done;
    if !n = 0 then error st "invalid hex escape" else !v
  | '0' .. '7' ->
    (* octal escape, up to 3 digits, first already consumed; [\0] is
       the one-digit case *)
    let v = ref (Char.code c - Char.code '0') in
    let n = ref 1 in
    while is_octal_digit (peek st) && !n < 3 do
      v := (!v * 8) + (Char.code (peek st) - Char.code '0');
      incr n;
      advance st
    done;
    !v
  | c -> error st (Printf.sprintf "unknown escape '\\%c'" c)

let lex_char_lit st =
  advance st; (* opening quote *)
  let v =
    match peek st with
    | '\\' -> advance st; lex_escape st
    | '\'' -> error st "empty character literal"
    | c -> advance st; Char.code c
  in
  if peek st <> '\'' then error st "unterminated character literal";
  advance st;
  Token.CHAR_LIT v

let lex_string_lit st =
  advance st; (* opening quote *)
  let buf = Buffer.create 16 in
  let rec loop () =
    if at_end st then error st "unterminated string literal"
    else
      match peek st with
      | '"' -> advance st
      | '\\' ->
        advance st;
        Buffer.add_char buf (Char.chr (lex_escape st land 0xff));
        loop ()
      | '\n' -> error st "newline in string literal"
      | c -> advance st; Buffer.add_char buf c; loop ()
  in
  loop ();
  Token.STRING_LIT (Buffer.contents buf)

let lex_operator st =
  let open Token in
  let c1 = peek st and c2 = peek2 st and c3 = peek3 st in
  let take n t =
    for _ = 1 to n do advance st done;
    t
  in
  match (c1, c2, c3) with
  | ('.', '.', '.') -> take 3 ELLIPSIS
  | ('<', '<', '=') -> take 3 LSHIFT_ASSIGN
  | ('>', '>', '=') -> take 3 RSHIFT_ASSIGN
  | ('-', '>', _) -> take 2 ARROW
  | ('+', '+', _) -> take 2 PLUSPLUS
  | ('-', '-', _) -> take 2 MINUSMINUS
  | ('<', '<', _) -> take 2 LSHIFT
  | ('>', '>', _) -> take 2 RSHIFT
  | ('<', '=', _) -> take 2 LE
  | ('>', '=', _) -> take 2 GE
  | ('=', '=', _) -> take 2 EQEQ
  | ('!', '=', _) -> take 2 NEQ
  | ('&', '&', _) -> take 2 ANDAND
  | ('|', '|', _) -> take 2 OROR
  | ('+', '=', _) -> take 2 PLUS_ASSIGN
  | ('-', '=', _) -> take 2 MINUS_ASSIGN
  | ('*', '=', _) -> take 2 STAR_ASSIGN
  | ('/', '=', _) -> take 2 SLASH_ASSIGN
  | ('%', '=', _) -> take 2 PERCENT_ASSIGN
  | ('&', '=', _) -> take 2 AMP_ASSIGN
  | ('|', '=', _) -> take 2 PIPE_ASSIGN
  | ('^', '=', _) -> take 2 CARET_ASSIGN
  | ('(', _, _) -> take 1 LPAREN
  | (')', _, _) -> take 1 RPAREN
  | ('{', _, _) -> take 1 LBRACE
  | ('}', _, _) -> take 1 RBRACE
  | ('[', _, _) -> take 1 LBRACKET
  | (']', _, _) -> take 1 RBRACKET
  | (';', _, _) -> take 1 SEMI
  | (',', _, _) -> take 1 COMMA
  | (':', _, _) -> take 1 COLON
  | ('?', _, _) -> take 1 QUESTION
  | ('.', _, _) -> take 1 DOT
  | ('+', _, _) -> take 1 PLUS
  | ('-', _, _) -> take 1 MINUS
  | ('*', _, _) -> take 1 STAR
  | ('/', _, _) -> take 1 SLASH
  | ('%', _, _) -> take 1 PERCENT
  | ('&', _, _) -> take 1 AMP
  | ('|', _, _) -> take 1 PIPE
  | ('^', _, _) -> take 1 CARET
  | ('~', _, _) -> take 1 TILDE
  | ('!', _, _) -> take 1 BANG
  | ('<', _, _) -> take 1 LT
  | ('>', _, _) -> take 1 GT
  | ('=', _, _) -> take 1 ASSIGN
  | (c, _, _) -> error st (Printf.sprintf "unexpected character %C" c)

let next_token st : located =
  skip_trivia st;
  let p = pos st in
  if at_end st then { tok = Token.EOF; pos = p }
  else
    let c = peek st in
    let tok =
      if is_ident_start c then
        let s = lex_ident st in
        match Token.keyword_of_string s with
        | Some kw -> kw
        | None -> Token.IDENT s
      else if is_digit c then lex_number st
      else if c = '.' && is_digit (peek2 st) then begin
        (* .5 style float *)
        let start = st.off in
        advance st;
        while is_digit (peek st) do advance st done;
        Token.FLOAT_LIT
          (float_of_string ("0" ^ String.sub st.src start (st.off - start)))
      end
      else if c = '\'' then lex_char_lit st
      else if c = '"' then lex_string_lit st
      else lex_operator st
    in
    { tok; pos = p }

(* Tokenize a full source string. Adjacent string literals are concatenated
   as in C. *)
let tokenize ~file src : located list =
  let st = make ~file src in
  let rec loop acc =
    let t = next_token st in
    match t.tok with
    | Token.EOF -> List.rev (t :: acc)
    | Token.STRING_LIT s -> begin
      (* try to merge a following string literal *)
      let rec merge s =
        let save = (st.off, st.line, st.bol) in
        let t2 = next_token st in
        match t2.tok with
        | Token.STRING_LIT s2 -> merge (s ^ s2)
        | _ ->
          let (o, l, b) = save in
          st.off <- o; st.line <- l; st.bol <- b;
          s
      in
      let s = merge s in
      loop ({ t with tok = Token.STRING_LIT s } :: acc)
    end
    | _ -> loop (t :: acc)
  in
  loop []
