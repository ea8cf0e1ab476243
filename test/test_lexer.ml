(* Lexer unit tests: token classification, literals, escapes, comments,
   adjacent string concatenation, and error reporting. *)

open Cfront

let tokens_of src =
  List.map (fun (l : Lexer.located) -> l.Lexer.tok) (Lexer.tokenize ~file:"t" src)

let check_tokens name src expected =
  Alcotest.(check (list string))
    name
    (expected @ [ "<eof>" ])
    (List.map Token.to_string (tokens_of src))

let test_idents_keywords () =
  check_tokens "keywords vs identifiers" "int intx if iffy while whiled"
    [ "int"; "intx"; "if"; "iffy"; "while"; "whiled" ]

let test_keyword_round_trip () =
  let open Token in
  List.iter
    (fun kw ->
      let s = Token.to_string kw in
      Alcotest.(check bool) s true (Token.keyword_of_string s = Some kw))
    [ KW_VOID; KW_CHAR; KW_INT; KW_LONG; KW_SHORT; KW_FLOAT; KW_DOUBLE;
      KW_SIGNED; KW_UNSIGNED; KW_STRUCT; KW_UNION; KW_ENUM; KW_TYPEDEF;
      KW_IF; KW_ELSE; KW_WHILE; KW_DO; KW_FOR; KW_SWITCH; KW_CASE;
      KW_DEFAULT; KW_BREAK; KW_CONTINUE; KW_GOTO; KW_RETURN; KW_SIZEOF;
      KW_STATIC; KW_EXTERN; KW_AUTO; KW_REGISTER; KW_CONST; KW_VOLATILE ];
  List.iter
    (fun s ->
      Alcotest.(check bool) (Printf.sprintf "%S is not a keyword" s) true
        (Token.keyword_of_string s = None))
    [ "iff"; "int_"; "Int"; ""; "whil"; "sizeof_" ]

let test_integer_literals () =
  let toks = tokens_of "0 42 0x1F 017 123456789 42u 42L 0xffUL" in
  let ints =
    List.filter_map (function Token.INT_LIT n -> Some n | _ -> None) toks
  in
  Alcotest.(check (list int))
    "integer literal values"
    [ 0; 42; 31; 17; 123456789; 42; 42; 255 ]
    ints

let test_octal_like () =
  (* we accept a leading 0 as decimal-style unless int_of_string says
     otherwise; "017" lexes via int_of_string "017" = 17 *)
  match tokens_of "017" with
  | [ Token.INT_LIT 17; Token.EOF ] -> ()
  | _ -> Alcotest.fail "017"

let test_float_literals () =
  let toks = tokens_of "1.5 0.25 1e3 2.5e-2 .5" in
  let floats =
    List.filter_map (function Token.FLOAT_LIT f -> Some f | _ -> None) toks
  in
  Alcotest.(check (list (float 1e-9)))
    "float literal values"
    [ 1.5; 0.25; 1000.0; 0.025; 0.5 ]
    floats

let test_exponent_backtrack () =
  (* "1e" is not a float: the lexer must back off to INT 1, IDENT e *)
  match tokens_of "1e" with
  | [ Token.INT_LIT 1; Token.IDENT "e"; Token.EOF ] -> ()
  | ts ->
    Alcotest.failf "1e lexed as %s"
      (String.concat " " (List.map Token.to_string ts))

let test_char_literals () =
  let toks = tokens_of {|'a' '\n' '\t' '\0' '\\' '\'' '\x41' '\101'|} in
  let chars =
    List.filter_map (function Token.CHAR_LIT c -> Some c | _ -> None) toks
  in
  Alcotest.(check (list int))
    "char literal values"
    [ 97; 10; 9; 0; 92; 39; 65; 65 ]
    chars

let test_string_escapes () =
  match tokens_of {|"a\nb\t\"q\""|} with
  | [ Token.STRING_LIT s; Token.EOF ] ->
    Alcotest.(check string) "string value" "a\nb\t\"q\"" s
  | _ -> Alcotest.fail "string literal"

let test_octal_escapes () =
  (* an escape starting with 0 is octal too, up to three digits *)
  (match tokens_of {|"\012" "\1234" "\0a"|} with
  | [ Token.STRING_LIT s; Token.EOF ] ->
    Alcotest.(check string) "string octal escapes" "\nS4\000a" s
  | _ -> Alcotest.fail "string literal");
  (match tokens_of {|'\012' '\0' '\7' '\177'|} with
  | [ Token.CHAR_LIT a; Token.CHAR_LIT b; Token.CHAR_LIT c; Token.CHAR_LIT d;
      Token.EOF ] ->
    Alcotest.(check (list int))
      "char octal escapes" [ 10; 0; 7; 127 ] [ a; b; c; d ]
  | _ -> Alcotest.fail "char literals");
  (* 8 and 9 are not octal digits *)
  match tokens_of {|'\8'|} with
  | exception Lexer.Error (msg, _) ->
    Alcotest.(check string) "error" "unknown escape '\\8'" msg
  | _ -> Alcotest.fail "'\\8' must not lex"

let test_string_concatenation () =
  match tokens_of {|"foo" "bar" "baz"|} with
  | [ Token.STRING_LIT s; Token.EOF ] ->
    Alcotest.(check string) "adjacent strings merge" "foobarbaz" s
  | _ -> Alcotest.fail "concatenation"

let test_comments () =
  check_tokens "block and line comments" "a /* x */ b // rest\nc /*\n*/ d"
    [ "a"; "b"; "c"; "d" ]

let test_nested_star_comment () =
  check_tokens "stars inside comment" "x /* ** * /* sort of */ y" [ "x"; "y" ]

let test_operators_maximal_munch () =
  check_tokens "maximal munch"
    "a<<=b >>= ++ -- -> <= >= == != && || += << >> < > ! ~ ^ ..."
    [ "a"; "<<="; "b"; ">>="; "++"; "--"; "->"; "<="; ">="; "=="; "!=";
      "&&"; "||"; "+="; "<<"; ">>"; "<"; ">"; "!"; "~"; "^"; "..." ]

let test_positions () =
  let toks = Lexer.tokenize ~file:"pos.c" "a\n  b" in
  match toks with
  | [ a; b; _eof ] ->
    Alcotest.(check int) "a line" 1 a.Lexer.pos.Token.line;
    Alcotest.(check int) "a col" 1 a.Lexer.pos.Token.col;
    Alcotest.(check int) "b line" 2 b.Lexer.pos.Token.line;
    Alcotest.(check int) "b col" 3 b.Lexer.pos.Token.col
  | _ -> Alcotest.fail "token count"

let expect_error name src =
  match tokens_of src with
  | exception Lexer.Error _ -> ()
  | _ -> Alcotest.failf "%s: expected a lexer error" name

let test_errors () =
  expect_error "unterminated comment" "a /* b";
  expect_error "unterminated string" "\"abc";
  expect_error "unterminated char" "'a";
  expect_error "empty char" "''";
  expect_error "bad escape" {|'\q'|};
  expect_error "escape 9 in a string" {|"\9"|};
  expect_error "stray character" "a $ b";
  expect_error "newline in string" "\"ab\ncd\""

let test_eof_only () =
  match tokens_of "" with
  | [ Token.EOF ] -> ()
  | _ -> Alcotest.fail "empty input"

let suite =
  [ Alcotest.test_case "idents vs keywords" `Quick test_idents_keywords;
    Alcotest.test_case "keyword round trip" `Quick test_keyword_round_trip;
    Alcotest.test_case "integer literals" `Quick test_integer_literals;
    Alcotest.test_case "leading-zero literal" `Quick test_octal_like;
    Alcotest.test_case "float literals" `Quick test_float_literals;
    Alcotest.test_case "exponent backtracking" `Quick test_exponent_backtrack;
    Alcotest.test_case "char literals" `Quick test_char_literals;
    Alcotest.test_case "string escapes" `Quick test_string_escapes;
    Alcotest.test_case "octal escapes" `Quick test_octal_escapes;
    Alcotest.test_case "string concatenation" `Quick test_string_concatenation;
    Alcotest.test_case "comments" `Quick test_comments;
    Alcotest.test_case "stars in comments" `Quick test_nested_star_comment;
    Alcotest.test_case "maximal munch" `Quick test_operators_maximal_munch;
    Alcotest.test_case "source positions" `Quick test_positions;
    Alcotest.test_case "lexical errors" `Quick test_errors;
    Alcotest.test_case "empty input" `Quick test_eof_only ]
