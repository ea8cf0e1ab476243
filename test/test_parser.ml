(* Parser tests: declarator syntax, expression precedence (validated via
   the constant evaluator and pretty printer), statements, enums, structs
   and typedefs. *)

open Cfront

let parse src = Parser.parse_string ~file:"test.c" src

let global_var tu name =
  List.find_map
    (function
      | Ast.Gvar d when d.Ast.d_name = name -> Some d
      | _ -> None)
    tu.Ast.globals
  |> function
  | Some d -> d
  | None -> Alcotest.failf "no global %s" name

let var_ty src name =
  Ctypes.to_string (global_var (parse src) name).Ast.d_ty

let check_ty name src expected =
  Alcotest.(check string) name expected (var_ty src "x")

let test_declarators () =
  check_ty "int" "int x;" "int";
  check_ty "pointer" "int *x;" "int*";
  check_ty "pointer pointer" "int **x;" "int**";
  check_ty "array" "int x[10];" "int[10]";
  check_ty "array of pointers" "int *x[3];" "int*[3]";
  check_ty "pointer to array" "int (*x)[3];" "int[3]*";
  check_ty "2d array" "int x[2][3];" "int[3][2]";
  check_ty "function pointer" "int (*x)(int, char);" "int(int, char)*";
  check_ty "fnptr returning ptr" "char *(*x)(void);" "char*()*";
  check_ty "array of fn pointers" "int (*x[4])(int);" "int(int)*[4]";
  check_ty "const ignored" "const int x;" "int";
  check_ty "double" "double x;" "double";
  check_ty "char ptr ptr" "char **x;" "char**"

let test_array_size_expressions () =
  check_ty "computed size" "int x[2 * 3 + 1];" "int[7]";
  check_ty "sizeof in size" "int x[sizeof(int) + 1];" "int[2]";
  check_ty "enum const in size" "enum { N = 5 }; int x[N];" "int[5]";
  check_ty "shift in size" "int x[1 << 4];" "int[16]"

let test_array_init_completion () =
  check_ty "array sized by init" "int x[] = {1, 2, 3};" "int[3]";
  check_ty "char array from string" "char x[] = \"hi\";" "char[3]"

let test_typedef () =
  check_ty "simple typedef" "typedef int myint; myint x;" "int";
  check_ty "pointer typedef" "typedef char *str; str x;" "char*";
  check_ty "typedef array" "typedef int vec[4]; vec x;" "int[4]";
  check_ty "typedef then pointer" "typedef int myint; myint *x;" "int*"

let test_struct_parsing () =
  let tu =
    parse
      "struct point { int x; int y; }; struct point x; struct point *p;"
  in
  (match (global_var tu "x").Ast.d_ty with
  | Ctypes.Tstruct _ -> ()
  | t -> Alcotest.failf "expected struct, got %s" (Ctypes.to_string t));
  match (global_var tu "p").Ast.d_ty with
  | Ctypes.Tptr (Ctypes.Tstruct _) -> ()
  | t -> Alcotest.failf "expected struct*, got %s" (Ctypes.to_string t)

let test_struct_forward_reference () =
  (* self-referential struct via pointer *)
  let tu = parse "struct node { int v; struct node *next; }; struct node x;" in
  let reg = tu.Ast.structs in
  match (global_var tu "x").Ast.d_ty with
  | Ctypes.Tstruct i ->
    Alcotest.(check int) "two fields" 2 (List.length (Ctypes.fields reg i));
    Alcotest.(check int) "size" 2 (Ctypes.size_of reg (Ctypes.Tstruct i))
  | _ -> Alcotest.fail "struct expected"

let test_enum_values () =
  let tu = parse "enum color { RED, GREEN = 10, BLUE, ALPHA = BLUE * 2 };" in
  Alcotest.(check (list (pair string int)))
    "enum constants"
    [ ("RED", 0); ("GREEN", 10); ("BLUE", 11); ("ALPHA", 22) ]
    tu.Ast.enum_consts

(* Evaluate a constant expression through the parser; precedence mistakes
   change the value. *)
let const_value expr_src =
  let tu = parse (Printf.sprintf "int x[%s];" expr_src) in
  match (global_var tu "x").Ast.d_ty with
  | Ctypes.Tarray (_, Some n) -> n
  | _ -> Alcotest.fail "array expected"

let check_const name expr expected =
  Alcotest.(check int) name expected (const_value expr)

let test_precedence () =
  check_const "mul before add" "2 + 3 * 4" 14;
  check_const "parens" "(2 + 3) * 4" 20;
  check_const "sub is left assoc" "10 - 4 - 3" 3;
  check_const "div is left assoc" "100 / 5 / 2" 10;
  check_const "unary minus" "7 - -3" 10;
  check_const "shift vs add" "1 << 2 + 1" 8;
  check_const "relational vs shift" "(1 << 3 > 7) + 1" 2;
  check_const "bitand vs equality" "(3 & 1 == 1) + 1" 2;
  check_const "xor layer" "(2 ^ 3 & 1) + 1" 4;
  check_const "or layer" "(4 | 2 ^ 2) + 1" 5;
  check_const "logical and or" "(0 && 1 || 1) + 1" 2;
  check_const "conditional" "1 ? 2 : 3" 2;
  check_const "conditional nesting" "0 ? 2 : 0 ? 3 : 4" 4;
  check_const "bitnot" "~0 + 2" 1;
  check_const "mod" "17 % 5" 2;
  check_const "mixed" "1 + 2 * 3 - 4 / 2" 5

(* The expression a function returns, parsed in a scope where the
   identifiers a..k are parameters. *)
let returned_expr expr_src =
  let tu =
    parse
      (Printf.sprintf
         "int f(int a, int b, int c, int d, int e, int f, int g, int h, int i, \
          int j, int k) { return %s; }"
         expr_src)
  in
  let result = ref None in
  List.iter
    (function
      | Ast.Gfun fn ->
        Ast.iter_stmt fn.Ast.f_body
          ~on_stmt:(fun s ->
            match s.Ast.snode with
            | Ast.Sreturn (Some e) -> result := Some e
            | _ -> ())
          ~on_expr:(fun _ -> ())
      | _ -> ())
    tu.Ast.globals;
  Option.get !result

let rec shape (e : Ast.expr) =
  match e.Ast.enode with
  | Ast.Ident x -> x
  | Ast.Binop (op, a, b) ->
    Printf.sprintf "(%s %s %s)" (Ast.binop_to_string op) (shape a) (shape b)
  | _ -> Alcotest.fail "unexpected node"

(* Node ids in post-order: a node is created right after its operands. *)
let rec post_order_ids (e : Ast.expr) =
  match e.Ast.enode with
  | Ast.Binop (_, a, b) -> post_order_ids a @ post_order_ids b @ [ e.Ast.eid ]
  | _ -> [ e.Ast.eid ]

let check_tree name src expected =
  let e = returned_expr src in
  Alcotest.(check string) name expected (shape e);
  let ids = post_order_ids e in
  let first = List.hd ids in
  Alcotest.(check (list int))
    (name ^ ": ids in creation order")
    (List.init (List.length ids) (fun n -> first + n))
    ids;
  (* every binop carries the position of its leftmost operand *)
  let rec leftmost (x : Ast.expr) =
    match x.Ast.enode with Ast.Binop (_, a, _) -> leftmost a | _ -> x
  in
  let rec check_pos (x : Ast.expr) =
    match x.Ast.enode with
    | Ast.Binop (_, a, b) ->
      Alcotest.(check int) (name ^ ": binop column") (leftmost x).Ast.epos.Token.col
        x.Ast.epos.Token.col;
      check_pos a;
      check_pos b
    | _ -> ()
  in
  check_pos e

let test_precedence_trees () =
  check_tree "sub is left associative" "a - b - c" "(- (- a b) c)";
  check_tree "div and mod share a level" "a / b % c" "(% (/ a b) c)";
  check_tree "all ten levels"
    "a + b * c << d < e == f & g ^ h | i && j || k"
    "(|| (&& (| (^ (& (== (< (<< (+ a (* b c)) d) e) f) g) h) i) j) k)";
  check_tree "all ten levels, tightest last"
    "a || b && c | d ^ e & f == g < h << i + j * k"
    "(|| a (&& b (| c (^ d (& e (== f (< g (<< h (+ i (* j k))))))))))";
  check_tree "levels falling and rising" "a * b + c * d < e - f / g"
    "(< (+ (* a b) (* c d)) (- e (/ f g)))"

let fundef tu name =
  List.find_map
    (function
      | Ast.Gfun f when f.Ast.f_name = name -> Some f
      | _ -> None)
    tu.Ast.globals
  |> function
  | Some f -> f
  | None -> Alcotest.failf "no function %s" name

let test_function_heads () =
  let tu =
    parse
      "int f(void) { return 0; }\n\
       char *g(char *s, int n) { return s; }\n\
       void h() { }\n\
       double *const_ptr(double d) { return NULL; }\n\
       int varargs_fn(char *fmt, ...) { return 0; }"
  in
  let f = fundef tu "f" in
  Alcotest.(check int) "f params" 0 (List.length f.Ast.f_params);
  let g = fundef tu "g" in
  Alcotest.(check string) "g ret" "char*" (Ctypes.to_string g.Ast.f_ret);
  Alcotest.(check int) "g params" 2 (List.length g.Ast.f_params);
  let v = fundef tu "varargs_fn" in
  Alcotest.(check bool) "varargs" true v.Ast.f_varargs

let count_stmts pred (f : Ast.fundef) =
  let n = ref 0 in
  Ast.iter_stmt f.Ast.f_body
    ~on_stmt:(fun s -> if pred s then incr n)
    ~on_expr:(fun _ -> ());
  !n

let test_statements () =
  let tu =
    parse
      {|
int f(int n) {
  int i, acc = 0;
  for (i = 0; i < n; i++) {
    if (i % 2) acc += i; else acc -= i;
    while (acc > 100) acc /= 2;
    do { acc++; } while (0);
    switch (i & 3) {
    case 0: acc++; break;
    case 1:
    case 2: acc--; break;
    default: acc ^= 1; break;
    }
    if (acc < 0) goto out;
    continue;
  }
out:
  return acc;
}
|}
  in
  let f = fundef tu "f" in
  let is k s = k s.Ast.snode in
  Alcotest.(check int) "for" 1
    (count_stmts (is (function Ast.Sfor _ -> true | _ -> false)) f);
  Alcotest.(check int) "if" 2
    (count_stmts (is (function Ast.Sif _ -> true | _ -> false)) f);
  Alcotest.(check int) "while" 1
    (count_stmts (is (function Ast.Swhile _ -> true | _ -> false)) f);
  Alcotest.(check int) "do" 1
    (count_stmts (is (function Ast.Sdo _ -> true | _ -> false)) f);
  Alcotest.(check int) "switch" 1
    (count_stmts (is (function Ast.Sswitch _ -> true | _ -> false)) f);
  Alcotest.(check int) "cases" 3
    (count_stmts (is (function Ast.Scase _ -> true | _ -> false)) f);
  Alcotest.(check int) "default" 1
    (count_stmts (is (function Ast.Sdefault _ -> true | _ -> false)) f);
  Alcotest.(check int) "goto" 1
    (count_stmts (is (function Ast.Sgoto _ -> true | _ -> false)) f);
  Alcotest.(check int) "label" 1
    (count_stmts (is (function Ast.Slabel _ -> true | _ -> false)) f);
  Alcotest.(check int) "break" 3
    (count_stmts (is (function Ast.Sbreak -> true | _ -> false)) f);
  Alcotest.(check int) "continue" 1
    (count_stmts (is (function Ast.Scontinue -> true | _ -> false)) f)

let test_for_decl_init () =
  let tu = parse "int f(void) { int s = 0; for (int i = 0; i < 3; i++) s += i; return s; }" in
  let f = fundef tu "f" in
  let has_fdecl = ref false in
  Ast.iter_stmt f.Ast.f_body
    ~on_stmt:(fun s ->
      match s.Ast.snode with
      | Ast.Sfor (Ast.Fdecl _, _, _, _) -> has_fdecl := true
      | _ -> ())
    ~on_expr:(fun _ -> ());
  Alcotest.(check bool) "for-decl" true !has_fdecl

let test_dangling_else () =
  (* else binds to the nearest if *)
  let tu = parse "int f(int a, int b) { if (a) if (b) return 1; else return 2; return 3; }" in
  let f = fundef tu "f" in
  let outer_has_else = ref None in
  Ast.iter_stmt f.Ast.f_body
    ~on_stmt:(fun s ->
      match s.Ast.snode with
      | Ast.Sif (_, { Ast.snode = Ast.Sif (_, _, inner_else); _ }, outer_else)
        ->
        outer_has_else := Some (outer_else <> None, inner_else <> None)
      | _ -> ())
    ~on_expr:(fun _ -> ());
  match !outer_has_else with
  | Some (outer, inner) ->
    Alcotest.(check bool) "outer if has no else" false outer;
    Alcotest.(check bool) "inner if has else" true inner
  | None -> Alcotest.fail "nested if not found"

let test_expression_forms () =
  (* exercise every expression constructor through the pretty printer *)
  let tu =
    parse
      {|
struct s { int f; struct s *n; };
int g(int x) { return x; }
int main(void) {
  struct s v, *p;
  int a[4];
  int i = 1, j;
  double d;
  p = &v;
  v.f = 2;
  p->f = 3;
  a[2] = v.f + p->f;
  j = i++ + ++i - i-- - --i;
  j += a[1] ? g(j) : (int)d;
  j = sizeof(struct s) + sizeof a[0];
  j = (i, j);
  j = ~i ^ (i | j) & (i << 2) >> 1;
  j = !i + -i + +i;
  return j % 3;
}
|}
  in
  let main_fn = fundef tu "main" in
  let exprs = ref 0 in
  Ast.iter_stmt main_fn.Ast.f_body
    ~on_stmt:(fun _ -> ())
    ~on_expr:(fun e ->
      incr exprs;
      (* pretty-printing must not raise *)
      ignore (Pretty.expr_to_string e));
  Alcotest.(check bool) "many expressions" true (!exprs > 40)

let test_unique_node_ids () =
  let tu =
    parse "int f(int x) { return x + x * x; } int g(void) { return f(2); }"
  in
  let seen = Hashtbl.create 64 in
  List.iter
    (function
      | Ast.Gfun f ->
        Ast.iter_stmt f.Ast.f_body
          ~on_stmt:(fun s ->
            Alcotest.(check bool) "stmt id unique" false (Hashtbl.mem seen s.Ast.sid);
            Hashtbl.replace seen s.Ast.sid ())
          ~on_expr:(fun e ->
            Alcotest.(check bool) "expr id unique" false (Hashtbl.mem seen e.Ast.eid);
            Hashtbl.replace seen e.Ast.eid ())
      | _ -> ())
    tu.Ast.globals;
  Alcotest.(check bool) "ids bounded" true
    (Hashtbl.fold (fun id _ acc -> max id acc) seen 0 < tu.Ast.node_count)

let expect_error name src =
  match parse src with
  | exception Parser.Error _ -> ()
  | _ -> Alcotest.failf "%s: expected parse error" name

let test_parse_errors () =
  expect_error "missing semicolon" "int x int y;";
  expect_error "unbalanced paren" "int f(void) { return (1; }";
  expect_error "union rejected" "union u { int a; } x;";
  expect_error "bad declarator" "int 3x;";
  expect_error "unterminated block" "int f(void) { return 0;";
  expect_error "field name missing" "struct s { int; } x;";
  (* case outside switch is a CFG-construction error, not a parse error;
     ensure it at least parses *)
  match parse "int f(void) { case 1: return 0; }" with
  | _ -> ()
  | exception Parser.Error _ -> Alcotest.fail "case should parse"

let suite =
  [ Alcotest.test_case "declarators" `Quick test_declarators;
    Alcotest.test_case "array size expressions" `Quick test_array_size_expressions;
    Alcotest.test_case "array init completion" `Quick test_array_init_completion;
    Alcotest.test_case "typedef" `Quick test_typedef;
    Alcotest.test_case "struct parsing" `Quick test_struct_parsing;
    Alcotest.test_case "recursive struct" `Quick test_struct_forward_reference;
    Alcotest.test_case "enum values" `Quick test_enum_values;
    Alcotest.test_case "precedence" `Quick test_precedence;
    Alcotest.test_case "precedence trees" `Quick test_precedence_trees;
    Alcotest.test_case "function heads" `Quick test_function_heads;
    Alcotest.test_case "statements" `Quick test_statements;
    Alcotest.test_case "for-decl init" `Quick test_for_decl_init;
    Alcotest.test_case "dangling else" `Quick test_dangling_else;
    Alcotest.test_case "expression forms" `Quick test_expression_forms;
    Alcotest.test_case "unique node ids" `Quick test_unique_node_ids;
    Alcotest.test_case "parse errors" `Quick test_parse_errors ]
