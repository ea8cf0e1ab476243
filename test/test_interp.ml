(* Interpreter tests: C semantics end-to-end (arithmetic, pointers,
   arrays, structs, strings, control flow, function pointers, recursion),
   the runtime library, memory-safety diagnostics, profiling counters,
   and a differential qcheck property comparing random integer
   expressions against reference 32-bit semantics. *)

module Pipeline = Core.Pipeline
module Cfg = Cfg_ir.Cfg
module Profile = Cinterp.Profile
module Eval = Cinterp.Eval

let run ?(argv = []) ?(input = "") src =
  let c = Pipeline.compile ~name:"t" src in
  Pipeline.run_once c { Pipeline.argv; input }

let output ?argv ?input src = (run ?argv ?input src).Eval.stdout_text

let check_output name src expected =
  Alcotest.(check string) name expected (output src)

let check_main name body expected =
  check_output name (Printf.sprintf "int main(void) { %s }" body) expected

let test_arith () =
  check_main "basic arithmetic"
    {|printf("%d %d %d %d %d", 7 + 3, 7 - 3, 7 * 3, 7 / 3, 7 % 3); return 0;|}
    "10 4 21 2 1";
  check_main "division truncates toward zero"
    {|printf("%d %d %d %d", -7 / 2, 7 / -2, -7 % 2, 7 % -2); return 0;|}
    "-3 -3 -1 1";
  check_main "shifts"
    {|printf("%d %d %d", 1 << 10, -16 >> 2, 1024 >> 3); return 0;|}
    "1024 -4 128";
  check_main "bitwise"
    {|printf("%d %d %d %d", 12 & 10, 12 | 10, 12 ^ 10, ~0); return 0;|}
    "8 14 6 -1"

let test_wrap32 () =
  check_main "overflow wraps to 32 bits"
    {|int x = 2147483647; x = x + 1; printf("%d", x); return 0;|}
    "-2147483648";
  check_main "multiplication wraps"
    {|int x = 65536; printf("%d", x * x); return 0;|} "0";
  check_main "hash-style wrap"
    {|int h = 5381, i; for (i = 0; i < 20; i++) h = h * 33 + i;
      printf("%d", h); return 0;|}
    (let h = ref 5381l in
     for i = 0 to 19 do
       h := Int32.add (Int32.mul !h 33l) (Int32.of_int i)
     done;
     Int32.to_string !h)

let test_char_semantics () =
  check_main "char stores wrap to signed 8-bit"
    {|char c = 200; printf("%d", c); return 0;|} "-56";
  check_main "char arithmetic promotes"
    {|char c = 'A'; printf("%d %c", c + 1, c + 1); return 0;|} "66 B"

let test_float_semantics () =
  check_main "double arithmetic"
    {|double d = 1.5; d = d * 4.0 + 0.25; printf("%.2f", d); return 0;|}
    "6.25";
  check_main "int/double conversions"
    {|double d = 7 / 2; double e = 7 / 2.0; int t = 3.99;
      printf("%.1f %.2f %d", d, e, t); return 0;|}
    "3.0 3.50 3";
  check_main "math builtins"
    {|printf("%.3f %.1f %.1f", sqrt(2.0), floor(3.7), fabs(-2.5)); return 0;|}
    "1.414 3.0 2.5"

let test_logic () =
  check_main "short circuit and side effects"
    {|int n = 0;
      int t = (n = 1, 0) && (n = 2, 1);
      int u = 1 || (n = 9);
      printf("%d %d %d", t, u, n); return 0;|}
    "0 1 1";
  check_main "comparison results are 0/1"
    {|printf("%d %d %d", 3 > 2, 2 > 3, !(5 == 5)); return 0;|} "1 0 0";
  check_main "ternary"
    {|int x = 5; printf("%d %d", x > 3 ? 10 : 20, x > 9 ? 1 : 0); return 0;|}
    "10 0"

let test_pointers_arrays () =
  check_main "pointer arithmetic walks arrays"
    {|int a[5]; int *p; int s = 0;
      for (p = a; p < a + 5; p++) *p = (int)(p - a) * 2;
      s = a[0] + a[1] + a[2] + a[3] + a[4];
      printf("%d %d", s, *(a + 3)); return 0;|}
    "20 6";
  check_main "pointer to pointer"
    {|int x = 7; int *p = &x; int **pp = &p;
      **pp = 9; printf("%d", x); return 0;|}
    "9";
  check_main "i[a] form"
    {|int a[3]; a[1] = 42; printf("%d", 1[a]); return 0;|} "42";
  check_main "2d array"
    {|int m[3][4]; int i, j, s = 0;
      for (i = 0; i < 3; i++) for (j = 0; j < 4; j++) m[i][j] = i * 10 + j;
      for (i = 0; i < 3; i++) s += m[i][i];
      printf("%d %d", s, m[2][3]); return 0;|}
    "33 23"

let test_structs () =
  check_output "struct fields, copies, pointers"
    {|
struct point { int x; int y; };
struct rect { struct point lo; struct point hi; };
int area(struct rect r) { return (r.hi.x - r.lo.x) * (r.hi.y - r.lo.y); }
int main(void) {
  struct rect r, s;
  struct point *p = &r.hi;
  r.lo.x = 1; r.lo.y = 2;
  p->x = 5; p->y = 6;
  s = r;                 /* whole-struct copy */
  s.lo.x = 0;
  printf("%d %d %d", area(r), area(s), r.lo.x);
  return 0;
}
|}
    "16 20 1";
  check_output "linked list via malloc"
    {|
struct node { int v; struct node *next; };
int main(void) {
  struct node *head = NULL, *n;
  int i, s = 0;
  for (i = 0; i < 5; i++) {
    n = (struct node *)malloc(sizeof(struct node));
    n->v = i; n->next = head; head = n;
  }
  for (n = head; n != NULL; n = n->next) s = s * 10 + n->v;
  printf("%d", s);
  return 0;
}
|}
    "43210"

let test_strings_builtins () =
  check_main "string builtins"
    {|char buf[32];
      strcpy(buf, "hello");
      strcat(buf, " world");
      printf("%d %d %s", strlen(buf), strcmp(buf, "hello world"), buf);
      return 0;|}
    "11 0 hello world";
  check_main "strchr builtin"
    {|char *p = strchr("abcdef", 'd'); printf("%s", p); return 0;|} "def";
  check_main "atoi"
    {|printf("%d %d %d", atoi("42"), atoi("-17x"), atoi("zzz")); return 0;|}
    "42 -17 0";
  check_main "sprintf then puts"
    {|char b[40]; sprintf(b, "<%d|%s>", 5, "ok"); puts(b); return 0;|}
    "<5|ok>\n";
  check_main "memset memcpy"
    {|int a[4]; int b[4]; int i;
      memset(a, 0, 4);
      a[2] = 9;
      memcpy(b, a, 4);
      for (i = 0; i < 4; i++) printf("%d", b[i]);
      return 0;|}
    "0090"

let test_printf_formats () =
  check_main "widths and precision"
    {|printf("[%5d][%-5d][%05d][%x][%X][%o][%c][%8.3f][%e]",
            42, 42, 42, 255, 255, 8, 'Q', 3.14159, 1500.0);
      return 0;|}
    "[   42][42   ][00042][ff][FF][10][Q][   3.142][1.500000e+03]";
  check_main "percent escape" {|printf("100%%"); return 0;|} "100%";
  check_main "negative zero pad" {|printf("%05d", -42); return 0;|} "-0042"

let test_stdin () =
  let out =
    output
      ~input:"hello\nworld\n"
      {|int main(void) { int c, lines = 0, chars = 0;
        while ((c = getchar()) != EOF) { chars++; if (c == '\n') lines++; }
        printf("%d %d", lines, chars); return 0; }|}
  in
  Alcotest.(check string) "getchar stream" "2 12" out

let test_argv () =
  let out =
    output ~argv:[ "alpha"; "beta" ]
      {|int main(int argc, char **argv) {
          int i;
          printf("%d", argc);
          for (i = 1; i < argc; i++) printf(" %s", argv[i]);
          return 0; }|}
  in
  Alcotest.(check string) "argc/argv" "3 alpha beta" out

let test_recursion () =
  check_output "mutual recursion"
    {|
int is_odd(int n);
int is_even(int n) { if (n == 0) return 1; return is_odd(n - 1); }
int is_odd(int n) { if (n == 0) return 0; return is_even(n - 1); }
int main(void) { printf("%d %d", is_even(10), is_odd(7)); return 0; }
|}
    "1 1";
  check_output "ackermann (small)"
    {|
int ack(int m, int n) {
  if (m == 0) return n + 1;
  if (n == 0) return ack(m - 1, 1);
  return ack(m - 1, ack(m, n - 1));
}
int main(void) { printf("%d", ack(2, 3)); return 0; }
|}
    "9"

let test_function_pointers () =
  check_output "dispatch table"
    {|
int add(int a, int b) { return a + b; }
int sub(int a, int b) { return a - b; }
int mul(int a, int b) { return a * b; }
int (*ops[3])(int, int) = { add, sub, mul };
int main(void) {
  int i, r = 0;
  for (i = 0; i < 3; i++) r = r * 100 + ops[i](7, 3);
  printf("%d", r);
  return 0;
}
|}
    "100421"

let test_static_locals () =
  check_output "static local persists"
    {|
int counter(void) { static int n = 100; n++; return n; }
int main(void) { counter(); counter(); printf("%d", counter()); return 0; }
|}
    "103"

let test_global_initializers () =
  check_output "global arrays and strings"
    {|
int primes[5] = { 2, 3, 5, 7, 11 };
char greeting[] = "hey";
struct pair { int a; int b; };
struct pair p = { 4, 9 };
double scale = 2.5;
int main(void) {
  printf("%d %s %d %.1f", primes[3], greeting, p.a * p.b, scale);
  return 0;
}
|}
    "7 hey 36 2.5"

let test_switch_semantics () =
  check_output "switch with fallthrough and default"
    {|
int classify(int x) {
  int r = 0;
  switch (x) {
  case 0: r += 1;        /* falls through */
  case 1: r += 2; break;
  case 5: r = 50; break;
  default: r = -1; break;
  }
  return r;
}
int main(void) {
  printf("%d %d %d %d", classify(0), classify(1), classify(5), classify(9));
  return 0;
}
|}
    "3 2 50 -1"

let test_exit_and_abort () =
  let o = run {|int main(void) { printf("before"); exit(3); printf("after"); return 0; }|} in
  Alcotest.(check int) "exit code" 3 o.Eval.exit_code;
  Alcotest.(check string) "output stops at exit" "before" o.Eval.stdout_text;
  let o2 = run {|int main(void) { abort(); return 0; }|} in
  Alcotest.(check int) "abort code" 134 o2.Eval.exit_code

let test_rand_deterministic () =
  let src =
    {|int main(void) { srand(7); printf("%d %d", rand() % 1000, rand() % 1000); return 0; }|}
  in
  Alcotest.(check string) "same seed, same stream" (output src) (output src)

let expect_runtime_error name src =
  match run src with
  | exception Cinterp.Value.Runtime_error _ -> ()
  | _ -> Alcotest.failf "%s: expected a runtime error" name

let test_memory_safety () =
  expect_runtime_error "out of bounds"
    {|int main(void) { int a[3]; a[5] = 1; return 0; }|};
  expect_runtime_error "null deref"
    {|int main(void) { int *p = NULL; return *p; }|};
  expect_runtime_error "use after free"
    {|int main(void) { int *p = (int *)malloc(4); free(p); return *p; }|};
  expect_runtime_error "dangling local"
    {|int *leak(void) { int x = 5; return &x; }
      int main(void) { int *p = leak(); return *p; }|};
  expect_runtime_error "division by zero"
    {|int main(void) { int z = 0; return 5 / z; }|}

(* A dead block gives its cells back at once, and a later access still
   reports the object it was. *)
let test_dead_blocks_drop_cells () =
  let module Memory = Cinterp.Memory in
  let dead_access what f =
    match f () with
    | _ -> Alcotest.failf "%s: expected a runtime error" what
    | exception Cinterp.Value.Runtime_error m -> m
  in
  let m = Memory.create () in
  let keep = Memory.alloc m 4 ~tag:"malloc" in
  let big = Memory.alloc m 100_000 ~tag:"malloc" in
  let local = Memory.alloc m 50_000 ~tag:"f.buf" in
  let words () = Obj.reachable_words (Obj.repr m) in
  let before = words () in
  Memory.free m big;
  let after_free = words () in
  Alcotest.(check bool) "free releases the cells" true
    (before - after_free >= 100_000);
  Memory.kill m local;
  Alcotest.(check bool) "kill releases the cells" true
    (after_free - words () >= 50_000);
  Alcotest.(check string) "load after free"
    "use of freed or dead object (malloc)"
    (dead_access "load" (fun () -> Memory.load m (Memory.offset big 99_999)));
  Alcotest.(check string) "double free"
    "use of freed or dead object (malloc)"
    (dead_access "free" (fun () -> Memory.free m big));
  Alcotest.(check string) "store after kill"
    "use of freed or dead object (f.buf)"
    (dead_access "store" (fun () ->
         Memory.store m local (Cinterp.Value.Vint 1)));
  Alcotest.(check string) "size of a dead block"
    "use of freed or dead object (f.buf)"
    (dead_access "size" (fun () -> Memory.size_of_block m local));
  Memory.store m keep (Cinterp.Value.Vint 7);
  Alcotest.(check bool) "live block untouched" true
    (Memory.load m keep = Cinterp.Value.Vint 7)

let test_fuel_limit () =
  let c = Pipeline.compile ~name:"t" "int main(void){ int i; for(i=0;i<100000;i++); return 0; }" in
  match Eval.run ~fuel:100 c.Pipeline.prog with
  | exception Eval.Budget_exhausted (Eval.Fuel, o) ->
    (* the partial outcome carries the profile accumulated so far *)
    Alcotest.(check bool) "partial profile recorded" true
      (Cinterp.Profile.save o.Eval.profile <> "")
  | _ -> Alcotest.fail "fuel should run out"

let test_profile_counters () =
  let c =
    Pipeline.compile ~name:"t"
      {|
int helper(int x) { return x + 1; }
int main(void) {
  int i, s = 0;
  for (i = 0; i < 10; i++) {
    if (i % 2 == 0) s += helper(i);
  }
  printf("%d", s);
  return 0;
}
|}
  in
  let o = Pipeline.run_once c { Pipeline.argv = []; input = "" } in
  let prof = o.Eval.profile in
  let helper = Option.get (Cfg.find_fn c.Pipeline.prog "helper") in
  let main_fn = Option.get (Cfg.find_fn c.Pipeline.prog "main") in
  Alcotest.(check (float 0.0)) "helper invoked 5x" 5.0
    (Profile.invocations prof helper);
  Alcotest.(check (float 0.0)) "main invoked once" 1.0
    (Profile.invocations prof main_fn);
  (* branch counters: for-loop branch taken 10, not taken 1; if taken 5 *)
  let counters = Profile.fn_counters prof "main" in
  let branch_totals =
    List.map
      (fun (bid, br) ->
        ( br.Cfg.br_kind,
          counters.Profile.branch_taken.(bid),
          counters.Profile.branch_not_taken.(bid) ))
      (Cfg.branches main_fn)
  in
  List.iter
    (fun (kind, taken, not_taken) ->
      match kind with
      | Cfg.Kfor ->
        Alcotest.(check (float 0.0)) "loop taken" 10.0 taken;
        Alcotest.(check (float 0.0)) "loop exits once" 1.0 not_taken
      | Cfg.Kif ->
        Alcotest.(check (float 0.0)) "if taken" 5.0 taken;
        Alcotest.(check (float 0.0)) "if not taken" 5.0 not_taken
      | _ -> ())
    branch_totals;
  (* call sites: helper site counted 5, printf 1 *)
  let site_total = Array.fold_left ( +. ) 0.0 prof.Profile.site_counts in
  Alcotest.(check (float 0.0)) "site counts" 6.0 site_total

(* --- differential property: random expressions vs 32-bit reference --- *)

type iexpr =
  | Lit of int32
  | Add of iexpr * iexpr
  | Sub of iexpr * iexpr
  | Mul of iexpr * iexpr
  | Div of iexpr * iexpr
  | Rem of iexpr * iexpr
  | Shl of iexpr * iexpr
  | Shr of iexpr * iexpr
  | Band of iexpr * iexpr
  | Bor of iexpr * iexpr
  | Bxor of iexpr * iexpr
  | Neg of iexpr
  | Bnot of iexpr
  | Lt of iexpr * iexpr
  | Eq of iexpr * iexpr

let rec render = function
  | Lit n ->
    (* write negative literals parenthesized to avoid -- sequences *)
    if Int32.compare n 0l < 0 then Printf.sprintf "(%ld)" n
    else Int32.to_string n
  | Add (a, b) -> bin a "+" b
  | Sub (a, b) -> bin a "-" b
  | Mul (a, b) -> bin a "*" b
  | Div (a, b) -> bin a "/" b
  | Rem (a, b) -> bin a "%" b
  | Shl (a, b) -> bin a "<<" b
  | Shr (a, b) -> bin a ">>" b
  | Band (a, b) -> bin a "&" b
  | Bor (a, b) -> bin a "|" b
  | Bxor (a, b) -> bin a "^" b
  | Neg a -> Printf.sprintf "(-%s)" (render a)
  | Bnot a -> Printf.sprintf "(~%s)" (render a)
  | Lt (a, b) -> bin a "<" b
  | Eq (a, b) -> bin a "==" b

and bin a op b = Printf.sprintf "(%s %s %s)" (render a) op (render b)

(* Reference semantics: Int32 with C99 truncation; shifts masked to 5
   bits like the interpreter; division by zero yields None. *)
let rec eval_ref (e : iexpr) : int32 option =
  let open Int32 in
  let b2 f a b =
    match (eval_ref a, eval_ref b) with
    | Some x, Some y -> f x y
    | _ -> None
  in
  match e with
  | Lit n -> Some n
  | Add (a, b) -> b2 (fun x y -> Some (add x y)) a b
  | Sub (a, b) -> b2 (fun x y -> Some (sub x y)) a b
  | Mul (a, b) -> b2 (fun x y -> Some (mul x y)) a b
  | Div (a, b) ->
    b2 (fun x y -> if y = 0l then None else Some (div x y)) a b
  | Rem (a, b) ->
    b2 (fun x y -> if y = 0l then None else Some (rem x y)) a b
  | Shl (a, b) ->
    b2 (fun x y -> Some (shift_left x (to_int (logand y 31l)))) a b
  | Shr (a, b) ->
    b2 (fun x y -> Some (shift_right x (to_int (logand y 31l)))) a b
  | Band (a, b) -> b2 (fun x y -> Some (logand x y)) a b
  | Bor (a, b) -> b2 (fun x y -> Some (logor x y)) a b
  | Bxor (a, b) -> b2 (fun x y -> Some (logxor x y)) a b
  | Neg a -> Option.map neg (eval_ref a)
  | Bnot a -> Option.map lognot (eval_ref a)
  | Lt (a, b) -> b2 (fun x y -> Some (if compare x y < 0 then 1l else 0l)) a b
  | Eq (a, b) -> b2 (fun x y -> Some (if x = y then 1l else 0l)) a b

let gen_iexpr : iexpr QCheck.arbitrary =
  let open QCheck.Gen in
  let lit =
    oneof
      [ map Int32.of_int (int_range (-100) 100);
        oneofl [ 0l; 1l; -1l; 2147483647l; -2147483648l; 65536l ] ]
    >|= fun n -> Lit n
  in
  let rec node depth =
    if depth <= 0 then lit
    else
      let sub = node (depth - 1) in
      frequency
        [ (2, lit);
          (2, map2 (fun a b -> Add (a, b)) sub sub);
          (2, map2 (fun a b -> Sub (a, b)) sub sub);
          (2, map2 (fun a b -> Mul (a, b)) sub sub);
          (1, map2 (fun a b -> Div (a, b)) sub sub);
          (1, map2 (fun a b -> Rem (a, b)) sub sub);
          (1, map2 (fun a b -> Shl (a, b)) sub sub);
          (1, map2 (fun a b -> Shr (a, b)) sub sub);
          (1, map2 (fun a b -> Band (a, b)) sub sub);
          (1, map2 (fun a b -> Bor (a, b)) sub sub);
          (1, map2 (fun a b -> Bxor (a, b)) sub sub);
          (1, map (fun a -> Neg a) sub);
          (1, map (fun a -> Bnot a) sub);
          (1, map2 (fun a b -> Lt (a, b)) sub sub);
          (1, map2 (fun a b -> Eq (a, b)) sub sub) ]
  in
  QCheck.make (node 4) ~print:render

let prop_expression_semantics =
  QCheck.Test.make ~name:"interpreter matches 32-bit reference semantics"
    ~count:300 gen_iexpr (fun e ->
      match eval_ref e with
      | None -> QCheck.assume_fail () (* division by zero somewhere *)
      | Some expected ->
        let src =
          Printf.sprintf "int main(void) { printf(\"%%d\", %s); return 0; }"
            (render e)
        in
        output src = Int32.to_string expected)

let suite =
  [ Alcotest.test_case "arithmetic" `Quick test_arith;
    Alcotest.test_case "32-bit wrap" `Quick test_wrap32;
    Alcotest.test_case "char semantics" `Quick test_char_semantics;
    Alcotest.test_case "float semantics" `Quick test_float_semantics;
    Alcotest.test_case "logic" `Quick test_logic;
    Alcotest.test_case "pointers and arrays" `Quick test_pointers_arrays;
    Alcotest.test_case "structs" `Quick test_structs;
    Alcotest.test_case "strings and builtins" `Quick test_strings_builtins;
    Alcotest.test_case "printf formats" `Quick test_printf_formats;
    Alcotest.test_case "stdin" `Quick test_stdin;
    Alcotest.test_case "argv" `Quick test_argv;
    Alcotest.test_case "recursion" `Quick test_recursion;
    Alcotest.test_case "function pointers" `Quick test_function_pointers;
    Alcotest.test_case "static locals" `Quick test_static_locals;
    Alcotest.test_case "global initializers" `Quick test_global_initializers;
    Alcotest.test_case "switch semantics" `Quick test_switch_semantics;
    Alcotest.test_case "exit and abort" `Quick test_exit_and_abort;
    Alcotest.test_case "deterministic rand" `Quick test_rand_deterministic;
    Alcotest.test_case "memory safety" `Quick test_memory_safety;
    Alcotest.test_case "dead blocks drop their cells" `Quick
      test_dead_blocks_drop_cells;
    Alcotest.test_case "fuel limit" `Quick test_fuel_limit;
    Alcotest.test_case "profile counters" `Quick test_profile_counters;
    QCheck_alcotest.to_alcotest prop_expression_semantics ]
