(* Differential tests for the closure-compiled interpreter back end.

   The contract under test: [Cinterp.Compile] and the reference tree
   walker [Cinterp.Eval] are observationally identical — bit-identical
   profiles (block counts, branch taken/not-taken, call-site counts,
   work units; compared through the %.17g [Profile.save] text), the same
   stdout, the same exit codes, the same [Runtime_error] diagnostics
   (out-of-bounds, use-after-free, division by zero), and the same
   [Budget_exhausted] stops with bit-identical partial profiles when a
   fuel or wall-clock budget runs out mid-execution.

   Coverage: the whole 16-program suite on every registered input, a
   qcheck property over generated programs (arrays, pointers, helper
   calls, doubles, switch/loops, printf), pinned regressions for the
   fuel limit, each diagnostic class and the slot rule (which locals
   get a [Memory] block), and one MD5 pinning the profiles themselves. *)

module Pipeline = Core.Pipeline
module Profile = Cinterp.Profile
module Eval = Cinterp.Eval
module Value = Cinterp.Value
module Cfg = Cfg_ir.Cfg

let compile src = Pipeline.compile ~name:"t" src

let run_with backend ?fuel ?deadline_s ?(argv = []) ?(input = "") c =
  Pipeline.run_once ?fuel ?deadline_s ~backend c { Pipeline.argv; input }

(* Compare every observable of one run under both back ends. *)
let check_identical name ?fuel ?argv ?input c =
  let t = run_with Pipeline.Tree ?fuel ?argv ?input c in
  let k = run_with Pipeline.Compiled ?fuel ?argv ?input c in
  Alcotest.(check int) (name ^ ": exit code") t.Eval.exit_code k.Eval.exit_code;
  Alcotest.(check string)
    (name ^ ": stdout") t.Eval.stdout_text k.Eval.stdout_text;
  Alcotest.(check string)
    (name ^ ": profile bits")
    (Profile.save t.Eval.profile)
    (Profile.save k.Eval.profile)

(* ------------------------------------------------------------------ *)
(* The whole suite, every input: profiles must agree to the last bit. *)

let test_suite_differential () =
  List.iter
    (fun (p : Suite.Bench_prog.t) ->
      let c =
        Pipeline.compile ~name:p.Suite.Bench_prog.name
          p.Suite.Bench_prog.source
      in
      List.iteri
        (fun i (r : Suite.Bench_prog.run) ->
          check_identical
            (Printf.sprintf "%s input %d" p.Suite.Bench_prog.name i)
            ~argv:r.Suite.Bench_prog.r_argv ~input:r.Suite.Bench_prog.r_input
            c)
        p.Suite.Bench_prog.runs)
    Suite.Registry.all

(* ------------------------------------------------------------------ *)
(* argv interning and getchar share runtime paths with string literals;
   exercise them against a program that consumes both. *)

let test_argv_and_stdin () =
  let c =
    compile
      {|
int main(int argc, char **argv) {
  int ch; int n = 0; int i;
  while ((ch = getchar()) != -1) { n = n + ch; }
  for (i = 0; i < argc; i++) { puts(argv[i]); }
  printf("argc=%d sum=%d %s\n", argc, n, "prog");
  return argc;
}|}
  in
  check_identical "argv+getchar" ~argv:[ "alpha"; "prog" ] ~input:"hi\n" c;
  check_identical "no argv" ~argv:[] ~input:"" c

(* ------------------------------------------------------------------ *)
(* Diagnostics: both back ends must raise Runtime_error with the same
   message, at the same point in execution (stdout up to the fault is
   part of the comparison). *)

let observe backend ?fuel ?deadline_s c =
  match run_with backend ?fuel ?deadline_s c with
  | o -> Ok (o.Eval.exit_code, o.Eval.stdout_text)
  | exception Value.Runtime_error m -> Error m
  | exception Eval.Budget_exhausted (stop, o) ->
    (* fold the stop kind and the partial observables into the compared
       value: both back ends must stop at the same point *)
    Error
      (Printf.sprintf "budget:%s:%s:%s"
         (Eval.budget_stop_to_string stop)
         o.Eval.stdout_text
         (Profile.save o.Eval.profile))

let outcome_t =
  Alcotest.(result (pair int string) string)

let check_same_error name ?fuel ?(expect : string option) src =
  let c = compile src in
  let t = observe Pipeline.Tree ?fuel c in
  let k = observe Pipeline.Compiled ?fuel c in
  Alcotest.(check outcome_t) (name ^ ": same outcome") t k;
  match expect with
  | None ->
    Alcotest.(check bool) (name ^ ": raised") true (Result.is_error t)
  | Some m -> Alcotest.(check outcome_t) (name ^ ": message") (Error m) t

let test_diagnostics () =
  check_same_error "array store out of bounds"
    ~expect:"store out of bounds (main.a, offset 5 of 3)"
    "int main(void) { int a[3]; a[5] = 1; return 0; }";
  check_same_error "array load out of bounds"
    "int main(void) { int a[3]; return a[7]; }";
  check_same_error "use after free"
    {|int main(void) {
        int *p = (int *) malloc(2 * sizeof(int));
        p[0] = 1;
        free(p);
        return p[0];
      }|};
  check_same_error "dead local"
    {|int *leak(void) { int x = 3; return &x; }
      int main(void) { int *p = leak(); return *p; }|};
  check_same_error "division by zero" ~expect:"division by zero"
    "int main(void) { int x = 0; return 1 / x; }";
  check_same_error "modulo by zero" ~expect:"modulo by zero"
    "int main(void) { int x = 0; return 1 % x; }";
  check_same_error "null deref" ~expect:"null pointer dereference"
    "int main(void) { int *p = 0; return *p; }";
  check_same_error "undefined function"
    ~expect:"call to undefined function ghost"
    "int ghost(int);\nint main(void) { return ghost(1); }"

let test_fuel_limit () =
  (* Fuel exhaustion is no longer a fatal [Runtime_error]: both back
     ends raise [Budget_exhausted (Fuel, outcome)] carrying the partial
     profile accumulated so far, and those partials are bit-identical
     (the per-block decrement order is the same). *)
  let c = compile "int main(void) { while (1) { } return 0; }" in
  let partial backend =
    match run_with backend ~fuel:1000 c with
    | _ -> Alcotest.fail "expected fuel exhaustion"
    | exception Eval.Budget_exhausted (Eval.Fuel, o) ->
      (o.Eval.stdout_text, Profile.save o.Eval.profile)
  in
  let t_out, t_prof = partial Pipeline.Tree in
  let k_out, k_prof = partial Pipeline.Compiled in
  Alcotest.(check string) "partial stdout identical" t_out k_out;
  Alcotest.(check string) "partial profile bits identical" t_prof k_prof;
  Alcotest.(check bool) "partial profile is non-empty" true
    (String.length t_prof > 0);
  (* A program that finishes exactly within its budget behaves the same
     under both back ends. *)
  let c = compile "int main(void) { int i; for (i = 0; i < 10; i++) { } return i; }" in
  check_identical "tight fuel" ~fuel:100 c

let test_wall_clock_limit () =
  (* An already-expired deadline stops the runaway loop at the first
     clock check — a fixed number of blocks in — so the partial profiles
     are still bit-identical across back ends. *)
  let c = compile "int main(void) { while (1) { } return 0; }" in
  let partial backend =
    match run_with backend ~deadline_s:0.0 c with
    | _ -> Alcotest.fail "expected wall-clock exhaustion"
    | exception Eval.Budget_exhausted (Eval.Wall_clock, o) ->
      Profile.save o.Eval.profile
  in
  Alcotest.(check string) "partial profile bits identical"
    (partial Pipeline.Tree) (partial Pipeline.Compiled)

(* ------------------------------------------------------------------ *)
(* Shared-state memos on the compiled record. *)

let test_memoization () =
  let c = compile "int f(void) { return 1; } int main(void) { return f(); }" in
  Alcotest.(check bool)
    "closure_exe memoized" true
    (Pipeline.closure_exe c == Pipeline.closure_exe c);
  let fn = List.hd c.Pipeline.prog.Cfg.prog_fns in
  Alcotest.(check bool)
    "usage_of memoized" true
    (Pipeline.usage_of c fn == Pipeline.usage_of c fn)

(* ------------------------------------------------------------------ *)
(* qcheck: generated programs agree under both back ends. The generator
   ([Corpus.Qgen], promoted from this file) leans into the
   pre-resolution surface: array indexing, pointer arguments, helper
   calls (profiled call sites), doubles, globals, string output, switch
   and every loop form — with all divisions guarded so no generated
   program faults. *)

let gen_program = Corpus.Qgen.gen_program

(* Generated loops may diverge ([while (x > 0) { x--; x++; }]); a small
   fuel budget turns those into a [Budget_exhausted] stop whose partial
   observables must also be identical across back ends. *)
let prop_backends_identical =
  QCheck.Test.make
    ~name:"compiled back end is observationally identical to the tree walker"
    ~count:150 gen_program (fun src ->
      let c = compile src in
      let obs backend =
        match run_with backend ~fuel:200_000 c with
        | o ->
          Ok (o.Eval.exit_code, o.Eval.stdout_text, Profile.save o.Eval.profile)
        | exception Value.Runtime_error m -> Error m
        | exception Eval.Budget_exhausted (stop, o) ->
          Error
            (Printf.sprintf "budget:%s:%s:%s"
               (Eval.budget_stop_to_string stop)
               o.Eval.stdout_text
               (Profile.save o.Eval.profile))
      in
      obs Pipeline.Tree = obs Pipeline.Compiled)

(* ------------------------------------------------------------------ *)
(* The slot rule ([Eval.needs_block]): scalar locals whose address is
   never taken live in the frame, every other local in a [Memory] block.
   Both back ends apply it, so each pin below compares every observable,
   diagnostics included. *)

let test_slot_rule_marks () =
  let c =
    compile
      {|struct pt { int x; int y; };
int g(int a, int *b, double c) {
  int i; int j = {3}; int arr[4]; struct pt s; char ch; int *q = &i;
  if (&ch == (char *) 0) return 0;
  s.x = arr[0] = j + c;
  return *b + a + *q + s.x;
}
int *h(int u, int v) { int t = u; return &v + t; }
int main(void) { int k = 1; return g(k, &k, 2.0); }|}
  in
  let marks name =
    let fn = Option.get (Cfg.find_fn c.Pipeline.prog name) in
    Array.to_list (Eval.needs_block c.Pipeline.prog.Cfg.prog_tc fn)
  in
  Alcotest.(check (list bool))
    "g: a b c i j arr s ch q"
    [ false; false; false; true; true; true; true; true; false ]
    (marks "g");
  Alcotest.(check (list bool)) "h: u v t" [ false; true; false ] (marks "h");
  Alcotest.(check (list bool)) "main: k" [ true ] (marks "main")

let test_slot_rule_differential () =
  let expect name ~exit ~out src =
    let c = compile src in
    check_identical name c;
    let o = run_with Pipeline.Compiled c in
    Alcotest.(check int) (name ^ ": exit") exit o.Eval.exit_code;
    Alcotest.(check string) (name ^ ": output") out o.Eval.stdout_text
  in
  expect "address-taken scalar parameter" ~exit:3 ~out:"42\n"
    {|void bump(int *p) { *p = *p + 1; }
int f(int x) { bump(&x); bump(&x); return x; }
int main(void) { printf("%d\n", f(40)); return f(1); }|};
  check_same_error "dangling pointer to a returned frame's local"
    ~expect:"use of freed or dead object (f.x)"
    {|int *f(int v) { int w = v + 1; int x = w; return &x; }
int main(void) { int *p = f(3); return *p; }|};
  expect "pointer order across a frame-only call" ~exit:3 ~out:"1 0 0 1 9\n"
    {|int sq(int a) { int b = a * a; return b; }
int main(void) {
  int *p = (int *) malloc(sizeof(int));
  int s = sq(3);
  int *q = (int *) malloc(sizeof(int));
  printf("%d %d %d %d %d\n", p < q, q < p, p == q, q > p, s);
  return (p < q) + 2 * (p == p);
}|};
  expect "brace-initialized scalar" ~exit:7 ~out:"7\n"
    {|int main(void) { int x = {5}; x += 2; printf("%d\n", x); return x; }|};
  expect "recursion mixing frame and addressed locals" ~exit:55 ~out:"610\n"
    {|void set(int *p, int v) { *p = v; }
int fib(int n) {
  int a; int b = 0; int r;
  set(&a, n);
  if (a < 2) return a;
  r = fib(n - 1);
  b = fib(n - 2);
  set(&a, r + b);
  return a;
}
int main(void) { printf("%d\n", fib(15)); return fib(10); }|}

(* ------------------------------------------------------------------ *)
(* The unboxed paths: int and char slots held as OCaml ints, operators
   on sure ints, fused [a[i]] loads and stores, switch dispatch (the
   first duplicate case wins) and the derived work count. Each pin
   compares every observable with the tree walker and fixes the expected
   output. *)

let pin name ~out src =
  let c = compile src in
  check_identical name c;
  let o = run_with Pipeline.Compiled c in
  Alcotest.(check string) (name ^ ": output") out o.Eval.stdout_text

let test_unboxed_arithmetic () =
  pin "char slot wraparound" ~out:"-128 -128 127 44 56\n"
    {|int main(void) {
  char c = 127; char d; char e = -128; char f = 100; char g = 0;
  c++;
  d = c;
  e--;
  f += 200;
  g -= 200;
  printf("%d %d %d %d %d\n", c, d, e, f, g);
  return 0;
}|};
  pin "int overflow" ~out:"-2147483648 2147483647 -2 -2 -2147483648\n"
    {|int main(void) {
  int big = 2147483647; int small = -2147483647 - 1; int m; int z;
  big++;
  small--;
  m = 2147483647 * 2;
  z = small * 2;
  printf("%d %d %d %d %d\n", big, small, m, z, -(-2147483647 - 1));
  return 0;
}|};
  pin "double into an int slot" ~out:"2 4 -1 7\n"
    {|int main(void) {
  int i = 1; int j = 3; int k = 0; char c = 2; double h = 0.5;
  i += 1.5;
  j = j + 1.9;
  k -= 1.5;
  c *= 3.9;
  printf("%d %d %d %d\n", i, j, k, c + (int) h);
  return 0;
}|};
  pin "shift counts of 32 and more" ~out:"2 2 1 -1 8 256\n"
    {|int main(void) {
  int one = 1; int n = 33; int a[2]; int neg = -8;
  a[0] = 40;
  printf("%d %d %d %d %d %d\n", one << n, 1 << 33, 256 >> a[0],
         neg >> 35, one << 35, one << a[0]);
  return 0;
}|};
  check_same_error "int slot divided by zero" ~expect:"division by zero"
    "int main(void) { int x = 7; int z = 0; return x / z; }";
  check_same_error "int slot modulo zero" ~expect:"modulo by zero"
    "int main(void) { int x = 7; int z = 0; x %= z; return x; }";
  check_same_error "array cell divided by a zero literal"
    ~expect:"division by zero"
    "int main(void) { int a[1]; a[0] = 5; return a[0] / 0; }";
  check_same_error "zero check before the left operand converts"
    ~expect:"modulo by zero"
    {|int main(void) {
  int a[1]; int *ps[1]; int x = 1; int z = 0;
  ps[0] = &x;
  memcpy(a, ps, sizeof(int *));
  return a[0] % z;
}|}

let test_memcpy_into_int_cells () =
  let prelude =
    {|int x; int a[2]; int *ps[1]; double ds[1];
int setup(void) {
  ps[0] = &x; ds[0] = 2.5;
  memcpy(a, ps, sizeof(int *));
  memcpy(a + 1, ds, sizeof(double));
  return 0;
}
|}
  in
  pin "pointer in an int cell, compared" ~out:"0 1 1 0 1 0 3 0\n"
    (prelude
    ^ {|int main(void) {
  int zero = 0; int two = 2;
  setup();
  printf("%d %d %d %d %d %d %d %d\n", a[0] == zero, a[0] != 0, zero < a[0],
         a[0] < zero, a[0] == a[0], a[1] == two, a[1] + 1, a[1] < two);
  return 0;
}|});
  check_same_error "pointer in an int cell, ordered against an int"
    ~expect:"pointer used as integer"
    (prelude ^ "int main(void) { int five = 5; setup(); return a[0] < five; }");
  check_same_error "pointer in an int cell, added"
    ~expect:"pointer used as integer"
    (prelude ^ "int main(void) { int one = 1; setup(); return one + a[0]; }");
  check_same_error "pointer in an int cell, stored into an int slot"
    ~expect:"storing a pointer into an integer object"
    (prelude ^ "int main(void) { int i; setup(); i = a[0]; return i; }")

let test_fused_access () =
  pin "reversed index" ~out:"30 30 7 9\n"
    {|struct pt { int x; int y; };
struct box { struct pt in; int n; };
int main(void) {
  int a[4]; int i = 2; struct box b; struct box *pb = &b;
  a[3] = 30; a[1] = 7;
  b.in.y = 9;
  printf("%d %d %d %d\n", 3[a], (i + 1)[a], 1[a], pb->in.y);
  return 0;
}|};
  check_same_error "fused load below the block"
    ~expect:"load out of bounds (main.a, offset -1 of 3)"
    "int main(void) { int a[3]; int i = -1; return a[i]; }";
  check_same_error "fused compound store past the block"
    ~expect:"load out of bounds (main.a, offset 3 of 3)"
    "int main(void) { int a[3]; int i = 3; a[i] += 1; return 0; }";
  check_same_error "fused store through a reversed index"
    ~expect:"store out of bounds (global g, offset 4 of 4)"
    "int g[4];\nint main(void) { int i = 4; i[g] = 1; return 0; }";
  check_same_error "fused field load past a malloc'd cell"
    ~expect:"load out of bounds (malloc, offset 1 of 1)"
    {|struct pt { int x; int y; };
int main(void) {
  struct pt *p = (struct pt *) malloc(1);
  return p->y;
}|}

let test_short_circuit_conditions () =
  pin "side effects in conditions" ~out:"1 0 4 1 | 6 4 1\n0 1\n"
    {|int calls;
int t(int v) { calls++; return v; }
int main(void) {
  int i = 0; int j = 0; int k = 0; int r;
  if (i++ > 0 && j++ > 0) k = 10;
  if (i > 0 || j++ > 0) k++;
  while (t(0) || t(1) && k++ < 3) { }
  r = !i || (j && t(5));
  printf("%d %d %d %d | %d %d %d\n", i, j, k + 0 * r, r == 0, calls, k,
         i ? 1 : t(9));
  printf("%d %d\n", (i = 0) && t(1), !(j = 0));
  return 0;
}|}

let test_switch_tables () =
  let src =
    {|int classify(int v) {
  int r = 0;
  switch (v) {
    case -3: r = 1; break;
    case -1: r = 2;
    case 0: r = r + 3; break;
    case 2: r = 4; break;
    case 2: r = 5; break;
    default: r = 9;
  }
  return r;
}
int sparse(int v) {
  switch (v) {
    case -100000: return 1;
    case 7: return 2;
    case 100000: return 3;
    case 7: return 4;
  }
  return 0;
}
int only_default(int v) { switch (v) { default: v = v * 2; } return v; }
int main(void) {
  int i;
  for (i = -5; i <= 4; i++) printf("%d", classify(i));
  printf(" %d %d %d %d %d", sparse(-100000), sparse(7), sparse(100000),
         sparse(8), only_default(21));
  printf("\n");
  return 0;
}|}
  in
  pin "negative, duplicate, sparse and default-only switches"
    ~out:"9919539499 1 2 3 0 42\n" src

let test_fuel_mid_block () =
  (* The loop body is one block of several instructions, so most fuel
     budgets run out with fuel left over inside it: the partial work
     (the fuel spent) must still match the tree walker bit for bit. *)
  let src =
    {|int main(void) {
  int i; int s = 0; int t = 1;
  for (i = 0; i < 1000; i++) { s = s + i; t = t * 3; s = s ^ t; printf("."); }
  return s;
}|}
  in
  for fuel = 1 to 40 do
    check_same_error (Printf.sprintf "fuel %d" fuel) ~fuel src
  done

(* ------------------------------------------------------------------ *)
(* Profile pin: one MD5 over every observable of every suite run and a
   fixed [Corpus.Genprog] sample on the Compiled back end — exit code,
   stdout and the %.17g [Profile.save] text (or the stop or diagnostic a
   run ends with). Interpreter speed work must leave it unchanged. *)

(* The pinned programs, as [(name, source, fuel, runs)]: the suite, then
   40 [Genprog] programs under the corpus fuel. *)
let pinned_programs () =
  let suite =
    List.map
      (fun (p : Suite.Bench_prog.t) ->
        ( p.Suite.Bench_prog.name,
          p.Suite.Bench_prog.source,
          None,
          List.map
            (fun (r : Suite.Bench_prog.run) ->
              (r.Suite.Bench_prog.r_argv, r.Suite.Bench_prog.r_input))
            p.Suite.Bench_prog.runs ))
      Suite.Registry.all
  in
  let classes = Array.of_list Corpus.Shape.all_classes in
  let sample =
    List.init 40 (fun k ->
        let cls = classes.(k mod Array.length classes) in
        let index = k / Array.length classes in
        let size =
          if index mod 2 = 0 then Corpus.Shape.medium else Corpus.Shape.large
        in
        ( Corpus.Genprog.name cls index,
          Corpus.Genprog.generate ~seed:1 ~cls ~size ~index,
          Some Driver.Corpus_eval.corpus_fuel,
          Corpus.Genprog.runs ))
  in
  suite @ sample

let profile_digest () =
  let buf = Buffer.create (1 lsl 20) in
  List.iter
    (fun (name, source, fuel, runs) ->
      let c = Pipeline.compile ~name source in
      List.iteri
        (fun i (argv, input) ->
          Printf.bprintf buf "%s/%d " name i;
          (match run_with Pipeline.Compiled ?fuel ~argv ~input c with
          | o ->
            Printf.bprintf buf "exit %d\n%s\n%s" o.Eval.exit_code
              o.Eval.stdout_text (Profile.save o.Eval.profile)
          | exception Value.Runtime_error m -> Printf.bprintf buf "error %s" m
          | exception Eval.Budget_exhausted (stop, o) ->
            Printf.bprintf buf "budget %s\n%s\n%s"
              (Eval.budget_stop_to_string stop)
              o.Eval.stdout_text (Profile.save o.Eval.profile));
          Buffer.add_char buf '\n')
        runs)
    (pinned_programs ());
  Digest.to_hex (Digest.string (Buffer.contents buf))

let test_profile_pin () =
  Alcotest.(check string)
    "profile digest" "b5fd775460c834eb9c199d6bd75c6353" (profile_digest ())

(* The limit must sit above the deepest call the pinned programs make,
   measured here, and far below the depth (about 6M frames) where either
   back end would overflow OCaml's default 1 GiB stack. *)
let test_call_depth_limit () =
  let too_deep = "call depth limit exceeded (100000 nested calls)" in
  let deepest =
    List.fold_left
      (fun d (name, source, fuel, runs) ->
        let c = Pipeline.compile ~name source in
        List.fold_left
          (fun d (argv, input) ->
            match run_with Pipeline.Compiled ?fuel ~argv ~input c with
            | o -> max d o.Eval.peak_depth
            | exception Eval.Budget_exhausted (_, o) -> max d o.Eval.peak_depth
            | exception Value.Runtime_error m when m = too_deep ->
              Eval.max_call_depth
            | exception Value.Runtime_error _ -> d)
          d runs)
      0 (pinned_programs ())
  in
  Alcotest.(check bool)
    (Printf.sprintf "deepest pinned call (%d frames) under the limit" deepest)
    true
    (deepest > 0 && deepest < Eval.max_call_depth);
  check_same_error "runaway recursion" ~expect:too_deep
    "int f(int n) { return f(n + 1) + 1; }\nint main(void) { return f(0); }";
  let at_limit =
    {|int f(int n) { if (n == 0) return 0; return f(n - 1) + 1; }
int main(void) { printf("%d\n", f(99998)); return 0; }|}
  in
  pin "recursion just under the limit" ~out:"99998\n" at_limit;
  let c = compile at_limit in
  List.iter
    (fun backend ->
      Alcotest.(check int) "peak depth at the limit" Eval.max_call_depth
        (run_with backend c).Eval.peak_depth)
    [ Pipeline.Tree; Pipeline.Compiled ]

let suite =
  [ Alcotest.test_case "suite-wide profile bit-identity" `Slow
      test_suite_differential;
    Alcotest.test_case "profiles pinned" `Slow test_profile_pin;
    Alcotest.test_case "slot rule marks" `Quick test_slot_rule_marks;
    Alcotest.test_case "slot rule differential" `Quick
      test_slot_rule_differential;
    Alcotest.test_case "argv and stdin" `Quick test_argv_and_stdin;
    Alcotest.test_case "identical diagnostics" `Quick test_diagnostics;
    Alcotest.test_case "fuel limit" `Quick test_fuel_limit;
    Alcotest.test_case "wall-clock limit" `Quick test_wall_clock_limit;
    Alcotest.test_case "memoized shared state" `Quick test_memoization;
    Alcotest.test_case "unboxed arithmetic" `Quick test_unboxed_arithmetic;
    Alcotest.test_case "memcpy into int cells" `Quick
      test_memcpy_into_int_cells;
    Alcotest.test_case "fused access" `Quick test_fused_access;
    Alcotest.test_case "short-circuit conditions" `Quick
      test_short_circuit_conditions;
    Alcotest.test_case "switch tables" `Quick test_switch_tables;
    Alcotest.test_case "fuel exhaustion mid-block" `Quick test_fuel_mid_block;
    Alcotest.test_case "call depth limit" `Slow test_call_depth_limit;
    QCheck_alcotest.to_alcotest prop_backends_identical ]
