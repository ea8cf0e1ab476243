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
(* Profile pin: one MD5 over every observable of every suite run and a
   fixed [Corpus.Genprog] sample on the Compiled back end — exit code,
   stdout and the %.17g [Profile.save] text (or the stop or diagnostic a
   run ends with). Interpreter speed work must leave it unchanged. *)

let profile_digest () =
  let buf = Buffer.create (1 lsl 20) in
  let add_runs ?fuel name source runs =
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
      runs
  in
  List.iter
    (fun (p : Suite.Bench_prog.t) ->
      add_runs p.Suite.Bench_prog.name p.Suite.Bench_prog.source
        (List.map
           (fun (r : Suite.Bench_prog.run) ->
             (r.Suite.Bench_prog.r_argv, r.Suite.Bench_prog.r_input))
           p.Suite.Bench_prog.runs))
    Suite.Registry.all;
  let classes = Array.of_list Corpus.Shape.all_classes in
  for k = 0 to 39 do
    let cls = classes.(k mod Array.length classes) in
    let index = k / Array.length classes in
    let size =
      if index mod 2 = 0 then Corpus.Shape.medium else Corpus.Shape.large
    in
    add_runs ~fuel:Driver.Corpus_eval.corpus_fuel
      (Corpus.Genprog.name cls index)
      (Corpus.Genprog.generate ~seed:1 ~cls ~size ~index)
      Corpus.Genprog.runs
  done;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let test_profile_pin () =
  Alcotest.(check string)
    "profile digest" "b5fd775460c834eb9c199d6bd75c6353" (profile_digest ())

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
    QCheck_alcotest.to_alcotest prop_backends_identical ]
