(* CFG construction tests: shapes for each control construct, structural
   invariants after simplification, call-site recording, and branch
   metadata. Includes qcheck properties over randomly generated
   structured programs. *)

open Cfront
module Cfg = Cfg_ir.Cfg
module Build = Cfg_ir.Build

let compile src =
  let tu = Parser.parse_string ~file:"t.c" src in
  let tc = Typecheck.check tu in
  Build.build tc

let fn_of src name =
  let prog = compile src in
  (prog, Option.get (Cfg.find_fn prog name))

let count_branches fn = List.length (Cfg.branches fn)

let count_term pred fn =
  Array.to_list fn.Cfg.fn_blocks
  |> List.filter (fun b -> pred b.Cfg.b_term)
  |> List.length

let test_straight_line () =
  let _, fn = fn_of "int f(int x) { x = x + 1; x = x * 2; return x; }" "f" in
  Alcotest.(check int) "single block" 1 (Cfg.n_blocks fn);
  Alcotest.(check int) "no branches" 0 (count_branches fn)

let test_if_shape () =
  let _, fn =
    fn_of "int f(int x) { if (x) x = 1; else x = 2; return x; }" "f"
  in
  (* cond, then, else, join = 4 blocks *)
  Alcotest.(check int) "blocks" 4 (Cfg.n_blocks fn);
  Alcotest.(check int) "one branch" 1 (count_branches fn);
  match (List.hd (Cfg.branches fn) |> snd).Cfg.br_kind with
  | Cfg.Kif -> ()
  | _ -> Alcotest.fail "kind"

let test_if_no_else () =
  let _, fn = fn_of "int f(int x) { if (x) x = 1; return x; }" "f" in
  Alcotest.(check int) "blocks" 3 (Cfg.n_blocks fn)

let test_while_shape () =
  let _, fn = fn_of "int f(int n) { while (n > 0) n--; return n; }" "f" in
  (* entry merges into header; header, body, exit *)
  Alcotest.(check int) "blocks" 3 (Cfg.n_blocks fn);
  let _, br = List.hd (Cfg.branches fn) in
  (match br.Cfg.br_kind with Cfg.Kwhile -> () | _ -> Alcotest.fail "kind");
  (* the header must have two predecessors: function entry side and body *)
  let header = fn.Cfg.fn_blocks.(fn.Cfg.fn_entry) in
  Alcotest.(check bool) "header has a back edge" true
    (List.length header.Cfg.b_preds >= 1)

let test_do_shape () =
  let _, fn = fn_of "int f(int n) { do { n--; } while (n); return n; }" "f" in
  let _, br = List.hd (Cfg.branches fn) in
  match br.Cfg.br_kind with Cfg.Kdo -> () | _ -> Alcotest.fail "kind"

let test_for_shape () =
  let _, fn =
    fn_of "int f(int n) { int i, s = 0; for (i = 0; i < n; i++) s += i; return s; }" "f"
  in
  let _, br = List.hd (Cfg.branches fn) in
  (match br.Cfg.br_kind with Cfg.Kfor -> () | _ -> Alcotest.fail "kind");
  (* init+header+body+step+exit, some merged: at least 4 blocks *)
  Alcotest.(check bool) "at least 4 blocks" true (Cfg.n_blocks fn >= 4)

let test_for_without_cond () =
  let _, fn =
    fn_of "int f(void) { int i = 0; for (;;) { i++; if (i > 3) break; } return i; }" "f"
  in
  (* no Kfor branch: the for-loop has no condition; the if provides one *)
  Alcotest.(check int) "only the if branch" 1 (count_branches fn)

let test_switch_shape () =
  let _, fn =
    fn_of
      "int f(int x) { switch (x) { case 1: return 10; case 2: case 3: return 20; default: return 30; } }"
      "f"
  in
  let switches =
    count_term (function Cfg.Tswitch _ -> true | _ -> false) fn
  in
  Alcotest.(check int) "one switch" 1 switches;
  Array.iter
    (fun b ->
      match b.Cfg.b_term with
      | Cfg.Tswitch (_, cases, _) ->
        Alcotest.(check int) "three case values" 3 (List.length cases);
        (* cases 2 and 3 share a target *)
        let t2 = List.assoc 2 cases and t3 = List.assoc 3 cases in
        Alcotest.(check int) "2 and 3 share target" t2 t3
      | _ -> ())
    fn.Cfg.fn_blocks

let test_switch_fallthrough_edges () =
  let _, fn =
    fn_of "int f(int x) { int r = 0; switch (x) { case 1: r = 1; case 2: r += 2; break; } return r; }"
      "f"
  in
  (* the case-1 block must fall through into the case-2 block *)
  let case_targets =
    Array.to_list fn.Cfg.fn_blocks
    |> List.concat_map (fun b ->
         match b.Cfg.b_term with
         | Cfg.Tswitch (_, cases, _) -> List.map snd cases
         | _ -> [])
  in
  match case_targets with
  | [ t1; t2 ] ->
    let b1 = fn.Cfg.fn_blocks.(t1) in
    Alcotest.(check (list int)) "fallthrough edge" [ t2 ]
      (Cfg.successors b1.Cfg.b_term)
  | _ -> Alcotest.fail "expected two cases"

let test_goto () =
  let _, fn =
    fn_of
      "int f(int n) { int s = 0; again: s += n; n--; if (n > 0) goto again; return s; }"
      "f"
  in
  (* the label block must have >= 2 predecessors (entry path + goto) *)
  let has_join =
    Array.exists
      (fun b -> List.length b.Cfg.b_preds >= 2)
      fn.Cfg.fn_blocks
  in
  Alcotest.(check bool) "label is a join point" true has_join

let test_break_continue () =
  let _, fn =
    fn_of
      "int f(int n) { int i, s = 0; for (i = 0; i < n; i++) { if (i == 2) continue; if (i == 5) break; s++; } return s; }"
      "f"
  in
  Alcotest.(check int) "three branches" 3 (count_branches fn)

let test_unreachable_dropped () =
  let _, fn =
    fn_of "int f(void) { return 1; return 2; return 3; }" "f"
  in
  Alcotest.(check int) "dead returns dropped" 1 (Cfg.n_blocks fn)

let test_call_sites () =
  let prog, fn =
    fn_of
      "int g(int x) { return x; }\n\
       int main(void) { int a = g(1); if (a) a = g(g(2)); printf(\"%d\", a); return a; }"
      "main"
  in
  let callees =
    List.map
      (fun cs ->
        match cs.Cfg.cs_callee with
        | Cfg.Direct n -> "d:" ^ n
        | Cfg.Builtin n -> "b:" ^ n
        | Cfg.Indirect -> "i")
      fn.Cfg.fn_call_sites
  in
  Alcotest.(check int) "four sites" 4 (List.length callees);
  Alcotest.(check int) "three direct g"
    3
    (List.length (List.filter (( = ) "d:g") callees));
  Alcotest.(check int) "one builtin" 1
    (List.length (List.filter (( = ) "b:printf") callees));
  (* program-wide ids are dense *)
  let ids = List.map (fun cs -> cs.Cfg.cs_id) (Cfg.all_sites prog) in
  Alcotest.(check (list int)) "dense ids" (List.init (List.length ids) Fun.id) ids

let test_indirect_call_site () =
  let _, fn =
    fn_of
      "int a(int x) { return x; }\n\
       int main(void) { int (*fp)(int) = a; return fp(3); }"
      "main"
  in
  let indirect =
    List.filter (fun cs -> cs.Cfg.cs_callee = Cfg.Indirect) fn.Cfg.fn_call_sites
  in
  Alcotest.(check int) "one indirect site" 1 (List.length indirect)

let test_branch_arms_recorded () =
  let _, fn =
    fn_of "int f(int x) { if (x) { return 1; } else { x++; } return x; }" "f"
  in
  let _, br = List.hd (Cfg.branches fn) in
  Alcotest.(check bool) "then arm" true (br.Cfg.br_then_arm <> None);
  Alcotest.(check bool) "else arm" true (br.Cfg.br_else_arm <> None)

(* --- structural invariants checked on arbitrary CFGs ----------------- *)

let check_invariants (fn : Cfg.fn) =
  let n = Cfg.n_blocks fn in
  Alcotest.(check bool) "entry in range" true (fn.Cfg.fn_entry < n);
  Array.iteri
    (fun i b ->
      Alcotest.(check int) "block ids sequential" i b.Cfg.b_id;
      List.iter
        (fun s ->
          if s < 0 || s >= n then
            Alcotest.failf "successor %d out of range in %s" s fn.Cfg.fn_name)
        (Cfg.successors b.Cfg.b_term);
      List.iter
        (fun p ->
          if p < 0 || p >= n then Alcotest.fail "pred out of range";
          let back = Cfg.successors fn.Cfg.fn_blocks.(p).Cfg.b_term in
          if not (List.mem i back) then
            Alcotest.failf "pred %d of %d lacks the forward edge" p i)
        b.Cfg.b_preds)
    fn.Cfg.fn_blocks;
  (* every block is reachable from the entry *)
  let seen = Array.make n false in
  let rec visit i =
    if not seen.(i) then begin
      seen.(i) <- true;
      List.iter visit (Cfg.successors fn.Cfg.fn_blocks.(i).Cfg.b_term)
    end
  in
  visit fn.Cfg.fn_entry;
  Array.iteri
    (fun i r ->
      if not r then Alcotest.failf "block %d unreachable in %s" i fn.Cfg.fn_name)
    seen

let test_invariants_on_suite () =
  List.iter
    (fun (p : Suite.Bench_prog.t) ->
      let prog = compile p.Suite.Bench_prog.source in
      List.iter check_invariants prog.Cfg.prog_fns)
    Suite.Registry.all

(* qcheck: random structured programs keep the invariants. *)
let gen_program : string QCheck.arbitrary =
  let open QCheck.Gen in
  let rec stmt depth =
    if depth <= 0 then
      oneofl [ "x++;"; "y += x;"; "x = y - 1;"; "return x;"; ";" ]
    else
      frequency
        [ (3, oneofl [ "x++;"; "y = y + x;"; "x = y % 7;" ]);
          (2, map2 (Printf.sprintf "if (x > %d) { %s }") (int_bound 9)
                 (stmt (depth - 1)));
          (1, map2 (Printf.sprintf "if (y < %d) { %s } else { y++; }")
                 (int_bound 9) (stmt (depth - 1)));
          (1, map (Printf.sprintf "while (x > 0) { x--; %s }")
                 (stmt (depth - 1)));
          (1, map (Printf.sprintf "for (x = 0; x < 3; x++) { %s }")
                 (stmt (depth - 1)));
          (1, map
                 (Printf.sprintf
                    "switch (x & 3) { case 0: %s break; case 1: y++; default: y--; }")
                 (stmt (depth - 1)));
          (1, return "if (x == 4) goto done;");
          (1, map (fun s -> "{ " ^ s ^ " y ^= x; }") (stmt (depth - 1))) ]
  in
  let body =
    list_size (int_range 1 8) (stmt 3) >|= fun stmts ->
    Printf.sprintf
      "int f(int x) { int y = 0; %s done: return x + y; }\n\
       int main(void) { return f(3); }"
      (String.concat " " stmts)
  in
  QCheck.make body ~print:(fun s -> s)

let prop_cfg_invariants =
  QCheck.Test.make ~name:"random programs keep CFG invariants" ~count:150
    gen_program (fun src ->
      let prog = compile src in
      List.iter check_invariants prog.Cfg.prog_fns;
      true)

(* The address-taken census counts a function named outside call
   position wherever a statement holds an expression: one function per
   place, so each count says which place was scanned. *)
let test_address_census_places () =
  let prog =
    compile
      {|
int in_decl(int x) { return x; }
int in_for_init(int x) { return x; }
int in_for_decl(int x) { return x; }
int in_switch(int x) { return x; }
int in_return(int x) { return x; }
int called(int x) { return x; }
int pick(int (*h)(int)) { return h(1); }
int (*fp)(int);
int main(void) {
  int (*p)(int) = in_decl;
  int i = called(2);
  for (fp = in_for_init; i < 1; i++) ;
  for (int (*q)(int) = in_for_decl; i < 2; i++) ;
  switch (pick(in_switch)) { default: break; }
  return pick(in_return) + p(0);
}
|}
  in
  let g = Cfg_ir.Callgraph.build prog in
  Alcotest.(check (list (pair string int)))
    "census"
    [ ("in_decl", 1); ("in_for_decl", 1); ("in_for_init", 1); ("in_return", 1);
      ("in_switch", 1) ]
    (Cfg_ir.Callgraph.address_taken_list g)

let suite =
  [ Alcotest.test_case "straight line" `Quick test_straight_line;
    Alcotest.test_case "if/else" `Quick test_if_shape;
    Alcotest.test_case "if without else" `Quick test_if_no_else;
    Alcotest.test_case "while" `Quick test_while_shape;
    Alcotest.test_case "do-while" `Quick test_do_shape;
    Alcotest.test_case "for" `Quick test_for_shape;
    Alcotest.test_case "for without condition" `Quick test_for_without_cond;
    Alcotest.test_case "switch" `Quick test_switch_shape;
    Alcotest.test_case "switch fallthrough" `Quick test_switch_fallthrough_edges;
    Alcotest.test_case "goto" `Quick test_goto;
    Alcotest.test_case "break/continue" `Quick test_break_continue;
    Alcotest.test_case "unreachable code dropped" `Quick test_unreachable_dropped;
    Alcotest.test_case "call sites" `Quick test_call_sites;
    Alcotest.test_case "indirect call site" `Quick test_indirect_call_site;
    Alcotest.test_case "address census places" `Quick test_address_census_places;
    Alcotest.test_case "branch arms" `Quick test_branch_arms_recorded;
    Alcotest.test_case "invariants on the whole suite" `Slow
      test_invariants_on_suite;
    QCheck_alcotest.to_alcotest prop_cfg_invariants ]
