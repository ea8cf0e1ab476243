(* Workload classes and size knobs for shaped-program generation.

   The four classes mirror the personality axes the paper isolates with
   its hand-written mini programs: alvinn_mini's numeric loop nests,
   the branchy scalar codes the heuristics were fit on, gs_mini's
   function-pointer dispatch, and the recursive/backtracking programs
   that stress the interprocedural estimators.  A corpus row is always
   (class, size, seed, index) — nothing else feeds the generator. *)

type workload_class =
  | Loop_nest      (* nested bounded counting loops over double arrays *)
  | Branchy        (* loop-free classifier chains: if/else, switch, rare error calls *)
  | Pointer_table  (* bytecode interpreter: fetch loop + function-pointer dispatch *)
  | Recursive      (* depth-bounded mutual recursion + backtracking search *)

let all_classes = [ Loop_nest; Branchy; Pointer_table; Recursive ]

let class_to_string = function
  | Loop_nest -> "loop_nest"
  | Branchy -> "branchy"
  | Pointer_table -> "pointer_table"
  | Recursive -> "recursive"

let class_description = function
  | Loop_nest -> "nested numeric loops over double arrays (alvinn_mini axis)"
  | Branchy -> "loop-free integer classifiers with rare error paths"
  | Pointer_table -> "bytecode fetch loop with function-pointer dispatch (gs_mini axis)"
  | Recursive -> "depth-bounded mutual recursion and backtracking search"

(* Size knobs.  Every knob bounds a *structural* dimension; none of
   them can make a program diverge — termination is by construction
   (counting loops, monotone pc, strictly decreasing recursion depth). *)
type size = {
  s_functions : int;  (* generated functions besides main and fixed helpers *)
  s_stmts : int;      (* statement budget per generated function body *)
  s_loop_depth : int; (* max loop-nest depth / recursion depth scale *)
  s_fanout : int;     (* call-graph fanout: callees reachable per function *)
}

let small = { s_functions = 3; s_stmts = 6; s_loop_depth = 2; s_fanout = 2 }
let medium = { s_functions = 5; s_stmts = 10; s_loop_depth = 3; s_fanout = 3 }
let large = { s_functions = 8; s_stmts = 14; s_loop_depth = 4; s_fanout = 4 }

let size_presets = [ ("small", small); ("medium", medium); ("large", large) ]

let size_to_string s =
  match List.find_opt (fun (_, v) -> v = s) size_presets with
  | Some (name, _) -> name
  | None ->
    Printf.sprintf "custom(f=%d,s=%d,d=%d,w=%d)" s.s_functions s.s_stmts
      s.s_loop_depth s.s_fanout
