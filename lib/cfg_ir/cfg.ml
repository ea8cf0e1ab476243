(* Control-flow graph for one function, lowered from the AST.

   Blocks contain straight-line instructions (expression statements and
   local initializations); terminators carry the control flow. Branch
   terminators keep a back-reference to the originating AST construct so
   the branch-prediction heuristics can inspect source structure, exactly
   like the paper's AST-level predictor. *)

module Ast = Cfront.Ast
module Typecheck = Cfront.Typecheck

type callee =
  | Direct of string    (* a defined or prototyped user function *)
  | Builtin of string   (* interpreter runtime function *)
  | Indirect            (* call through a function pointer *)

type call_site = {
  cs_id : int;          (* unique across the whole program *)
  cs_fun : string;      (* containing function *)
  cs_block : int;       (* containing block *)
  cs_expr : Ast.expr;   (* the Call expression (callee + arguments) *)
  cs_callee : callee;
}

type instr =
  | Iexpr of Ast.expr
  | Ilocal_init of int * Ast.decl  (* local slot, declaration with init *)

(* Which source construct a conditional branch came from. The "true" edge
   of a loop branch is the edge that (re-)enters the loop body. *)
type branch_kind = Kif | Kwhile | Kdo | Kfor | Kcond

type branch = {
  br_cond : Ast.expr;
  br_kind : branch_kind;
  br_stmt : Ast.stmt;             (* originating statement *)
  br_then_arm : Ast.stmt option;  (* AST arm reached when cond is true *)
  br_else_arm : Ast.stmt option;  (* AST arm reached when cond is false *)
}

type terminator =
  | Tjump of int
  | Tbranch of branch * int * int       (* true target, false target *)
  | Tswitch of Ast.expr * (int * int) list * int  (* (value, target), default *)
  | Treturn of Ast.expr option

type block = {
  b_id : int;
  mutable b_instrs : instr list;
  mutable b_term : terminator;
  mutable b_src : Ast.node_id option;  (* first statement lowered here *)
  mutable b_preds : int list;
}

type fn = {
  fn_name : string;
  fn_def : Ast.fundef;
  fn_info : Typecheck.fun_info;
  fn_blocks : block array;
  fn_entry : int;
  fn_call_sites : call_site list;      (* in block order *)
}

type program = {
  prog_tc : Typecheck.t;
  prog_fns : fn list;                  (* defined functions, source order *)
  prog_sites : call_site array;        (* indexed by cs_id *)
}

let successors (t : terminator) : int list =
  match t with
  | Tjump b -> [ b ]
  | Tbranch (_, a, b) -> if a = b then [ a ] else [ a; b ]
  | Tswitch (_, cases, d) ->
    List.sort_uniq compare (d :: List.map snd cases)
  | Treturn _ -> []

let find_fn (p : program) name : fn option =
  List.find_opt (fun f -> f.fn_name = name) p.prog_fns

let fn_names (p : program) = List.map (fun f -> f.fn_name) p.prog_fns

(* All branch terminators of a function, with their block ids. *)
let branches (f : fn) : (int * branch) list =
  Array.to_list f.fn_blocks
  |> List.filter_map (fun b ->
       match b.b_term with
       | Tbranch (br, _, _) -> Some (b.b_id, br)
       | _ -> None)

let n_blocks (f : fn) = Array.length f.fn_blocks

(* Call sites of the whole program, flattened. *)
let all_sites (p : program) : call_site list = Array.to_list p.prog_sites

let direct_sites (p : program) : call_site list =
  all_sites p
  |> List.filter (fun cs ->
       match cs.cs_callee with Direct _ -> true | _ -> false)
