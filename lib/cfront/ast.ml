(* Abstract syntax for the C subset.

   Every expression and statement carries a unique node id (per translation
   unit); the type checker, CFG builder, estimators and interpreter all key
   side tables by these ids, so the AST itself stays immutable. *)

type node_id = int

type unop =
  | Uneg            (* -e *)
  | Uplus           (* +e *)
  | Unot            (* !e *)
  | Ubnot           (* ~e *)
  | Uderef          (* *e *)
  | Uaddr           (* &e *)

type binop =
  | Badd | Bsub | Bmul | Bdiv | Bmod
  | Bshl | Bshr
  | Blt | Bgt | Ble | Bge | Beq | Bne
  | Bband | Bbor | Bbxor
  | Bland | Blor            (* short-circuit && and || *)

type assign_op =
  | Aplain
  | Aadd | Asub | Amul | Adiv | Amod
  | Aband | Abor | Abxor | Ashl | Ashr

type expr = { eid : node_id; epos : Token.pos; enode : expr_node }

and expr_node =
  | IntLit of int
  | FloatLit of float
  | CharLit of int
  | StringLit of string
  | Ident of string
  | Unop of unop * expr
  | Binop of binop * expr * expr
  | Assign of assign_op * expr * expr
  | Cond of expr * expr * expr          (* c ? a : b *)
  | Call of expr * expr list
  | Cast of Ctypes.ty * expr
  | Index of expr * expr                (* a[i] *)
  | Field of expr * string              (* a.f *)
  | Arrow of expr * string              (* a->f *)
  | SizeofT of Ctypes.ty
  | SizeofE of expr
  | PreIncr of expr | PreDecr of expr
  | PostIncr of expr | PostDecr of expr
  | Comma of expr * expr

type init = Iexpr of expr | Ilist of init list

type decl = {
  d_id : node_id;
  d_pos : Token.pos;
  d_name : string;
  d_ty : Ctypes.ty;
  d_init : init option;
  d_static : bool;          (* file- or block-scope [static] *)
  d_extern : bool;
}

type stmt = { sid : node_id; spos : Token.pos; snode : stmt_node }

and stmt_node =
  | Sexpr of expr
  | Sblock of block_item list
  | Sif of expr * stmt * stmt option
  | Swhile of expr * stmt
  | Sdo of stmt * expr
  | Sfor of for_init * expr option * expr option * stmt
  | Sswitch of expr * stmt
  | Scase of expr * stmt
  | Sdefault of stmt
  | Sbreak
  | Scontinue
  | Sgoto of string
  | Slabel of string * stmt
  | Sreturn of expr option
  | Snull

and for_init =
  | Fnone
  | Fexpr of expr
  | Fdecl of decl list

and block_item = Bstmt of stmt | Bdecl of decl

type fundef = {
  f_id : node_id;
  f_pos : Token.pos;
  f_name : string;
  f_ret : Ctypes.ty;
  f_params : (string * Ctypes.ty) list;
  f_varargs : bool;
  f_static : bool;
  f_body : stmt;
}

type global =
  | Gfun of fundef
  | Gvar of decl
  | Gfundecl of decl        (* function prototype, no body *)

type tunit = {
  globals : global list;
  structs : Ctypes.registry;
  enum_consts : (string * int) list;   (* enum constants, values resolved *)
  node_count : int;                    (* node ids are in [0, node_count) *)
  file : string;
}

(* Helpers used by heuristics and pretty printers. *)

let unop_to_string = function
  | Uneg -> "-" | Uplus -> "+" | Unot -> "!" | Ubnot -> "~"
  | Uderef -> "*" | Uaddr -> "&"

let binop_to_string = function
  | Badd -> "+" | Bsub -> "-" | Bmul -> "*" | Bdiv -> "/" | Bmod -> "%"
  | Bshl -> "<<" | Bshr -> ">>"
  | Blt -> "<" | Bgt -> ">" | Ble -> "<=" | Bge -> ">=" | Beq -> "=="
  | Bne -> "!="
  | Bband -> "&" | Bbor -> "|" | Bbxor -> "^"
  | Bland -> "&&" | Blor -> "||"

let assign_op_to_string = function
  | Aplain -> "=" | Aadd -> "+=" | Asub -> "-=" | Amul -> "*=" | Adiv -> "/="
  | Amod -> "%=" | Aband -> "&=" | Abor -> "|=" | Abxor -> "^="
  | Ashl -> "<<=" | Ashr -> ">>="

(* The arithmetic binop corresponding to a compound assignment. *)
let binop_of_assign = function
  | Aplain -> None
  | Aadd -> Some Badd | Asub -> Some Bsub | Amul -> Some Bmul
  | Adiv -> Some Bdiv | Amod -> Some Bmod
  | Aband -> Some Bband | Abor -> Some Bbor | Abxor -> Some Bbxor
  | Ashl -> Some Bshl | Ashr -> Some Bshr

(* Count the top-level short-circuit && conjuncts of a condition, looking
   through parentheses (which the parser already drops). Used by the
   multi-AND branch heuristic. *)
let rec count_conjuncts e =
  match e.enode with
  | Binop (Bland, a, b) -> count_conjuncts a + count_conjuncts b
  | _ -> 1

(* Iterate over all sub-expressions of [e], including [e] itself. *)
let rec iter_expr f e =
  f e;
  match e.enode with
  | IntLit _ | FloatLit _ | CharLit _ | StringLit _ | Ident _ | SizeofT _ -> ()
  | Unop (_, a) | Cast (_, a) | SizeofE a
  | PreIncr a | PreDecr a | PostIncr a | PostDecr a
  | Field (a, _) | Arrow (a, _) ->
    iter_expr f a
  | Binop (_, a, b) | Assign (_, a, b) | Index (a, b) | Comma (a, b) ->
    iter_expr f a; iter_expr f b
  | Cond (a, b, c) -> iter_expr f a; iter_expr f b; iter_expr f c
  | Call (fn, args) -> iter_expr f fn; List.iter (iter_expr f) args

(* Iterate over all statements of [s] (including [s]) and all expressions
   they contain. [on_stmt] runs before descending. *)
let rec iter_stmt ~on_stmt ~on_expr s =
  on_stmt s;
  let e = iter_expr on_expr in
  match s.snode with
  | Sexpr x -> e x
  | Sblock items ->
    List.iter
      (function
        | Bstmt s -> iter_stmt ~on_stmt ~on_expr s
        | Bdecl d -> iter_init ~on_expr d.d_init)
      items
  | Sif (c, t, f) ->
    e c;
    iter_stmt ~on_stmt ~on_expr t;
    Option.iter (iter_stmt ~on_stmt ~on_expr) f
  | Swhile (c, b) -> e c; iter_stmt ~on_stmt ~on_expr b
  | Sdo (b, c) -> iter_stmt ~on_stmt ~on_expr b; e c
  | Sfor (init, cond, step, b) ->
    (match init with
     | Fnone -> ()
     | Fexpr x -> e x
     | Fdecl ds -> List.iter (fun d -> iter_init ~on_expr d.d_init) ds);
    Option.iter e cond;
    Option.iter e step;
    iter_stmt ~on_stmt ~on_expr b
  | Sswitch (c, b) -> e c; iter_stmt ~on_stmt ~on_expr b
  | Scase (c, b) -> e c; iter_stmt ~on_stmt ~on_expr b
  | Sdefault b | Slabel (_, b) -> iter_stmt ~on_stmt ~on_expr b
  | Sreturn (Some x) -> e x
  | Sbreak | Scontinue | Sgoto _ | Sreturn None | Snull -> ()

and iter_init ~on_expr = function
  | None -> ()
  | Some (Iexpr e) -> iter_expr on_expr e
  | Some (Ilist l) -> List.iter (fun i -> iter_init ~on_expr (Some i)) l
