(* Static call graph over the defined functions of a program.

   Nodes are defined functions. Besides the direct-call arcs, the graph
   records everything the paper's inter-procedural models need:
   - the call sites grouped by (caller, callee),
   - indirect call sites (calls through function pointers), and
   - the address-taken census: the number of *static* address-of
     operations per function name, which weights the arcs out of the
     "pointer node" (paper section 5.2.1). *)

module Ast = Cfront.Ast
module Typecheck = Cfront.Typecheck

type t = {
  program : Cfg.program;
  names : string array;                 (* node index -> function name *)
  index : (string, int) Hashtbl.t;      (* function name -> node index *)
  direct_arcs : (int * int, Cfg.call_site list) Hashtbl.t;
      (* (caller, callee) -> the sites realizing the arc *)
  indirect_by_caller : (int, Cfg.call_site list) Hashtbl.t;
  address_taken : (string, int) Hashtbl.t;
      (* defined function name -> static address-of count *)
  main_index : int option;
}

let n_nodes (g : t) = Array.length g.names

let node_of_name (g : t) name = Hashtbl.find_opt g.index name

let succs (g : t) (i : int) : int list =
  Hashtbl.fold
    (fun (caller, callee) _ acc -> if caller = i then callee :: acc else acc)
    g.direct_arcs []
  |> List.sort_uniq compare

(* Count static address-of operations on each *defined* function: any
   occurrence of a function name outside direct-call position, plus
   explicit address-of. The typechecker resolves both to [Rfun]. *)
let address_census (p : Cfg.program) : (string, int) Hashtbl.t =
  let tc = p.Cfg.prog_tc in
  let counts = Hashtbl.create 16 in
  let defined name = List.mem name tc.Typecheck.fun_order in
  let bump name =
    if defined name then
      Hashtbl.replace counts name
        (1 + Option.value ~default:0 (Hashtbl.find_opt counts name))
  in
  let rec scan (e : Ast.expr) =
    match e.Ast.enode with
    | Ast.Ident _ -> begin
      match Typecheck.resolution_of tc e with
      | Some (Typecheck.Rfun name) -> bump name
      | _ -> ()
    end
    | Ast.Call (fn, args) ->
      (* The callee position is a use, not an address-of — unless it is
         itself an arbitrary expression. *)
      (match fn.Ast.enode with
      | Ast.Ident _ -> ()
      | _ -> scan fn);
      List.iter scan args
    | Ast.Unop (_, a) | Ast.Cast (_, a) | Ast.SizeofE a | Ast.PreIncr a
    | Ast.PreDecr a | Ast.PostIncr a | Ast.PostDecr a | Ast.Field (a, _)
    | Ast.Arrow (a, _) ->
      scan a
    | Ast.Binop (_, a, b) | Ast.Assign (_, a, b) | Ast.Index (a, b)
    | Ast.Comma (a, b) ->
      scan a;
      scan b
    | Ast.Cond (a, b, c) ->
      scan a;
      scan b;
      scan c
    | Ast.IntLit _ | Ast.FloatLit _ | Ast.CharLit _ | Ast.StringLit _
    | Ast.SizeofT _ ->
      ()
  in
  let scan_init init =
    Ast.iter_init
      ~on_expr:(fun e ->
        (* inside initializers, scan top-level idents too *)
        match e.Ast.enode with
        | Ast.Ident _ -> begin
          match Typecheck.resolution_of tc e with
          | Some (Typecheck.Rfun name) -> bump name
          | _ -> ()
        end
        | _ -> ())
      init
  in
  let rec scan_local_init = function
    | Ast.Iexpr e -> scan e
    | Ast.Ilist items -> List.iter scan_local_init items
  in
  let scan_decl (d : Ast.decl) = Option.iter scan_local_init d.Ast.d_init in
  (* Each statement scans the expressions it owns, not those of its
     sub-statements, so every maximal expression is scanned once. *)
  let scan_own (s : Ast.stmt) =
    match s.Ast.snode with
    | Ast.Sexpr e | Ast.Sif (e, _, _) | Ast.Swhile (e, _) | Ast.Sdo (_, e)
    | Ast.Sswitch (e, _) | Ast.Scase (e, _) | Ast.Sreturn (Some e) ->
      scan e
    | Ast.Sblock items ->
      List.iter (function Ast.Bdecl d -> scan_decl d | Ast.Bstmt _ -> ()) items
    | Ast.Sfor (init, cond, step, _) ->
      (match init with
      | Ast.Fnone -> ()
      | Ast.Fexpr e -> scan e
      | Ast.Fdecl ds -> List.iter scan_decl ds);
      Option.iter scan cond;
      Option.iter scan step
    | Ast.Sdefault _ | Ast.Slabel _ | Ast.Sbreak | Ast.Scontinue | Ast.Sgoto _
    | Ast.Sreturn None | Ast.Snull ->
      ()
  in
  List.iter
    (function
      | Ast.Gfun f -> Ast.iter_stmt f.Ast.f_body ~on_stmt:scan_own ~on_expr:ignore
      | Ast.Gvar d -> scan_init d.Ast.d_init
      | Ast.Gfundecl _ -> ())
    tc.Typecheck.tunit.Ast.globals;
  counts

let build (p : Cfg.program) : t =
  let names = Array.of_list (Cfg.fn_names p) in
  let index = Hashtbl.create 32 in
  Array.iteri (fun i n -> Hashtbl.replace index n i) names;
  let direct_arcs = Hashtbl.create 64 in
  let indirect_by_caller = Hashtbl.create 16 in
  List.iter
    (fun fn ->
      let caller = Hashtbl.find index fn.Cfg.fn_name in
      List.iter
        (fun cs ->
          match cs.Cfg.cs_callee with
          | Cfg.Direct callee -> begin
            match Hashtbl.find_opt index callee with
            | Some callee_idx ->
              let key = (caller, callee_idx) in
              let old =
                Option.value ~default:[] (Hashtbl.find_opt direct_arcs key)
              in
              Hashtbl.replace direct_arcs key (cs :: old)
            | None -> () (* prototype without definition: dropped *)
          end
          | Cfg.Indirect ->
            let old =
              Option.value ~default:[]
                (Hashtbl.find_opt indirect_by_caller caller)
            in
            Hashtbl.replace indirect_by_caller caller (cs :: old)
          | Cfg.Builtin _ -> ())
        fn.Cfg.fn_call_sites)
    p.Cfg.prog_fns;
  { program = p; names; index; direct_arcs; indirect_by_caller;
    address_taken = address_census p;
    main_index = Hashtbl.find_opt index "main" }

(* All functions whose address is taken, with their census counts. *)
let address_taken_list (g : t) : (string * int) list =
  Hashtbl.fold (fun name n acc -> (name, n) :: acc) g.address_taken []
  |> List.sort compare

let total_address_taken (g : t) : int =
  Hashtbl.fold (fun _ n acc -> acc + n) g.address_taken 0

(* Direct-recursion check used by the [direct] simple estimator. *)
let directly_recursive (g : t) (i : int) : bool =
  Hashtbl.mem g.direct_arcs (i, i)

(* SCC analysis of the direct-call graph. *)
let sccs (g : t) : Scc.result = Scc.compute (n_nodes g) (succs g)

let in_recursion (g : t) : bool array =
  let r = sccs g in
  Array.init (n_nodes g) (fun i -> Scc.in_cycle r (succs g) i)
