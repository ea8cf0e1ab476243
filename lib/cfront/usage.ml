(* Def/use summaries feeding the paper's "store" branch heuristic:

     "When one arm of a conditional construct writes to variables read
      elsewhere, that arm is more likely."

   We identify variables by their resolution (local slot or global name),
   count reads per function, and expose (a) the variables directly written
   by a statement subtree and (b) whether a variable is read outside a
   given subtree. *)

type var_key = Vlocal of int | Vglobal of string

let var_key_of tc (e : Ast.expr) : var_key option =
  match e.Ast.enode with
  | Ast.Ident _ -> begin
    match Typecheck.resolution_of tc e with
    | Some (Typecheck.Rlocal slot) -> Some (Vlocal slot)
    | Some (Typecheck.Rglobal g) -> Some (Vglobal g)
    | _ -> None
  end
  | _ -> None

(* The root variable of an lvalue expression: [x] and [x.f] write [x];
   [arr[i]] writes [arr] when [arr] is declared as an array; writes
   through pointers ([*p], [p->f], [p[i]] for pointer p) hit an unknown
   object and are ignored. Local array declarations cannot be identified
   without the enclosing function's slot table, so they are conservatively
   treated like pointers — the heuristic only loses a little recall. *)
let rec lvalue_root tc (e : Ast.expr) : var_key option =
  match e.Ast.enode with
  | Ast.Ident _ -> var_key_of tc e
  | Ast.Field (a, _) -> lvalue_root tc a
  | Ast.Index (a, _) -> begin
    match a.Ast.enode with
    | Ast.Ident _ -> begin
      match Typecheck.resolution_of tc a with
      | Some (Typecheck.Rglobal g) -> begin
        match (Hashtbl.find tc.Typecheck.globals g).Ast.d_ty with
        | Ctypes.Tarray _ -> Some (Vglobal g)
        | _ -> None
      end
      | _ -> None
    end
    | _ -> None
  end
  | _ -> None

(* Variables directly written anywhere inside statement [s]. *)
let writes_of_stmt tc (s : Ast.stmt) : var_key list =
  let acc = ref [] in
  Ast.iter_stmt s
    ~on_stmt:(fun _ -> ())
    ~on_expr:(fun (x : Ast.expr) ->
      match x.Ast.enode with
      | Ast.Assign (_, lhs, _) | Ast.PreIncr lhs | Ast.PreDecr lhs
      | Ast.PostIncr lhs | Ast.PostDecr lhs -> begin
        match lvalue_root tc lhs with
        | Some k -> acc := k :: !acc
        | None -> ()
      end
      | _ -> ());
  !acc

type t = {
  tc : Typecheck.t;
  fun_reads : (var_key, int) Hashtbl.t; (* read counts over the function *)
}

let count tbl k =
  Hashtbl.replace tbl k (1 + Option.value ~default:0 (Hashtbl.find_opt tbl k))

let reads_into tc tbl (root : Ast.stmt) =
  Ast.iter_stmt root
    ~on_stmt:(fun _ -> ())
    ~on_expr:(fun (x : Ast.expr) ->
      (* Every identifier occurrence counts as a read. Pure-store LHS
         identifiers are also counted; the heuristic tolerates this
         over-approximation. *)
      match var_key_of tc x with
      | Some k -> count tbl k
      | None -> ())

let of_fun (tc : Typecheck.t) (f : Ast.fundef) : t =
  let fun_reads = Hashtbl.create 32 in
  reads_into tc fun_reads f.Ast.f_body;
  { tc; fun_reads }

(* Is [k] read outside the statement subtree [s]? Computed by subtracting
   the subtree's read counts from the function's. *)
let read_outside (u : t) (s : Ast.stmt) (k : var_key) : bool =
  let inside = Hashtbl.create 8 in
  reads_into u.tc inside s;
  let total = Option.value ~default:0 (Hashtbl.find_opt u.fun_reads k) in
  let within = Option.value ~default:0 (Hashtbl.find_opt inside k) in
  total - within > 0

(* Does any variable in [writes] satisfy [read_outside]? *)
let any_write_read_outside (u : t) (s : Ast.stmt) (writes : var_key list) =
  List.exists (read_outside u s) writes
