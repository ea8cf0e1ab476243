(* Closure-compiled back end for the profiling interpreter.

   [Eval] walks the typed AST for every executed instruction, re-querying
   the typechecker's side tables ([Typecheck.type_of], resolutions), the
   struct registry ([Ctypes.size_of], field offsets) and the call-site
   hashtable on each visit. Profiling is this reproduction's substitute
   for the paper's gcc instrumentation runs, so that walk dominates suite
   wall time.

   This module lowers each CFG block once into OCaml closures with
   everything resolvable at compile time pre-resolved:

   - expression types, element sizes and field offsets are baked into the
     closures (no side-table lookups at run time);
   - integer work is unboxed. [compile] makes, once per node and bottom
     up, an int closure for an expression that always yields a [Vint]
     (constants, int and char frame slots, integral arithmetic, shifts,
     bitwise operators, assignments and [++]/[--] to int slots), a bool
     closure for comparisons and [!]/[&&]/[||], and a [Value.value]
     closure otherwise. A value operand of an int operator is matched
     against [Vint]; anything else takes the boxed operator, which raises
     exactly as [Eval] does. Loads from [Memory] are never assumed to be
     ints: [memcpy] can put a pointer or a double in an int cell;
   - locals are addressed by pre-computed slot index. The slot rule
     ([Eval.needs_block]) runs once per function: int and char locals it
     keeps in the frame live unboxed in [ivals], doubles and pointers in
     [vals], and only the slots it marks get a [Memory] block, allocated
     in slot order as under [Eval];
   - [a[i]] and [p->f] reach memory through [Memory.load_at]/[store_at]
     with a (base, delta) pair, so no pointer record is built per access;
   - globals are addressed by a dense index into a per-run pointer array
     instead of a name hashtable;
   - string literals get a per-literal cache slot (still allocated lazily,
     in first-execution order, so the block store evolves exactly as under
     [Eval]);
   - direct call targets and builtin dispatch are looked up ahead of time,
     each call site carries its profile counter index, and arguments are
     passed in an array, evaluated left to right;
   - each block is one closure that checks the budgets, counts itself,
     runs its instructions and tail-calls its successor's closure, so the
     profiling hot loop is closure application plus counter bumps. The
     work count is the fuel spent, read once at the end;
   - a call deeper than [Eval.max_call_depth] raises [Eval]'s error.

   The contract with [Eval] is strict: identical evaluation order,
   identical diagnostics (the [Value.Runtime_error] messages are the
   same), identical memory-block allocation order (block ids are
   observable through pointer comparisons), and therefore bit-identical
   [Profile.t] counters. [test/test_compile.ml] enforces this
   differentially over the whole suite. *)

module Ast = Cfront.Ast
module Cfg = Cfg_ir.Cfg
module Ctypes = Cfront.Ctypes
module Typecheck = Cfront.Typecheck

exception Error = Value.Runtime_error

(* ------------------------------------------------------------------ *)
(* Per-run state. Everything here is created by [run]; the compiled
   closures are shared across runs (and domains) and never mutated. *)

type state = {
  mem : Memory.t;
  bctx : Builtins.ctx;
  globals : Value.ptr array;            (* by [global_order] position *)
  string_cache : Value.value array; (* by literal; [Vint 0] until used *)
  strings : (string, Value.ptr) Hashtbl.t;
      (* content-keyed intern table, shared with argv strings so literal
         and argv interning interleave exactly as under [Eval] *)
  fcounters : Profile.fn_counters array;(* by [cfn.c_index] *)
  profile : Profile.t;
  mutable fuel : int;
  mutable depth : int;                  (* active C calls *)
  mutable peak_depth : int;             (* the most [depth] has been *)
  deadline : float; (* absolute gettimeofday seconds; [infinity] = none *)
  mutable clock_tick : int; (* blocks until the next wall-clock read *)
}

(* Where the slot rule puts each local, by position in the frame array
   that holds it: unboxed int/char slots, boxed double/pointer slots, or
   a [Memory] block. *)
type slot = Sint of int | Sval of int | Smem of int

type frame = {
  ivals : int array;
  vals : Value.value array;
  locals : Value.ptr array; (* the [Smem] blocks, in slot order *)
  fc : Profile.fn_counters; (* the running function's counters *)
}

type ev = state -> frame -> Value.value   (* compiled expression *)
type iv = state -> frame -> int
type bv = state -> frame -> bool
type lv = state -> frame -> Value.ptr     (* compiled lvalue *)

(* What [compile] makes of one expression: an [Int] always yields a
   [Vint], a [Bool] always [Vint 0] or [Vint 1]. *)
type code = Int of iv | Bool of bv | Val of ev

(* A binary operator with its operand types resolved. [Oint (fast,
   slow)] always yields an int: [fast] on two ints, [slow] on any two
   values, raising as [Eval.apply_binop] does. [Obool] likewise for
   comparisons. *)
type op =
  | Oint of (int -> int -> int) * (Value.value -> Value.value -> int)
  | Obool of (int -> int -> bool) * (Value.value -> Value.value -> bool)
  | Oval of (Value.value -> Value.value -> Value.value)

(* ------------------------------------------------------------------ *)
(* Compiled program representation. *)

type cfn = {
  c_name : string;
  c_index : int;                        (* position in [prog_fns] *)
  c_entry : int;
  c_code : ev array;                    (* per block, filled in phase 2 *)
  c_slots : slot array;                 (* the slot rule, placed *)
  c_n_ints : int;
  c_n_vals : int;
  c_mem_sizes : int array;              (* per [locals] entry *)
  c_mem_tags : string array;
  c_bind_params : (state -> frame -> Value.value -> unit) array;
  c_coerce_ret : Value.value -> Value.value;
}

type prog = {
  p_src : Cfg.program;
  p_fns : (string, cfn) Hashtbl.t;
  p_fn_list : cfn array;                (* [prog_fns] order *)
  p_main : cfn option;
  p_main_arity : int;                   (* 0, 2, or -1 (unsupported) *)
  p_global_sizes : int array;
  p_global_tags : string array;
  p_global_inits : (int * (state -> frame -> Value.ptr -> unit)) list;
      (* (global index, initializer writer), declaration order *)
  p_n_strings : int;
}

(* ------------------------------------------------------------------ *)
(* Runtime helpers shared by the compiled closures. *)

let intern_rt (st : state) (s : string) : Value.ptr =
  match Hashtbl.find_opt st.strings s with
  | Some p -> p
  | None ->
    let p = Memory.alloc st.mem (String.length s + 1) ~tag:"string literal" in
    Memory.write_cstring st.mem p s;
    Hashtbl.replace st.strings s p;
    p

let vzero = Value.Vint 0
let vone = Value.Vint 1

(* [Eval.coerce] into an int or char object, unboxed. *)
let wrap char n = if char then Value.wrap8 n else Value.wrap32 n

let coerce_int (ty : Ctypes.ty) (v : Value.value) : int =
  (* [coerce] yields a [Vint] for int and char, or raises *)
  Value.int_of (Eval.coerce ty v)

(* Fresh frame arrays. Small ones are built inline: [Array.make] is a C
   call, and without these p50 of a suite pass rose 12%
   (EXPERIMENTS.md, "One path per choice"). *)
let make_ints = function
  | 0 -> [||]
  | 1 -> [| 0 |]
  | 2 -> [| 0; 0 |]
  | 3 -> [| 0; 0; 0 |]
  | 4 -> [| 0; 0; 0; 0 |]
  | n -> Array.make n 0

let make_vals = function
  | 0 -> [||]
  | 1 -> [| vzero |]
  | 2 -> [| vzero; vzero |]
  | 3 -> [| vzero; vzero; vzero |]
  | n -> Array.make n vzero

let to_ev : code -> ev = function
  | Val ce -> ce
  | Int ci -> fun st fr -> Value.Vint (ci st fr)
  | Bool cb -> fun st fr -> if cb st fr then vone else vzero

let to_bv : code -> bv = function
  | Bool cb -> cb
  | Int ci -> fun st fr -> ci st fr <> 0
  | Val ce -> fun st fr -> Value.to_bool (ce st fr)

(* The int where the boxed code calls [Value.int_of]. *)
let to_iv : code -> iv = function
  | Int ci -> ci
  | Bool cb -> fun st fr -> if cb st fr then 1 else 0
  | Val ce -> fun st fr -> Value.int_of (ce st fr)

let effect : code -> state -> frame -> unit = function
  | Int ci -> fun st fr -> ignore (ci st fr)
  | Bool cb -> fun st fr -> ignore (cb st fr)
  | Val ce -> fun st fr -> ignore (ce st fr)

(* An operator over two compiled operands, [a] evaluated first. An
   operand that is not a sure int is matched against [Vint]; any other
   value goes, with its partner, to [slow]. *)
let fuse (fast : int -> int -> 'r) (slow : Value.value -> Value.value -> 'r)
    (ka : code) (kb : code) : state -> frame -> 'r =
  match (ka, kb) with
  | (Int _ | Bool _), (Int _ | Bool _) ->
    let ia = to_iv ka and ib = to_iv kb in
    fun st fr ->
      let x = ia st fr in
      fast x (ib st fr)
  | (Int _ | Bool _), Val cb ->
    let ia = to_iv ka in
    fun st fr ->
      let x = ia st fr in
      (match cb st fr with
      | Value.Vint y -> fast x y
      | vb -> slow (Value.Vint x) vb)
  | Val ca, (Int _ | Bool _) ->
    let ib = to_iv kb in
    fun st fr ->
      let va = ca st fr in
      let y = ib st fr in
      (match va with
      | Value.Vint x -> fast x y
      | _ -> slow va (Value.Vint y))
  | Val ca, Val cb ->
    fun st fr ->
      let va = ca st fr in
      let vb = cb st fr in
      (match (va, vb) with
      | Value.Vint x, Value.Vint y -> fast x y
      | _ -> slow va vb)

let boxed_op : op -> Value.value -> Value.value -> Value.value = function
  | Oint (_, slow) -> fun va vb -> Value.Vint (slow va vb)
  | Obool (_, slow) -> fun va vb -> if slow va vb then vone else vzero
  | Oval app -> app

(* Arguments into a fresh array, left to right. Up to three are built
   inline, and a function with no [Memory] locals gets the shared empty
   array: [Array.make] is a C call, and building these two per-call
   arrays inline cut a suite pass's CPU by about 8% (EXPERIMENTS.md,
   "One path per choice"). *)
let compile_args : ev list -> state -> frame -> Value.value array = function
  | [] -> fun _ _ -> [||]
  | [ a ] -> fun st fr -> [| a st fr |]
  | [ a; b ] -> fun st fr -> let x = a st fr in [| x; b st fr |]
  | [ a; b; c ] ->
    fun st fr -> let x = a st fr in let y = b st fr in [| x; y; c st fr |]
  | cargs ->
    let cargs = Array.of_list cargs in
    fun st fr ->
      let argv = Array.make (Array.length cargs) vzero in
      for i = 0 to Array.length cargs - 1 do
        argv.(i) <- cargs.(i) st fr
      done;
      argv

let alloc_locals (st : state) (cf : cfn) : Value.ptr array =
  let sizes = cf.c_mem_sizes and tags = cf.c_mem_tags in
  match Array.length sizes with
  | 0 -> [||]
  | 1 -> [| Memory.alloc st.mem sizes.(0) ~tag:tags.(0) |]
  | n ->
    let locals = Array.make n Eval.no_block in
    for k = 0 to n - 1 do
      locals.(k) <- Memory.alloc st.mem sizes.(k) ~tag:tags.(k)
    done;
    locals

(* Mirror of [Eval.exec_fn]: check the call depth, allocate the blocks
   the slot rule asks for (same order, same tags), bind parameters, run
   the blocks, kill those blocks, coerce the result. *)
let call_fn (st : state) (cf : cfn) (args : Value.value array) : Value.value =
  if st.depth >= Eval.max_call_depth then Eval.call_too_deep ();
  let locals = alloc_locals st cf in
  let fr =
    { ivals = make_ints cf.c_n_ints; vals = make_vals cf.c_n_vals; locals;
      fc = st.fcounters.(cf.c_index) }
  in
  let bind = cf.c_bind_params in
  for i = 0 to Array.length args - 1 do
    bind.(i) st fr args.(i)
  done;
  st.depth <- st.depth + 1;
  if st.depth > st.peak_depth then st.peak_depth <- st.depth;
  let result = cf.c_code.(cf.c_entry) st fr in
  st.depth <- st.depth - 1;
  for k = 0 to Array.length locals - 1 do
    Memory.kill st.mem locals.(k)
  done;
  cf.c_coerce_ret result

(* ------------------------------------------------------------------ *)
(* Compile-time environment. *)

type cenv = {
  tc : Typecheck.t;
  reg : Ctypes.registry;
  site_of_expr : (Ast.node_id, int) Hashtbl.t;
  fns : (string, cfn) Hashtbl.t;
  global_index : (string, int) Hashtbl.t;
  string_index : (string, int) Hashtbl.t;
  mutable n_strings : int;
  mutable fn_info : Typecheck.fun_info option; (* function being compiled *)
  mutable slots : slot array; (* its slot placement *)
}

let ty_of (env : cenv) (e : Ast.expr) : Ctypes.ty =
  Typecheck.type_of env.tc e

let size_of (env : cenv) (t : Ctypes.ty) : int =
  try Ctypes.size_of env.reg t
  with Ctypes.Type_error m -> Value.error "%s" m

let pointee (env : cenv) (e : Ast.expr) : Ctypes.ty option =
  match ty_of env e with Ctypes.Tptr t -> Some t | _ -> None

let local_ty (env : cenv) (slot : int) : Ctypes.ty =
  match env.fn_info with
  | Some fi -> fi.Typecheck.fi_locals.(slot).Typecheck.l_ty
  | None -> Value.error "local reference outside a function"

let is_aggregate = function
  | Ctypes.Tstruct _ | Ctypes.Tarray _ -> true
  | _ -> false

(* The frame or memory slot a local names, if [e] names a local. *)
let slot_of (env : cenv) (e : Ast.expr) : slot option =
  match e.Ast.enode with
  | Ast.Ident _ -> begin
    match Typecheck.resolution_of env.tc e with
    | Some (Typecheck.Rlocal slot) -> Some env.slots.(slot)
    | _ -> None
  end
  | _ -> None

let string_idx (env : cenv) (s : string) : int =
  match Hashtbl.find_opt env.string_index s with
  | Some i -> i
  | None ->
    let i = env.n_strings in
    Hashtbl.replace env.string_index s i;
    env.n_strings <- i + 1;
    i

(* The undecayed type of the object designated by an Index/Field/Arrow
   lvalue (compile-time mirror of [Eval.designated_ty]). *)
let designated_ty (env : cenv) (e : Ast.expr) : Ctypes.ty =
  match e.Ast.enode with
  | Ast.Index (a, i) -> begin
    match (ty_of env a, ty_of env i) with
    | Ctypes.Tptr t, _ -> t
    | _, Ctypes.Tptr t -> t
    | t, _ -> Value.error "indexing %s" (Ctypes.to_string t)
  end
  | Ast.Field (a, fname) -> begin
    match ty_of env a with
    | Ctypes.Tstruct si -> (Ctypes.find_field env.reg si fname).Ctypes.fld_ty
    | t -> Value.error ".%s on %s" fname (Ctypes.to_string t)
  end
  | Ast.Arrow (a, fname) -> begin
    match ty_of env a with
    | Ctypes.Tptr (Ctypes.Tstruct si) ->
      (Ctypes.find_field env.reg si fname).Ctypes.fld_ty
    | t -> Value.error "->%s on %s" fname (Ctypes.to_string t)
  end
  | _ -> ty_of env e

(* Store a compiled value into int slot [k] as [Eval.coerce ty] would,
   and yield it. *)
let assign_int (ty : Ctypes.ty) (k : int) (code : code) : iv =
  let char = ty = Ctypes.Tchar in
  match code with
  | Int _ | Bool _ ->
    let ci = to_iv code in
    fun st fr ->
      let v = wrap char (ci st fr) in
      fr.ivals.(k) <- v;
      v
  | Val ce ->
    fun st fr ->
      let v = coerce_int ty (ce st fr) in
      fr.ivals.(k) <- v;
      v

(* The same for a double or pointer slot. *)
let assign_val (ty : Ctypes.ty) (k : int) (code : code) : ev =
  let ce = to_ev code in
  fun st fr ->
    let v = Eval.coerce ty (ce st fr) in
    fr.vals.(k) <- v;
    v

let const (n : int) : code = Int (fun _ _ -> n)

(* An address that needs no delta. *)
let no_delta : iv = fun _ _ -> 0

(* ------------------------------------------------------------------ *)
(* Expression compilation. Each function returns a closure; all matches
   on types/resolutions happen here, once. *)

let rec compile (env : cenv) (e : Ast.expr) : code =
  match e.Ast.enode with
  | Ast.IntLit n -> const (Value.wrap32 n)
  | Ast.CharLit c -> const c
  | Ast.FloatLit f ->
    let v = Value.Vfloat f in
    Val (fun _ _ -> v)
  | Ast.StringLit s ->
    let idx = string_idx env s in
    Val
      (fun st _ ->
        match st.string_cache.(idx) with
        | Value.Vptr _ as v -> v
        | _ ->
          let v = Value.Vptr (intern_rt st s) in
          st.string_cache.(idx) <- v;
          v)
  | Ast.Ident _ -> compile_ident env e
  | Ast.Unop (op, a) -> compile_unop env op a
  | Ast.Binop (op, a, b) -> compile_binop env op a b
  | Ast.Assign (op, lhs, rhs) -> compile_assign env op lhs rhs
  | Ast.Cond (c, a, b) -> begin
    let cc = compile_cond env c in
    match (compile env a, compile env b) with
    | ((Int _ | Bool _) as ka), ((Int _ | Bool _) as kb)
      ->
      let ia = to_iv ka and ib = to_iv kb in
      Int (fun st fr -> if cc st fr then ia st fr else ib st fr)
    | ka, kb ->
      let ca = to_ev ka and cb = to_ev kb in
      Val (fun st fr -> if cc st fr then ca st fr else cb st fr)
  end
  | Ast.Call (fn, args) -> Val (compile_call env e fn args)
  | Ast.Cast (ty, a) -> begin
    let k = compile env a in
    match (ty, k) with
    | Ctypes.Tvoid, _ ->
      let ea = effect k in
      Int (fun st fr -> ea st fr; 0)
    | Ctypes.Tptr _, _ ->
      let ca = to_ev k in
      Val
        (fun st fr ->
          let v = ca st fr in
          if Value.is_null v then vzero else v)
    | (Ctypes.Tint | Ctypes.Tchar), (Int _ | Bool _) ->
      let char = ty = Ctypes.Tchar and ia = to_iv k in
      Int (fun st fr -> wrap char (ia st fr))
    | (Ctypes.Tint | Ctypes.Tchar), Val ca ->
      Int (fun st fr -> coerce_int ty (ca st fr))
    | _ ->
      let ca = to_ev k in
      Val (fun st fr -> Eval.coerce ty (ca st fr))
  end
  | Ast.Index _ | Ast.Field _ | Ast.Arrow _ ->
    Val (compile_load env (designated_ty env e) e)
  | Ast.SizeofT ty -> const (size_of env ty)
  | Ast.SizeofE a -> const (size_of env (ty_of env a))
  | Ast.PreIncr a -> compile_incr_decr env a ~delta:1 ~pre:true
  | Ast.PreDecr a -> compile_incr_decr env a ~delta:(-1) ~pre:true
  | Ast.PostIncr a -> compile_incr_decr env a ~delta:1 ~pre:false
  | Ast.PostDecr a -> compile_incr_decr env a ~delta:(-1) ~pre:false
  | Ast.Comma (a, b) -> begin
    let ea = effect (compile env a) in
    match compile env b with
    | Int ib -> Int (fun st fr -> ea st fr; ib st fr)
    | Bool bb -> Bool (fun st fr -> ea st fr; bb st fr)
    | Val cb -> Val (fun st fr -> ea st fr; cb st fr)
  end

and compile_expr (env : cenv) (e : Ast.expr) : ev = to_ev (compile env e)
and compile_cond (env : cenv) (e : Ast.expr) : bv = to_bv (compile env e)

(* Load through a pre-resolved declared type: aggregates evaluate to their
   address, scalars to the stored cell. *)
and compile_load (env : cenv) (ty : Ctypes.ty) (e : Ast.expr) : ev =
  if is_aggregate ty then
    let loc = compile_lvalue env e in
    fun st fr -> Value.Vptr (loc st fr)
  else
    let base, delta = compile_addr env e in
    fun st fr ->
      let b = base st fr in
      Memory.load_at st.mem b (delta st fr)

and compile_ident (env : cenv) (e : Ast.expr) : code =
  match Typecheck.resolution_of env.tc e with
  | Some (Typecheck.Renum v) -> const v
  | Some (Typecheck.Rfun name) ->
    let v = Value.Vfun (Value.Fuser name) in
    Val (fun _ _ -> v)
  | Some (Typecheck.Rbuiltin name) ->
    let v = Value.Vfun (Value.Fbuiltin name) in
    Val (fun _ _ -> v)
  | Some (Typecheck.Rlocal slot) -> begin
    match env.slots.(slot) with
    | Sint k -> Int (fun _ fr -> fr.ivals.(k))
    | Sval k -> Val (fun _ fr -> fr.vals.(k))
    | Smem k when is_aggregate (local_ty env slot) ->
      Val (fun _ fr -> Value.Vptr fr.locals.(k))
    | Smem k -> Val (fun st fr -> Memory.load st.mem fr.locals.(k))
  end
  | Some (Typecheck.Rglobal gname) -> begin
    let d = Hashtbl.find env.tc.Typecheck.globals gname in
    match Hashtbl.find_opt env.global_index gname with
    | None -> Val (fun _ _ -> Value.error "global %s has no storage" gname)
    | Some gi when is_aggregate d.Ast.d_ty ->
      Val (fun st _ -> Value.Vptr st.globals.(gi))
    | Some gi -> Val (fun st _ -> Memory.load st.mem st.globals.(gi))
  end
  | None ->
    let msg =
      Printf.sprintf "unresolved identifier at %s"
        (Format.asprintf "%a" Cfront.Token.pp_pos e.Ast.epos)
    in
    Val (fun _ _ -> raise (Error msg))

(* The object an lvalue designates, as [(base, delta)]: it is
   [Memory.offset base delta], with [base] evaluated first. *)
and compile_addr (env : cenv) (e : Ast.expr) : lv * iv =
  match e.Ast.enode with
  | Ast.Ident name -> begin
    match Typecheck.resolution_of env.tc e with
    | Some (Typecheck.Rlocal slot) -> begin
      match env.slots.(slot) with
      | Smem k -> ((fun _ fr -> fr.locals.(k)), no_delta)
      | Sint _ | Sval _ -> ((fun _ _ -> Eval.no_address name), no_delta)
    end
    | Some (Typecheck.Rglobal gname) -> begin
      match Hashtbl.find_opt env.global_index gname with
      | Some gi -> ((fun st _ -> st.globals.(gi)), no_delta)
      | None ->
        ((fun _ _ -> Value.error "global %s has no storage" gname), no_delta)
    end
    | _ -> ((fun _ _ -> Value.error "%s is not an object" name), no_delta)
  end
  | Ast.Unop (Ast.Uderef, a) -> (compile_ptr env a, no_delta)
  | Ast.Index (a, i) ->
    (* Mirror [Eval.eval_lvalue]: when [a] is the pointer, evaluate the
       base from [a] and the index from [i]; otherwise the reversed
       [i[a]] form evaluates the base from [i] first. *)
    let base, elt, idx =
      match ty_of env a with
      | Ctypes.Tptr t -> (a, t, i)
      | _ -> (i, Option.get (pointee env i), a)
    in
    let base = compile_ptr env base in
    let scale = size_of env elt in
    let idx = to_iv (compile env idx) in
    (base, if scale = 1 then idx else fun st fr -> idx st fr * scale)
  | Ast.Field (a, fname) -> begin
    match ty_of env a with
    | Ctypes.Tstruct si ->
      let off = (Ctypes.find_field env.reg si fname).Ctypes.fld_offset in
      let base, delta = compile_addr env a in
      if delta == no_delta then (base, fun _ _ -> off)
      else (base, fun st fr -> delta st fr + off)
    | t ->
      let msg = Printf.sprintf ".%s on %s" fname (Ctypes.to_string t) in
      ((fun _ _ -> raise (Error msg)), no_delta)
  end
  | Ast.Arrow (a, fname) -> begin
    match ty_of env a with
    | Ctypes.Tptr (Ctypes.Tstruct si) ->
      let off = (Ctypes.find_field env.reg si fname).Ctypes.fld_offset in
      (compile_ptr env a, fun _ _ -> off)
    | t ->
      let msg = Printf.sprintf "->%s on %s" fname (Ctypes.to_string t) in
      ((fun _ _ -> raise (Error msg)), no_delta)
  end
  | _ -> ((fun _ _ -> Value.error "expression is not an lvalue"), no_delta)

and compile_lvalue (env : cenv) (e : Ast.expr) : lv =
  let base, delta = compile_addr env e in
  if delta == no_delta then base
  else fun st fr ->
    let b = base st fr in
    Memory.offset b (delta st fr)

(* An expression that must yield a pointer. An aggregate local or global
   yields its block directly, without a [Vptr] box. *)
and compile_ptr (env : cenv) (e : Ast.expr) : lv =
  let aggregate =
    match (e.Ast.enode, Typecheck.resolution_of env.tc e) with
    | Ast.Ident _, Some (Typecheck.Rlocal slot) ->
      is_aggregate (local_ty env slot)
    | Ast.Ident _, Some (Typecheck.Rglobal g) ->
      is_aggregate (Hashtbl.find env.tc.Typecheck.globals g).Ast.d_ty
    | _ -> false
  in
  if aggregate then fst (compile_addr env e)
  else
    let ce = compile_expr env e in
    fun st fr -> begin
      match ce st fr with
      | Value.Vptr p -> p
      | Value.Vint 0 -> Value.error "null pointer dereference"
      | v -> Value.error "expected a pointer, got %s" (Value.to_string v)
    end

and compile_unop (env : cenv) (op : Ast.unop) (a : Ast.expr) : code =
  match op with
  | Ast.Uplus -> compile env a
  | Ast.Uneg -> begin
    match compile env a with
    | (Int _ | Bool _) as k ->
      let ia = to_iv k in
      Int (fun st fr -> Value.wrap32 (-ia st fr))
    | Val ca ->
      Val
        (fun st fr ->
          match ca st fr with
          | Value.Vint n -> Value.Vint (Value.wrap32 (-n))
          | Value.Vfloat f -> Value.Vfloat (-.f)
          | v -> Value.error "cannot negate %s" (Value.to_string v))
  end
  | Ast.Unot ->
    let ca = compile_cond env a in
    Bool (fun st fr -> not (ca st fr))
  | Ast.Ubnot ->
    let ia = to_iv (compile env a) in
    Int (fun st fr -> Value.wrap32 (lnot (ia st fr)))
  | Ast.Uderef -> begin
    match ty_of env a with
    | Ctypes.Tptr (Ctypes.Tfun _) -> compile env a
    | Ctypes.Tptr t ->
      let p = compile_ptr env a in
      if is_aggregate t then Val (fun st fr -> Value.Vptr (p st fr))
      else Val (fun st fr -> Memory.load st.mem (p st fr))
    | t ->
      let msg = Printf.sprintf "dereferencing %s" (Ctypes.to_string t) in
      Val (fun _ _ -> raise (Error msg))
  end
  | Ast.Uaddr -> begin
    match a.Ast.enode with
    | Ast.Ident _
      when (match Typecheck.resolution_of env.tc a with
           | Some (Typecheck.Rfun _ | Typecheck.Rbuiltin _) -> true
           | _ -> false) ->
      compile env a
    | _ ->
      let loc = compile_lvalue env a in
      Val (fun st fr -> Value.Vptr (loc st fr))
  end

and compile_binop (env : cenv) (op : Ast.binop) (a : Ast.expr) (b : Ast.expr)
    : code =
  let ka = compile env a in
  let kb = compile env b in
  match op with
  | Ast.Bland ->
    let ca = to_bv ka and cb = to_bv kb in
    Bool (fun st fr -> ca st fr && cb st fr)
  | Ast.Blor ->
    let ca = to_bv ka and cb = to_bv kb in
    Bool (fun st fr -> ca st fr || cb st fr)
  | _ -> begin
    match compile_apply_binop env ~ta:(ty_of env a) ~tb:(ty_of env b) op with
    | Oint (fast, slow) -> Int (fuse fast slow ka kb)
    | Obool (fast, slow) -> Bool (fuse fast slow ka kb)
    | Oval app ->
      let ca = to_ev ka and cb = to_ev kb in
      Val (fun st fr -> let va = ca st fr in app va (cb st fr))
  end

(* Specialized [Eval.apply_binop]: the type dispatch, element sizes and
   float-context decision happen at compile time. Each [slow] keeps the
   boxed code's order of conversions: for [/] and [%], the zero check
   comes before the left operand is converted. *)
and compile_apply_binop (env : cenv) ~(ta : Ctypes.ty) ~(tb : Ctypes.ty)
    (op : Ast.binop) : op =
  let int_op fast f =
    Oint
      (fast, fun va vb -> Value.wrap32 (f (Value.int_of va) (Value.int_of vb)))
  in
  let float_ctx = ta = Ctypes.Tdouble || tb = Ctypes.Tdouble in
  let arith fast fint ffloat =
    if float_ctx then
      Oval
        (fun va vb ->
          Value.Vfloat (ffloat (Value.float_of va) (Value.float_of vb)))
    else int_op fast fint
  in
  let compare_with (lt : int -> int -> bool) =
    let slow va vb =
      match (va, vb) with
      | Value.Vptr p, Value.Vptr q ->
        if p.Value.blk <> q.Value.blk then
          lt (compare p.Value.blk q.Value.blk) 0
        else lt (compare p.Value.off q.Value.off) 0
      | Value.Vptr _, Value.Vint 0 -> lt 1 0
      | Value.Vint 0, Value.Vptr _ -> lt (-1) 0
      | _ ->
        if float_ctx then
          lt (compare (Value.float_of va) (Value.float_of vb)) 0
        else lt (compare (Value.int_of va) (Value.int_of vb)) 0
    in
    let fast =
      if float_ctx then fun x y ->
        lt (compare (float_of_int x) (float_of_int y)) 0
      else lt
    in
    Obool (fast, slow)
  in
  let divide msg f =
    let check d = if d = 0 then Value.error "%s" msg in
    Oint
      ( (fun x d -> check d; Value.wrap32 (f x d)),
        fun va vb ->
          let d = Value.int_of vb in
          check d;
          Value.wrap32 (f (Value.int_of va) d) )
  in
  match op with
  | Ast.Badd -> begin
    match (ta, tb) with
    | Ctypes.Tptr t, _ ->
      let sz = size_of env t in
      Oval
        (fun va vb ->
          let p = Eval.expect_ptr_value va in
          Value.Vptr (Memory.offset p (Value.int_of vb * sz)))
    | _, Ctypes.Tptr t ->
      let sz = size_of env t in
      Oval
        (fun va vb ->
          let p = Eval.expect_ptr_value vb in
          Value.Vptr (Memory.offset p (Value.int_of va * sz)))
    | _ -> arith (fun x y -> Value.wrap32 (x + y)) ( + ) ( +. )
  end
  | Ast.Bsub -> begin
    match (ta, tb) with
    | Ctypes.Tptr t, Ctypes.Tptr _ ->
      let sz = size_of env t in
      Oval
        (fun va vb ->
          match (va, vb) with
          | Value.Vptr p, Value.Vptr q when p.Value.blk = q.Value.blk ->
            Value.Vint ((p.Value.off - q.Value.off) / sz)
          | Value.Vptr _, Value.Vptr _ ->
            Value.error "subtracting pointers into different objects"
          | _ -> Value.error "pointer subtraction on non-pointers")
    | Ctypes.Tptr t, _ ->
      let sz = size_of env t in
      Oval
        (fun va vb ->
          let p = Eval.expect_ptr_value va in
          Value.Vptr (Memory.offset p (-Value.int_of vb * sz)))
    | _ -> arith (fun x y -> Value.wrap32 (x - y)) ( - ) ( -. )
  end
  | Ast.Bmul -> arith (fun x y -> Value.wrap32 (x * y)) ( * ) ( *. )
  | Ast.Bdiv when float_ctx ->
    Oval
      (fun va vb ->
        let d = Value.float_of vb in
        if d = 0.0 then Value.error "floating division by zero";
        Value.Vfloat (Value.float_of va /. d))
  | Ast.Bdiv -> divide "division by zero" ( / )
  | Ast.Bmod -> divide "modulo by zero" ( mod )
  | Ast.Bshl ->
    let f x y = x lsl (y land 31) in
    int_op (fun x y -> Value.wrap32 (f x y)) f
  | Ast.Bshr ->
    let f x y = x asr (y land 31) in
    int_op (fun x y -> Value.wrap32 (f x y)) f
  | Ast.Bband -> int_op (fun x y -> Value.wrap32 (x land y)) ( land )
  | Ast.Bbor -> int_op (fun x y -> Value.wrap32 (x lor y)) ( lor )
  | Ast.Bbxor -> int_op (fun x y -> Value.wrap32 (x lxor y)) ( lxor )
  | Ast.Blt -> compare_with (fun c z -> c < z)
  | Ast.Bgt -> compare_with (fun c z -> c > z)
  | Ast.Ble -> compare_with (fun c z -> c <= z)
  | Ast.Bge -> compare_with (fun c z -> c >= z)
  | Ast.Beq -> Obool ((fun (x : int) y -> x = y), Value.equal_values)
  | Ast.Bne ->
    Obool
      ((fun (x : int) y -> x <> y), fun va vb -> not (Value.equal_values va vb))
  | Ast.Bland | Ast.Blor -> assert false (* handled by compile_binop *)

and compile_assign (env : cenv) (op : Ast.assign_op) (lhs : Ast.expr)
    (rhs : Ast.expr) : code =
  let tl = ty_of env lhs in
  match (op, tl) with
  | Ast.Aplain, Ctypes.Tstruct si ->
    let dst = compile_lvalue env lhs in
    let src = compile_expr env rhs in
    let size = (Ctypes.find env.reg si).Ctypes.str_size in
    Val
      (fun st fr ->
        let d = dst st fr in
        let s =
          match src st fr with
          | Value.Vptr p -> p
          | v -> Value.error "struct assignment from %s" (Value.to_string v)
        in
        Memory.blit st.mem ~src:s ~dst:d size;
        Value.Vptr d)
  | Ast.Aplain, _ -> begin
    let krhs = compile env rhs in
    match slot_of env lhs with
    | Some (Sint k) -> Int (assign_int tl k krhs)
    | Some (Sval k) -> Val (assign_val tl k krhs)
    | Some (Smem _) | None ->
      let crhs = to_ev krhs in
      let base, delta = compile_addr env lhs in
      Val
        (fun st fr ->
          let b = base st fr in
          let off = delta st fr in
          let v = Eval.coerce tl (crhs st fr) in
          Memory.store_at st.mem b off v;
          v)
  end
  | _, _ -> begin
    let bop = Option.get (Ast.binop_of_assign op) in
    (* the old value is read before [rhs] runs *)
    let krhs = compile env rhs in
    let bin = compile_apply_binop env ~ta:tl ~tb:(ty_of env rhs) bop in
    match (slot_of env lhs, bin) with
    | Some (Sint k), Oint (fast, slow) ->
      let char = tl = Ctypes.Tchar in
      let f = fuse fast slow (Int (fun _ fr -> fr.ivals.(k))) krhs in
      Int
        (fun st fr ->
          let v = wrap char (f st fr) in
          fr.ivals.(k) <- v;
          v)
    | Some (Sint k), _ ->
      let app = boxed_op bin and crhs = to_ev krhs in
      Int
        (fun st fr ->
          let old = Value.Vint fr.ivals.(k) in
          let vr = crhs st fr in
          let v = coerce_int tl (app old vr) in
          fr.ivals.(k) <- v;
          v)
    | Some (Sval k), _ ->
      let app = boxed_op bin and crhs = to_ev krhs in
      Val
        (fun st fr ->
          let old = fr.vals.(k) in
          let vr = crhs st fr in
          let v = Eval.coerce tl (app old vr) in
          fr.vals.(k) <- v;
          v)
    | (Some (Smem _) | None), _ ->
      let app = boxed_op bin and crhs = to_ev krhs in
      let base, delta = compile_addr env lhs in
      Val
        (fun st fr ->
          let b = base st fr in
          let off = delta st fr in
          let old = Memory.load_at st.mem b off in
          let vr = crhs st fr in
          let v = Eval.coerce tl (app old vr) in
          Memory.store_at st.mem b off v;
          v)
  end

and compile_incr_decr (env : cenv) (a : Ast.expr) ~(delta : int)
    ~(pre : bool) : code =
  let ty = ty_of env a in
  match slot_of env a with
  | Some (Sint k) ->
    let char = ty = Ctypes.Tchar in
    Int
      (fun _ fr ->
        let old = fr.ivals.(k) in
        let v = wrap char (old + delta) in
        fr.ivals.(k) <- v;
        if pre then v else old)
  | slot -> begin
    let fresh_of : Value.value -> Value.value =
      match ty with
      | Ctypes.Tptr t ->
        let d = delta * size_of env t in
        fun old -> begin
          match old with
          | Value.Vptr p -> Value.Vptr (Memory.offset p d)
          | Value.Vint 0 -> Value.error "arithmetic on a null pointer"
          | _ -> Eval.coerce ty (Value.Vint (Value.int_of old + delta))
        end
      | Ctypes.Tdouble ->
        let d = float_of_int delta in
        fun old -> Value.Vfloat (Value.float_of old +. d)
      | _ -> fun old -> Eval.coerce ty (Value.Vint (Value.int_of old + delta))
    in
    match slot with
    | Some (Sval k) ->
      Val
        (fun _ fr ->
          let old = fr.vals.(k) in
          let fresh = fresh_of old in
          fr.vals.(k) <- fresh;
          if pre then fresh else old)
    | _ ->
      let base, d = compile_addr env a in
      Val
        (fun st fr ->
          let b = base st fr in
          let off = d st fr in
          let old = Memory.load_at st.mem b off in
          let fresh = fresh_of old in
          Memory.store_at st.mem b off fresh;
          if pre then fresh else old)
  end

(* Calls: the site counter index, argument passing convention and callee
   dispatch are all resolved at compile time. *)
and compile_call (env : cenv) (e : Ast.expr) (fn_expr : Ast.expr)
    (args : Ast.expr list) : ev =
  let site = Hashtbl.find_opt env.site_of_expr e.Ast.eid in
  let cargs =
    List.map
      (fun (a : Ast.expr) ->
        match ty_of env a with
        | Ctypes.Tstruct _ ->
          let loc = compile_lvalue env a in
          fun st fr -> Value.Vptr (loc st fr)
        | _ -> compile_expr env a)
      args
  in
  let bump : state -> unit =
    match site with
    | Some cs_id ->
      fun st ->
        st.profile.Profile.site_counts.(cs_id) <-
          st.profile.Profile.site_counts.(cs_id) +. 1.0
    | None -> fun _ -> ()
  in
  let direct_resolution =
    match fn_expr.Ast.enode with
    | Ast.Ident _ -> Typecheck.resolution_of env.tc fn_expr
    | _ -> None
  in
  match direct_resolution with
  | Some (Typecheck.Rbuiltin name) ->
    fun st fr ->
      bump st;
      let argv = List.map (fun f -> f st fr) cargs in
      Builtins.call st.bctx name argv
  | Some (Typecheck.Rfun name) -> begin
    let argv = compile_args cargs in
    match Hashtbl.find_opt env.fns name with
    | Some target ->
      fun st fr ->
        bump st;
        call_fn st target (argv st fr)
    | None ->
      (* Prototype without definition: [Eval] still evaluates the
         arguments before failing the lookup. *)
      fun st fr ->
        bump st;
        let _argv = argv st fr in
        Value.error "call to undefined function %s" name
  end
  | _ ->
    let callee = compile_expr env fn_expr in
    let fns = env.fns in
    fun st fr -> begin
      bump st;
      let v = callee st fr in
      let argv = List.map (fun f -> f st fr) cargs in
      match v with
      | Value.Vfun (Value.Fbuiltin name) -> Builtins.call st.bctx name argv
      | Value.Vfun (Value.Fuser name) -> begin
        match Hashtbl.find_opt fns name with
        | Some target -> call_fn st target (Array.of_list argv)
        | None -> Value.error "call to undefined function %s" name
      end
      | v -> Value.error "calling a non-function value %s" (Value.to_string v)
    end

(* Initializer writers (compile-time mirror of [Eval.write_init]). *)
and compile_write_init (env : cenv) (ty : Ctypes.ty) (init : Ast.init) :
    state -> frame -> Value.ptr -> unit =
  match (ty, init) with
  | ( Ctypes.Tarray (Ctypes.Tchar, _),
      Ast.Iexpr { Ast.enode = Ast.StringLit s; _ } ) ->
    fun st _ loc -> Memory.write_cstring st.mem loc s
  | _, Ast.Iexpr e when Ctypes.is_scalar (Ctypes.decay ty) ->
    let ce = compile_expr env e in
    fun st fr loc -> Memory.store st.mem loc (Eval.coerce ty (ce st fr))
  | Ctypes.Tstruct si, Ast.Iexpr e ->
    let ce = compile_expr env e in
    let size = (Ctypes.find env.reg si).Ctypes.str_size in
    fun st fr loc -> begin
      match ce st fr with
      | Value.Vptr src -> Memory.blit st.mem ~src ~dst:loc size
      | v -> Value.error "struct initializer is %s" (Value.to_string v)
    end
  | Ctypes.Tarray (t, _), Ast.Ilist items ->
    let sz = size_of env t in
    let writers =
      List.mapi (fun i item -> (i * sz, compile_write_init env t item)) items
    in
    fun st fr loc ->
      List.iter
        (fun (off, w) -> w st fr (Memory.offset loc off))
        writers
  | Ctypes.Tstruct si, Ast.Ilist items ->
    let flds = Ctypes.fields env.reg si in
    let writers =
      List.mapi
        (fun i item ->
          let fld = List.nth flds i in
          (fld.Ctypes.fld_offset, compile_write_init env fld.Ctypes.fld_ty item))
        items
    in
    fun st fr loc ->
      List.iter
        (fun (off, w) -> w st fr (Memory.offset loc off))
        writers
  | _, Ast.Ilist [ item ] -> compile_write_init env ty item
  | _ ->
    let msg =
      Printf.sprintf "unsupported initializer for %s" (Ctypes.to_string ty)
    in
    fun _ _ _ -> raise (Error msg)

(* ------------------------------------------------------------------ *)
(* Block / function / program compilation. *)

let compile_instr (env : cenv) : Cfg.instr -> state -> frame -> unit =
  function
  | Cfg.Iexpr e -> effect (compile env e)
  | Cfg.Ilocal_init (slot, d) -> begin
    let ty = d.Ast.d_ty in
    match (d.Ast.d_init, env.slots.(slot)) with
    | Some (Ast.Iexpr e), Sint k ->
      let set = assign_int ty k (compile env e) in
      fun st fr -> ignore (set st fr)
    | Some (Ast.Iexpr e), Sval k ->
      let set = assign_val ty k (compile env e) in
      fun st fr -> ignore (set st fr)
    | Some init, Smem k ->
      let w = compile_write_init env ty init in
      fun st fr -> w st fr fr.locals.(k)
    | Some init, (Sint _ | Sval _) ->
      (* a brace list puts its slot in memory; [Eval] would write through
         [no_block] *)
      let w = compile_write_init env ty init in
      fun st fr -> w st fr Eval.no_block
    | None, _ -> fun _ _ -> ()
  end

(* A terminator jumps by tail-calling its successor's code. *)
let compile_term (env : cenv) (codes : ev array) (bid : int) :
    Cfg.terminator -> ev = function
  | Cfg.Tjump next -> fun st fr -> codes.(next) st fr
  | Cfg.Tbranch (br, t, f) ->
    let cond = compile_cond env br.Cfg.br_cond in
    fun st fr ->
      if cond st fr then begin
        let bt = fr.fc.Profile.branch_taken in
        bt.(bid) <- bt.(bid) +. 1.0;
        codes.(t) st fr
      end
      else begin
        let bnt = fr.fc.Profile.branch_not_taken in
        bnt.(bid) <- bnt.(bid) +. 1.0;
        codes.(f) st fr
      end
  | Cfg.Tswitch (scrutinee, cases, default) ->
    (* First match wins under [List.assoc_opt]; preserve that. *)
    let v = to_iv (compile env scrutinee) in
    let table = Hashtbl.create (List.length cases) in
    List.iter
      (fun (c, t) -> if not (Hashtbl.mem table c) then Hashtbl.add table c t)
      cases;
    fun st fr ->
      codes.(Option.value (Hashtbl.find_opt table (v st fr)) ~default) st fr
  | Cfg.Treturn (Some e) -> compile_expr env e
  | Cfg.Treturn None -> fun _ _ -> vzero

let check_clock (st : state) : unit =
  st.clock_tick <- Eval.clock_check_interval;
  if Unix.gettimeofday () >= st.deadline then raise Eval.Out_of_wall_clock

(* Entering a block: the budget checks, then its count and its fuel, in
   [Eval.exec_blocks]'s order. *)
let[@inline] enter (st : state) (fr : frame) (bid : int) (cost : int) : unit =
  if st.fuel <= 0 then raise Eval.Out_of_fuel;
  st.clock_tick <- st.clock_tick - 1;
  if st.clock_tick <= 0 then check_clock st;
  let bc = fr.fc.Profile.block_counts in
  bc.(bid) <- bc.(bid) +. 1.0;
  st.fuel <- st.fuel - cost

(* A block's code: it counts itself, runs its instructions and ends in
   its terminator, so the profiling hot loop is a chain of tail calls. *)
let compile_block (env : cenv) (codes : ev array) (bid : int) (b : Cfg.block)
    : ev =
  let instrs = Array.of_list (List.map (compile_instr env) b.Cfg.b_instrs) in
  let cost = 1 + Array.length instrs in
  let term = compile_term env codes bid b.Cfg.b_term in
  fun st fr ->
    enter st fr bid cost;
    for i = 0 to Array.length instrs - 1 do
      instrs.(i) st fr
    done;
    term st fr

let bind_param (env : cenv) (slot : slot) (li : Typecheck.local_info) :
    state -> frame -> Value.value -> unit =
  match (slot, li.Typecheck.l_ty) with
  | Sint k, ty -> fun _ fr v -> fr.ivals.(k) <- coerce_int ty v
  | Sval k, ty -> fun _ fr v -> fr.vals.(k) <- Eval.coerce ty v
  | Smem k, Ctypes.Tstruct si ->
    let size = (Ctypes.find env.reg si).Ctypes.str_size in
    fun st fr v -> begin
      match v with
      | Value.Vptr src -> Memory.blit st.mem ~src ~dst:fr.locals.(k) size
      | v -> Value.error "struct argument is %s" (Value.to_string v)
    end
  | Smem k, ty ->
    fun st fr v -> Memory.store st.mem fr.locals.(k) (Eval.coerce ty v)

(* One function's record, before its body is compiled. *)
let compile_fn_record (env : cenv) (tc : Typecheck.t) (i : int) (fn : Cfg.fn)
    : cfn =
  let locals = fn.Cfg.fn_info.Typecheck.fi_locals in
  let in_mem = Eval.needs_block tc fn in
  let count = [| 0; 0; 0 |] in
  let next c = count.(c) <- count.(c) + 1; count.(c) - 1 in
  let slots =
    Array.mapi
      (fun i (li : Typecheck.local_info) ->
        match li.Typecheck.l_ty with
        | _ when in_mem.(i) -> Smem (next 2)
        | Ctypes.Tint | Ctypes.Tchar -> Sint (next 0)
        | _ -> Sval (next 1))
      locals
  in
  let mem =
    Array.of_list
      (List.filter (Array.get in_mem) (List.init (Array.length in_mem) Fun.id))
  in
  let ret = fn.Cfg.fn_def.Ast.f_ret in
  { c_name = fn.Cfg.fn_name; c_index = i; c_entry = fn.Cfg.fn_entry;
    c_code = Array.make (Array.length fn.Cfg.fn_blocks) (fun _ _ -> vzero);
    c_slots = slots; c_n_ints = count.(0); c_n_vals = count.(1);
    c_mem_sizes =
      Array.map (fun s -> size_of env locals.(s).Typecheck.l_ty) mem;
    c_mem_tags =
      Array.map
        (fun s -> fn.Cfg.fn_name ^ "." ^ locals.(s).Typecheck.l_name)
        mem;
    c_bind_params = Array.map2 (bind_param env) slots locals;
    c_coerce_ret = (fun v -> Eval.coerce ret v) }

let compile (src : Cfg.program) : prog =
  let tc = src.Cfg.prog_tc in
  let site_of_expr = Hashtbl.create 64 in
  Array.iter
    (fun cs ->
      Hashtbl.replace site_of_expr cs.Cfg.cs_expr.Ast.eid cs.Cfg.cs_id)
    src.Cfg.prog_sites;
  let env =
    { tc; reg = tc.Typecheck.tunit.Ast.structs; site_of_expr;
      fns = Hashtbl.create 32; global_index = Hashtbl.create 32;
      string_index = Hashtbl.create 64; n_strings = 0; fn_info = None;
      slots = [||] }
  in
  List.iteri
    (fun i name -> Hashtbl.replace env.global_index name i)
    tc.Typecheck.global_order;
  (* Phase 1: create every function's record so direct-call closures can
     capture their targets even across forward/mutual recursion. *)
  let fn_list =
    List.mapi
      (fun i (fn : Cfg.fn) ->
        let cf = compile_fn_record env tc i fn in
        Hashtbl.replace env.fns fn.Cfg.fn_name cf;
        cf)
      src.Cfg.prog_fns
  in
  (* Phase 2: compile bodies against the complete function table. *)
  List.iter2
    (fun (fn : Cfg.fn) cf ->
      env.fn_info <- Some fn.Cfg.fn_info;
      env.slots <- cf.c_slots;
      Array.iteri
        (fun bid b -> cf.c_code.(bid) <- compile_block env cf.c_code bid b)
        fn.Cfg.fn_blocks)
    src.Cfg.prog_fns fn_list;
  env.fn_info <- None;
  env.slots <- [||];
  (* Global initializers, compiled in declaration order. *)
  let global_inits =
    List.filter_map
      (fun name ->
        let d = Hashtbl.find tc.Typecheck.globals name in
        match d.Ast.d_init with
        | Some init ->
          Some
            ( Hashtbl.find env.global_index name,
              compile_write_init env d.Ast.d_ty init )
        | None -> None)
      tc.Typecheck.global_order
  in
  let main = Hashtbl.find_opt env.fns "main" in
  let main_arity =
    match Cfg.find_fn src "main" with
    | None -> -1
    | Some fn -> begin
      match fn.Cfg.fn_def.Ast.f_params with
      | [] -> 0
      | [ _; _ ] -> 2
      | _ -> -1
    end
  in
  { p_src = src;
    p_fns = env.fns;
    p_fn_list = Array.of_list fn_list;
    p_main = main;
    p_main_arity = main_arity;
    p_global_sizes =
      Array.of_list
        (List.map
           (fun name ->
             size_of env (Hashtbl.find tc.Typecheck.globals name).Ast.d_ty)
           tc.Typecheck.global_order);
    p_global_tags =
      Array.of_list
        (List.map (fun name -> "global " ^ name) tc.Typecheck.global_order);
    p_global_inits = global_inits;
    p_n_strings = env.n_strings }

(* ------------------------------------------------------------------ *)
(* Entry point: mirror of [Eval.run]. *)

let run ?(fuel = Eval.default_fuel) ?deadline_s ?(argv = []) ?(input = "")
    (p : prog) : Eval.outcome =
  let deadline, clock_tick =
    match deadline_s with
    | None -> (infinity, max_int)
    | Some s -> (Unix.gettimeofday () +. s, Eval.clock_check_interval)
  in
  let mem = Memory.create () in
  let profile = Profile.create p.p_src in
  let st =
    { mem; bctx = Builtins.create_ctx ~input mem;
      globals =
        Array.make (Array.length p.p_global_sizes) { Value.blk = -1; off = 0 };
      string_cache = Array.make (max p.p_n_strings 1) vzero;
      strings = Hashtbl.create 32;
      fcounters =
        Array.map
          (fun cf -> Profile.fn_counters profile cf.c_name)
          p.p_fn_list;
      profile; fuel; depth = 0; peak_depth = 0; deadline; clock_tick }
  in
  (* Work and fuel both move by [cb_cost] per block, so the work done is
     the fuel spent: exact, as a float, below 2^53 units. *)
  let finish code =
    st.profile.Profile.work <- float_of_int (fuel - st.fuel);
    { Eval.exit_code = code; stdout_text = Builtins.output st.bctx;
      profile = st.profile; work = st.profile.Profile.work;
      peak_depth = st.peak_depth }
  in
  match p.p_main with
  | None -> Value.error "program has no main function"
  | Some main_cf -> begin
    try
      (* Globals: allocate all storage in declaration order, then run the
         initializers — the same two passes as [Eval.init_globals]. *)
      let fc =
        { Profile.block_counts = [||]; branch_taken = [||];
          branch_not_taken = [||] }
      in
      let dummy = { ivals = [||]; vals = [||]; locals = [||]; fc } in
      Array.iteri
        (fun i size ->
          st.globals.(i) <-
            Memory.alloc mem size ~tag:p.p_global_tags.(i))
        p.p_global_sizes;
      List.iter
        (fun (gi, w) -> w st dummy st.globals.(gi))
        p.p_global_inits;
      let args =
        match p.p_main_arity with
        | 0 -> [||]
        | 2 ->
          let all = "prog" :: argv in
          let argc = List.length all in
          let arr = Memory.alloc mem (argc + 1) ~tag:"argv" in
          List.iteri
            (fun i s ->
              let sp = intern_rt st s in
              Memory.store mem (Memory.offset arr i) (Value.Vptr sp))
            all;
          Memory.store mem (Memory.offset arr argc) vzero;
          [| Value.Vint argc; Value.Vptr arr |]
        | _ -> Value.error "main must take () or (int, char **)"
      in
      let result = call_fn st main_cf args in
      finish (match result with Value.Vint n -> n | _ -> 0)
    with
    | Builtins.Exit_program code -> finish code
    | Eval.Out_of_fuel ->
      raise (Eval.Budget_exhausted (Eval.Fuel, finish (-1)))
    | Eval.Out_of_wall_clock ->
      raise (Eval.Budget_exhausted (Eval.Wall_clock, finish (-1)))
  end
