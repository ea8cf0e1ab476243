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
   - locals are addressed by pre-computed slot index. [Eval.needs_block]
     (the slot rule) runs once per function here: scalar locals and
     parameters whose address is never taken live in the frame's value
     array and are read and written directly; only the slots the rule
     marks get a [Memory] block, allocated in slot order as under
     [Eval];
   - globals are addressed by a dense index into a per-run pointer array
     instead of a name hashtable;
   - string literals get a per-literal cache slot (still allocated lazily,
     in first-execution order, so the block store evolves exactly as under
     [Eval]);
   - direct call targets and builtin dispatch are looked up ahead of time,
     and each call site carries its profile counter index;
   - branch and switch terminators are specialized, so the profiling hot
     loop is closure application plus counter bumps.

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
  string_cache : Value.ptr option array;(* by literal index: fast path *)
  strings : (string, Value.ptr) Hashtbl.t;
      (* content-keyed intern table, shared with argv strings so literal
         and argv interning interleave exactly as under [Eval] *)
  fcounters : Profile.fn_counters array;(* by [cfn.c_index] *)
  profile : Profile.t;
  mutable fuel : int;
  deadline : float; (* absolute gettimeofday seconds; [infinity] = none *)
  mutable clock_tick : int; (* blocks until the next wall-clock read *)
}

(* As in [Eval]: [locals.(i)] is slot [i]'s block if the slot rule puts
   it in memory, otherwise the slot lives in [vals.(i)]. *)
type frame = { locals : Value.ptr array; vals : Value.value array }

type ev = state -> frame -> Value.value   (* compiled expression *)
type lv = state -> frame -> Value.ptr     (* compiled lvalue *)

(* ------------------------------------------------------------------ *)
(* Compiled program representation. *)

type cterm =
  | Cjump of int
  | Cbranch of ev * int * int
  | Cswitch of ev * (int, int) Hashtbl.t * int
  | Creturn of ev

type cblock = {
  cb_instrs : (state -> frame -> unit) array;
  cb_cost : int;            (* 1 + number of instructions (fuel units) *)
  cb_costf : float;         (* same, as the work-counter increment *)
  cb_term : cterm;
}

type cfn = {
  c_name : string;
  c_index : int;                        (* position in [prog_fns] *)
  c_entry : int;
  mutable c_blocks : cblock array;      (* patched in phase 2 *)
  c_in_mem : bool array;                (* the slot rule *)
  c_mem_slots : int array;              (* slots with a block, in order *)
  c_local_sizes : int array;
  c_local_tags : string array;
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

let truthy = Value.to_bool

(* The profiling hot loop: closure application plus counter bumps. *)
let rec exec_blocks (st : state) (fr : frame) (cf : cfn)
    (counters : Profile.fn_counters) (start : int) : Value.value =
  let blocks = cf.c_blocks in
  let bc = counters.Profile.block_counts in
  let bt = counters.Profile.branch_taken in
  let bnt = counters.Profile.branch_not_taken in
  let profile = st.profile in
  let rec run bid : Value.value =
    if st.fuel <= 0 then raise Eval.Out_of_fuel;
    st.clock_tick <- st.clock_tick - 1;
    if st.clock_tick <= 0 then begin
      st.clock_tick <- Eval.clock_check_interval;
      if Unix.gettimeofday () >= st.deadline then
        raise Eval.Out_of_wall_clock
    end;
    let blk = blocks.(bid) in
    bc.(bid) <- bc.(bid) +. 1.0;
    st.fuel <- st.fuel - blk.cb_cost;
    profile.Profile.work <- profile.Profile.work +. blk.cb_costf;
    let instrs = blk.cb_instrs in
    for i = 0 to Array.length instrs - 1 do
      instrs.(i) st fr
    done;
    match blk.cb_term with
    | Cjump next -> run next
    | Cbranch (cond, t, f) ->
      if truthy (cond st fr) then begin
        bt.(bid) <- bt.(bid) +. 1.0;
        run t
      end
      else begin
        bnt.(bid) <- bnt.(bid) +. 1.0;
        run f
      end
    | Cswitch (scrutinee, table, default) ->
      let v = Value.int_of (scrutinee st fr) in
      run
        (match Hashtbl.find_opt table v with
        | Some t -> t
        | None -> default)
    | Creturn e -> e st fr
  in
  run start

(* Mirror of [Eval.exec_fn]: allocate the blocks the slot rule asks for
   (same order, same tags), bind parameters, run the blocks, kill those
   blocks, coerce the result. *)
and call_fn (st : state) (cf : cfn) (args : Value.value list) : Value.value =
  let n = Array.length cf.c_in_mem in
  let mem_slots = cf.c_mem_slots in
  let locals =
    if Array.length mem_slots = 0 then [||] else Array.make n Eval.no_block
  in
  for k = 0 to Array.length mem_slots - 1 do
    let i = mem_slots.(k) in
    locals.(i) <-
      Memory.alloc st.mem cf.c_local_sizes.(i) ~tag:cf.c_local_tags.(i)
  done;
  let fr = { locals; vals = Array.make n (Value.Vint 0) } in
  List.iteri (fun i v -> cf.c_bind_params.(i) st fr v) args;
  let counters = st.fcounters.(cf.c_index) in
  let result = exec_blocks st fr cf counters cf.c_entry in
  for k = 0 to Array.length mem_slots - 1 do
    Memory.kill st.mem locals.(mem_slots.(k))
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
  mutable in_mem : bool array; (* its slot rule, from [Eval.needs_block] *)
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

(* ------------------------------------------------------------------ *)
(* Expression compilation. Each function returns a closure; all matches
   on types/resolutions happen here, once. *)

let rec compile_expr (env : cenv) (e : Ast.expr) : ev =
  match e.Ast.enode with
  | Ast.IntLit n ->
    let v = Value.Vint (Value.wrap32 n) in
    fun _ _ -> v
  | Ast.CharLit c ->
    let v = Value.Vint c in
    fun _ _ -> v
  | Ast.FloatLit f ->
    let v = Value.Vfloat f in
    fun _ _ -> v
  | Ast.StringLit s ->
    let idx = string_idx env s in
    fun st _ -> begin
      match st.string_cache.(idx) with
      | Some p -> Value.Vptr p
      | None ->
        let p = intern_rt st s in
        st.string_cache.(idx) <- Some p;
        Value.Vptr p
    end
  | Ast.Ident _ -> compile_ident env e
  | Ast.Unop (op, a) -> compile_unop env op a
  | Ast.Binop (op, a, b) -> compile_binop env op a b
  | Ast.Assign (op, lhs, rhs) -> compile_assign env op lhs rhs
  | Ast.Cond (c, a, b) ->
    let cc = compile_expr env c in
    let ca = compile_expr env a in
    let cb = compile_expr env b in
    fun st fr -> if truthy (cc st fr) then ca st fr else cb st fr
  | Ast.Call (fn, args) -> compile_call env e fn args
  | Ast.Cast (ty, a) -> begin
    let ca = compile_expr env a in
    match ty with
    | Ctypes.Tvoid ->
      fun st fr ->
        ignore (ca st fr);
        Value.Vint 0
    | Ctypes.Tptr _ ->
      fun st fr ->
        let v = ca st fr in
        if Value.is_null v then Value.Vint 0 else v
    | _ -> fun st fr -> Eval.coerce ty (ca st fr)
  end
  | Ast.Index _ | Ast.Field _ | Ast.Arrow _ ->
    let loc = compile_lvalue env e in
    compile_load (designated_ty env e) loc
  | Ast.SizeofT ty ->
    let v = Value.Vint (size_of env ty) in
    fun _ _ -> v
  | Ast.SizeofE a ->
    let v = Value.Vint (size_of env (ty_of env a)) in
    fun _ _ -> v
  | Ast.PreIncr a -> compile_incr_decr env a ~delta:1 ~pre:true
  | Ast.PreDecr a -> compile_incr_decr env a ~delta:(-1) ~pre:true
  | Ast.PostIncr a -> compile_incr_decr env a ~delta:1 ~pre:false
  | Ast.PostDecr a -> compile_incr_decr env a ~delta:(-1) ~pre:false
  | Ast.Comma (a, b) ->
    let ca = compile_expr env a in
    let cb = compile_expr env b in
    fun st fr ->
      ignore (ca st fr);
      cb st fr

(* Load through a pre-resolved declared type: aggregates evaluate to their
   address, scalars to the stored cell. *)
and compile_load (ty : Ctypes.ty) (loc : lv) : ev =
  match ty with
  | Ctypes.Tstruct _ | Ctypes.Tarray _ -> fun st fr -> Value.Vptr (loc st fr)
  | _ -> fun st fr -> Memory.load st.mem (loc st fr)

and compile_ident (env : cenv) (e : Ast.expr) : ev =
  match Typecheck.resolution_of env.tc e with
  | Some (Typecheck.Renum v) ->
    let v = Value.Vint v in
    fun _ _ -> v
  | Some (Typecheck.Rfun name) ->
    let v = Value.Vfun (Value.Fuser name) in
    fun _ _ -> v
  | Some (Typecheck.Rbuiltin name) ->
    let v = Value.Vfun (Value.Fbuiltin name) in
    fun _ _ -> v
  | Some (Typecheck.Rlocal slot) when not env.in_mem.(slot) ->
    fun _ fr -> fr.vals.(slot)
  | Some (Typecheck.Rlocal slot) -> begin
    match local_ty env slot with
    | Ctypes.Tstruct _ | Ctypes.Tarray _ ->
      fun _ fr -> Value.Vptr fr.locals.(slot)
    | _ -> fun st fr -> Memory.load st.mem fr.locals.(slot)
  end
  | Some (Typecheck.Rglobal gname) -> begin
    let d = Hashtbl.find env.tc.Typecheck.globals gname in
    match Hashtbl.find_opt env.global_index gname with
    | None -> fun _ _ -> Value.error "global %s has no storage" gname
    | Some gi -> begin
      match d.Ast.d_ty with
      | Ctypes.Tstruct _ | Ctypes.Tarray _ ->
        fun st _ -> Value.Vptr st.globals.(gi)
      | _ -> fun st _ -> Memory.load st.mem st.globals.(gi)
    end
  end
  | None ->
    let msg =
      Printf.sprintf "unresolved identifier at %s"
        (Format.asprintf "%a" Cfront.Token.pp_pos e.Ast.epos)
    in
    fun _ _ -> raise (Error msg)

and compile_lvalue (env : cenv) (e : Ast.expr) : lv =
  match e.Ast.enode with
  | Ast.Ident name -> begin
    match Typecheck.resolution_of env.tc e with
    | Some (Typecheck.Rlocal slot) when not env.in_mem.(slot) ->
      fun _ _ -> Eval.no_address name
    | Some (Typecheck.Rlocal slot) -> fun _ fr -> fr.locals.(slot)
    | Some (Typecheck.Rglobal gname) -> begin
      match Hashtbl.find_opt env.global_index gname with
      | Some gi -> fun st _ -> st.globals.(gi)
      | None -> fun _ _ -> Value.error "global %s has no storage" gname
    end
    | _ -> fun _ _ -> Value.error "%s is not an object" name
  end
  | Ast.Unop (Ast.Uderef, a) -> compile_expect_ptr env a
  | Ast.Index (a, i) -> begin
    (* Mirror [Eval.eval_lvalue]: when [a] is the pointer, evaluate the
       base from [a] and the index from [i]; otherwise the reversed
       [i[a]] form evaluates the base from [i] first. *)
    match ty_of env a with
    | Ctypes.Tptr t ->
      let base = compile_expect_ptr env a in
      let scale = size_of env t in
      let idx = compile_expr env i in
      fun st fr ->
        let b = base st fr in
        let ix = Value.int_of (idx st fr) in
        Memory.offset b (ix * scale)
    | _ ->
      let base = compile_expect_ptr env i in
      let scale = size_of env (Option.get (pointee env i)) in
      let idx = compile_expr env a in
      fun st fr ->
        let b = base st fr in
        let ix = Value.int_of (idx st fr) in
        Memory.offset b (ix * scale)
  end
  | Ast.Field (a, fname) -> begin
    match ty_of env a with
    | Ctypes.Tstruct si ->
      let off = (Ctypes.find_field env.reg si fname).Ctypes.fld_offset in
      let base = compile_lvalue env a in
      fun st fr -> Memory.offset (base st fr) off
    | t ->
      let msg =
        Printf.sprintf ".%s on %s" fname (Ctypes.to_string t)
      in
      fun _ _ -> raise (Error msg)
  end
  | Ast.Arrow (a, fname) -> begin
    match ty_of env a with
    | Ctypes.Tptr (Ctypes.Tstruct si) ->
      let off = (Ctypes.find_field env.reg si fname).Ctypes.fld_offset in
      let base = compile_expect_ptr env a in
      fun st fr -> Memory.offset (base st fr) off
    | t ->
      let msg =
        Printf.sprintf "->%s on %s" fname (Ctypes.to_string t)
      in
      fun _ _ -> raise (Error msg)
  end
  | _ -> fun _ _ -> Value.error "expression is not an lvalue"

and compile_expect_ptr (env : cenv) (e : Ast.expr) : lv =
  let ce = compile_expr env e in
  fun st fr ->
    match ce st fr with
    | Value.Vptr p -> p
    | Value.Vint 0 -> Value.error "null pointer dereference"
    | v -> Value.error "expected a pointer, got %s" (Value.to_string v)

and compile_unop (env : cenv) (op : Ast.unop) (a : Ast.expr) : ev =
  match op with
  | Ast.Uplus -> compile_expr env a
  | Ast.Uneg ->
    let ca = compile_expr env a in
    fun st fr -> begin
      match ca st fr with
      | Value.Vint n -> Value.Vint (Value.wrap32 (-n))
      | Value.Vfloat f -> Value.Vfloat (-.f)
      | v -> Value.error "cannot negate %s" (Value.to_string v)
    end
  | Ast.Unot ->
    let ca = compile_expr env a in
    fun st fr -> Value.Vint (if truthy (ca st fr) then 0 else 1)
  | Ast.Ubnot ->
    let ca = compile_expr env a in
    fun st fr -> Value.Vint (Value.wrap32 (lnot (Value.int_of (ca st fr))))
  | Ast.Uderef -> begin
    match ty_of env a with
    | Ctypes.Tptr (Ctypes.Tfun _) -> compile_expr env a
    | Ctypes.Tptr t -> begin
      let p = compile_expect_ptr env a in
      match t with
      | Ctypes.Tarray _ | Ctypes.Tstruct _ ->
        fun st fr -> Value.Vptr (p st fr)
      | _ -> fun st fr -> Memory.load st.mem (p st fr)
    end
    | t ->
      let msg = Printf.sprintf "dereferencing %s" (Ctypes.to_string t) in
      fun _ _ -> raise (Error msg)
  end
  | Ast.Uaddr -> begin
    match a.Ast.enode with
    | Ast.Ident _
      when (match Typecheck.resolution_of env.tc a with
           | Some (Typecheck.Rfun _ | Typecheck.Rbuiltin _) -> true
           | _ -> false) ->
      compile_expr env a
    | _ ->
      let loc = compile_lvalue env a in
      fun st fr -> Value.Vptr (loc st fr)
  end

and compile_binop (env : cenv) (op : Ast.binop) (a : Ast.expr) (b : Ast.expr)
    : ev =
  match op with
  | Ast.Bland ->
    let ca = compile_expr env a in
    let cb = compile_expr env b in
    fun st fr ->
      if not (truthy (ca st fr)) then Value.Vint 0
      else Value.Vint (if truthy (cb st fr) then 1 else 0)
  | Ast.Blor ->
    let ca = compile_expr env a in
    let cb = compile_expr env b in
    fun st fr ->
      if truthy (ca st fr) then Value.Vint 1
      else Value.Vint (if truthy (cb st fr) then 1 else 0)
  | _ ->
    let ca = compile_expr env a in
    let cb = compile_expr env b in
    let app = compile_apply_binop env ~ta:(ty_of env a) ~tb:(ty_of env b) op in
    fun st fr ->
      let va = ca st fr in
      let vb = cb st fr in
      app va vb

(* Specialized [Eval.apply_binop]: the type dispatch, element sizes and
   float-context decision happen at compile time. *)
and compile_apply_binop (env : cenv) ~(ta : Ctypes.ty) ~(tb : Ctypes.ty)
    (op : Ast.binop) : Value.value -> Value.value -> Value.value =
  let int_op f va vb =
    Value.Vint (Value.wrap32 (f (Value.int_of va) (Value.int_of vb)))
  in
  let float_ctx = ta = Ctypes.Tdouble || tb = Ctypes.Tdouble in
  let arith fint ffloat =
    if float_ctx then fun va vb ->
      Value.Vfloat (ffloat (Value.float_of va) (Value.float_of vb))
    else int_op fint
  in
  let compare_with lt va vb =
    let result =
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
    Value.Vint (if result then 1 else 0)
  in
  match op with
  | Ast.Badd -> begin
    match (ta, tb) with
    | Ctypes.Tptr t, _ ->
      let sz = size_of env t in
      fun va vb ->
        let p = Eval.expect_ptr_value va in
        Value.Vptr (Memory.offset p (Value.int_of vb * sz))
    | _, Ctypes.Tptr t ->
      let sz = size_of env t in
      fun va vb ->
        let p = Eval.expect_ptr_value vb in
        Value.Vptr (Memory.offset p (Value.int_of va * sz))
    | _ -> arith ( + ) ( +. )
  end
  | Ast.Bsub -> begin
    match (ta, tb) with
    | Ctypes.Tptr t, Ctypes.Tptr _ ->
      let sz = size_of env t in
      fun va vb -> begin
        match (va, vb) with
        | Value.Vptr p, Value.Vptr q when p.Value.blk = q.Value.blk ->
          Value.Vint ((p.Value.off - q.Value.off) / sz)
        | Value.Vptr _, Value.Vptr _ ->
          Value.error "subtracting pointers into different objects"
        | _ -> Value.error "pointer subtraction on non-pointers"
      end
    | Ctypes.Tptr t, _ ->
      let sz = size_of env t in
      fun va vb ->
        let p = Eval.expect_ptr_value va in
        Value.Vptr (Memory.offset p (-Value.int_of vb * sz))
    | _ -> arith ( - ) ( -. )
  end
  | Ast.Bmul -> arith ( * ) ( *. )
  | Ast.Bdiv ->
    if float_ctx then fun va vb -> begin
      let d = Value.float_of vb in
      if d = 0.0 then Value.error "floating division by zero";
      Value.Vfloat (Value.float_of va /. d)
    end
    else fun va vb -> begin
      let d = Value.int_of vb in
      if d = 0 then Value.error "division by zero";
      Value.Vint (Value.wrap32 (Value.int_of va / d))
    end
  | Ast.Bmod ->
    fun va vb ->
      let d = Value.int_of vb in
      if d = 0 then Value.error "modulo by zero";
      Value.Vint (Value.wrap32 (Value.int_of va mod d))
  | Ast.Bshl -> int_op (fun x y -> x lsl (y land 31))
  | Ast.Bshr -> int_op (fun x y -> x asr (y land 31))
  | Ast.Bband -> int_op ( land )
  | Ast.Bbor -> int_op ( lor )
  | Ast.Bbxor -> int_op ( lxor )
  | Ast.Blt -> compare_with (fun c z -> c < z)
  | Ast.Bgt -> compare_with (fun c z -> c > z)
  | Ast.Ble -> compare_with (fun c z -> c <= z)
  | Ast.Bge -> compare_with (fun c z -> c >= z)
  | Ast.Beq ->
    fun va vb -> Value.Vint (if Value.equal_values va vb then 1 else 0)
  | Ast.Bne ->
    fun va vb -> Value.Vint (if Value.equal_values va vb then 0 else 1)
  | Ast.Bland | Ast.Blor -> assert false (* handled by compile_binop *)

and compile_assign (env : cenv) (op : Ast.assign_op) (lhs : Ast.expr)
    (rhs : Ast.expr) : ev =
  let tl = ty_of env lhs in
  match (op, tl) with
  | Ast.Aplain, Ctypes.Tstruct si ->
    let dst = compile_lvalue env lhs in
    let src = compile_expr env rhs in
    let size = (Ctypes.find env.reg si).Ctypes.str_size in
    fun st fr ->
      let d = dst st fr in
      let s =
        match src st fr with
        | Value.Vptr p -> p
        | v -> Value.error "struct assignment from %s" (Value.to_string v)
      in
      Memory.blit st.mem ~src:s ~dst:d size;
      Value.Vptr d
  | Ast.Aplain, _ -> begin
    let crhs = compile_expr env rhs in
    match Eval.frame_slot env.tc env.in_mem lhs with
    | Some slot ->
      fun st fr ->
        let v = Eval.coerce tl (crhs st fr) in
        fr.vals.(slot) <- v;
        v
    | None ->
      let loc = compile_lvalue env lhs in
      fun st fr ->
        let l = loc st fr in
        let v = Eval.coerce tl (crhs st fr) in
        Memory.store st.mem l v;
        v
  end
  | _, _ -> begin
    let bop = Option.get (Ast.binop_of_assign op) in
    let crhs = compile_expr env rhs in
    let app = compile_apply_binop env ~ta:tl ~tb:(ty_of env rhs) bop in
    match Eval.frame_slot env.tc env.in_mem lhs with
    | Some slot ->
      fun st fr ->
        let old = fr.vals.(slot) in
        let vr = crhs st fr in
        let v = Eval.coerce tl (app old vr) in
        fr.vals.(slot) <- v;
        v
    | None ->
      let loc = compile_lvalue env lhs in
      fun st fr ->
        let l = loc st fr in
        let old = Memory.load st.mem l in
        let vr = crhs st fr in
        let v = Eval.coerce tl (app old vr) in
        Memory.store st.mem l v;
        v
  end

and compile_incr_decr (env : cenv) (a : Ast.expr) ~(delta : int)
    ~(pre : bool) : ev =
  let ty = ty_of env a in
  let fresh_of : state -> Value.value -> Value.value =
    match ty with
    | Ctypes.Tptr t ->
      let d = delta * size_of env t in
      fun _ old -> begin
        match old with
        | Value.Vptr p -> Value.Vptr (Memory.offset p d)
        | Value.Vint 0 -> Value.error "arithmetic on a null pointer"
        | _ -> Eval.coerce ty (Value.Vint (Value.int_of old + delta))
      end
    | Ctypes.Tdouble ->
      let d = float_of_int delta in
      fun _ old -> Value.Vfloat (Value.float_of old +. d)
    | _ -> fun _ old -> Eval.coerce ty (Value.Vint (Value.int_of old + delta))
  in
  match Eval.frame_slot env.tc env.in_mem a with
  | Some slot ->
    fun st fr ->
      let old = fr.vals.(slot) in
      let fresh = fresh_of st old in
      fr.vals.(slot) <- fresh;
      if pre then fresh else old
  | None ->
    let loc = compile_lvalue env a in
    fun st fr ->
      let l = loc st fr in
      let old = Memory.load st.mem l in
      let fresh = fresh_of st old in
      Memory.store st.mem l fresh;
      if pre then fresh else old

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
    match Hashtbl.find_opt env.fns name with
    | Some target ->
      fun st fr ->
        bump st;
        let argv = List.map (fun f -> f st fr) cargs in
        call_fn st target argv
    | None ->
      (* Prototype without definition: [Eval] still evaluates the
         arguments before failing the lookup. *)
      fun st fr ->
        bump st;
        let _argv = List.map (fun f -> f st fr) cargs in
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
        | Some target -> call_fn st target argv
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
  | Cfg.Iexpr e ->
    let ce = compile_expr env e in
    fun st fr -> ignore (ce st fr)
  | Cfg.Ilocal_init (slot, d) -> begin
    match d.Ast.d_init with
    | Some (Ast.Iexpr e) when not env.in_mem.(slot) ->
      let ce = compile_expr env e in
      let ty = d.Ast.d_ty in
      fun st fr -> fr.vals.(slot) <- Eval.coerce ty (ce st fr)
    | Some init ->
      let w = compile_write_init env d.Ast.d_ty init in
      fun st fr -> w st fr fr.locals.(slot)
    | None -> fun _ _ -> ()
  end

let compile_term (env : cenv) : Cfg.terminator -> cterm = function
  | Cfg.Tjump next -> Cjump next
  | Cfg.Tbranch (br, t, f) -> Cbranch (compile_expr env br.Cfg.br_cond, t, f)
  | Cfg.Tswitch (scrutinee, cases, default) ->
    (* First match wins under [List.assoc_opt]; preserve that. *)
    let table = Hashtbl.create (List.length cases) in
    List.iter
      (fun (v, t) -> if not (Hashtbl.mem table v) then Hashtbl.add table v t)
      cases;
    Cswitch (compile_expr env scrutinee, table, default)
  | Cfg.Treturn (Some e) -> Creturn (compile_expr env e)
  | Cfg.Treturn None -> Creturn (fun _ _ -> Value.Vint 0)

let compile_block (env : cenv) (b : Cfg.block) : cblock =
  let n_instrs = List.length b.Cfg.b_instrs in
  { cb_instrs =
      Array.of_list (List.map (compile_instr env) b.Cfg.b_instrs);
    cb_cost = 1 + n_instrs;
    cb_costf = 1.0 +. float_of_int n_instrs;
    cb_term = compile_term env b.Cfg.b_term }

let bind_param (env : cenv) (in_mem : bool array)
    (li : Typecheck.local_info) (i : int) :
    state -> frame -> Value.value -> unit =
  match li.Typecheck.l_ty with
  | ty when not in_mem.(i) -> fun _ fr v -> fr.vals.(i) <- Eval.coerce ty v
  | Ctypes.Tstruct si ->
    let size = (Ctypes.find env.reg si).Ctypes.str_size in
    fun st fr v -> begin
      match v with
      | Value.Vptr src -> Memory.blit st.mem ~src ~dst:fr.locals.(i) size
      | v -> Value.error "struct argument is %s" (Value.to_string v)
    end
  | ty -> fun st fr v -> Memory.store st.mem fr.locals.(i) (Eval.coerce ty v)

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
      in_mem = [||] }
  in
  List.iteri
    (fun i name -> Hashtbl.replace env.global_index name i)
    tc.Typecheck.global_order;
  (* Phase 1: create every function's record so direct-call closures can
     capture their targets even across forward/mutual recursion. *)
  let fn_list =
    List.mapi
      (fun i (fn : Cfg.fn) ->
        let fi = fn.Cfg.fn_info in
        let in_mem = Eval.needs_block tc fn in
        let cf =
          { c_name = fn.Cfg.fn_name; c_index = i; c_entry = fn.Cfg.fn_entry;
            c_blocks = [||];
            c_in_mem = in_mem;
            c_mem_slots =
              Array.of_list
                (List.filter (fun i -> in_mem.(i))
                   (List.init (Array.length in_mem) Fun.id));
            c_local_sizes =
              Array.map
                (fun (li : Typecheck.local_info) ->
                  size_of env li.Typecheck.l_ty)
                fi.Typecheck.fi_locals;
            c_local_tags =
              Array.map
                (fun (li : Typecheck.local_info) ->
                  fn.Cfg.fn_name ^ "." ^ li.Typecheck.l_name)
                fi.Typecheck.fi_locals;
            c_bind_params =
              Array.mapi
                (fun i li -> bind_param env in_mem li i)
                fi.Typecheck.fi_locals;
            c_coerce_ret = Eval.coerce fn.Cfg.fn_def.Ast.f_ret }
        in
        Hashtbl.replace env.fns fn.Cfg.fn_name cf;
        cf)
      src.Cfg.prog_fns
  in
  (* Phase 2: compile bodies against the complete function table. *)
  List.iter2
    (fun (fn : Cfg.fn) cf ->
      env.fn_info <- Some fn.Cfg.fn_info;
      env.in_mem <- cf.c_in_mem;
      cf.c_blocks <- Array.map (compile_block env) fn.Cfg.fn_blocks)
    src.Cfg.prog_fns fn_list;
  env.fn_info <- None;
  env.in_mem <- [||];
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
      string_cache = Array.make (max p.p_n_strings 1) None;
      strings = Hashtbl.create 32;
      fcounters =
        Array.map
          (fun cf -> Profile.fn_counters profile cf.c_name)
          p.p_fn_list;
      profile; fuel; deadline; clock_tick }
  in
  let finish code =
    { Eval.exit_code = code; stdout_text = Builtins.output st.bctx;
      profile = st.profile; work = st.profile.Profile.work }
  in
  match p.p_main with
  | None -> Value.error "program has no main function"
  | Some main_cf -> begin
    try
      (* Globals: allocate all storage in declaration order, then run the
         initializers — the same two passes as [Eval.init_globals]. *)
      let dummy = { locals = [||]; vals = [||] } in
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
        | 0 -> []
        | 2 ->
          let all = "prog" :: argv in
          let argc = List.length all in
          let arr = Memory.alloc mem (argc + 1) ~tag:"argv" in
          List.iteri
            (fun i s ->
              let sp = intern_rt st s in
              Memory.store mem (Memory.offset arr i) (Value.Vptr sp))
            all;
          Memory.store mem (Memory.offset arr argc) (Value.Vint 0);
          [ Value.Vint argc; Value.Vptr arr ]
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
