(* CFG-level interpreter for the C subset, with built-in profiling.

   Executing the same CFG the estimators analyse gives exact basic-block,
   branch-outcome and call-site counts — the role played by gcc's
   instrumentation in the paper. Expressions are evaluated directly from
   the typed AST carried in block instructions.

   The slot rule ([needs_block]): a local gets a [Memory] block only if
   it is not a scalar (an aggregate, say), its address is taken ([&x]),
   or its initializer is a brace list. Every other local and parameter
   lives in the frame's value array, so no pointer can ever reach it and
   nothing observable depends on where it is held. The rule reads only
   the function's CFG, and [Compile] applies the same one, so both back
   ends allocate the same blocks in the same order and block ids (which
   pointer comparisons expose) stay equal between them. *)

module Ast = Cfront.Ast
module Cfg = Cfg_ir.Cfg
module Ctypes = Cfront.Ctypes
module Typecheck = Cfront.Typecheck

exception Error = Value.Runtime_error

(* Budget stops: raised mid-execution when the run exceeds its fuel or
   wall-clock budget, and converted by [run] into [Budget_exhausted]
   carrying the *partial* outcome — a divergent or runaway profile run
   yields the profile it accumulated, never a hang or a bare crash. The
   compiled back end ([Compile]) raises these same constructors so the
   two back ends stay observationally identical under exhaustion. *)
exception Out_of_fuel
exception Out_of_wall_clock

(* How many blocks run between wall-clock reads when a deadline is set:
   one [Unix.gettimeofday] per ~50k blocks keeps the check off the hot
   path. Without a deadline the tick starts at [max_int] and the check
   never triggers. *)
let clock_check_interval = 50_000

(* The deepest C call either back end makes. Each C call nests OCaml
   frames, so unbounded recursion would otherwise run until the OCaml
   stack overflows, gigabytes later. [test/test_compile.ml] checks the
   limit against the deepest call ([peak_depth]) that the suite and a
   [Genprog] sample make, 27 when it was set; at the limit either back
   end uses about 16 MB of the default 1 GiB OCaml stack. *)
let max_call_depth = 100_000

let call_too_deep () =
  Value.error "call depth limit exceeded (%d nested calls)" max_call_depth

type genv = {
  prog : Cfg.program;
  tc : Typecheck.t;
  reg : Ctypes.registry;
  mem : Memory.t;
  bctx : Builtins.ctx;
  globals : (string, Value.ptr) Hashtbl.t;
  strings : (string, Value.ptr) Hashtbl.t;
  site_of_expr : (Ast.node_id, int) Hashtbl.t; (* call expr -> cs_id *)
  profile : Profile.t;
  mutable fuel : int;
  deadline : float; (* absolute gettimeofday seconds; [infinity] = none *)
  mutable clock_tick : int; (* blocks until the next wall-clock read *)
  mutable depth : int; (* active C calls *)
  mutable peak_depth : int; (* the most [depth] has been *)
  slot_rules : (string, bool array) Hashtbl.t; (* [needs_block], per fn *)
}

(* [locals.(i)] is slot [i]'s block when [in_mem.(i)]; otherwise the slot
   lives in [vals.(i)]. *)
type frame = {
  fn : Cfg.fn;
  in_mem : bool array;
  locals : Value.ptr array;
  vals : Value.value array;
}

(* A frame for evaluating global initializers (no locals). *)
let null_frame (g : genv) : frame =
  match g.prog.Cfg.prog_fns with
  | fn :: _ -> { fn; in_mem = [||]; locals = [||]; vals = [||] }
  | [] -> Value.error "program has no functions"

(* The slot rule: which of [fn]'s locals need a [Memory] block. True for a
   local that is not a scalar, whose address is taken, or whose
   initializer is a brace list; the walk covers every CFG instruction and
   terminator. *)
let needs_block (tc : Typecheck.t) (fn : Cfg.fn) : bool array =
  let need =
    Array.map
      (fun (li : Typecheck.local_info) ->
        match li.Typecheck.l_ty with
        | Ctypes.Tint | Ctypes.Tchar | Ctypes.Tdouble | Ctypes.Tptr _ -> false
        | _ -> true)
      fn.Cfg.fn_info.Typecheck.fi_locals
  in
  let on_expr (e : Ast.expr) =
    match e.Ast.enode with
    | Ast.Unop (Ast.Uaddr, ({ Ast.enode = Ast.Ident _; _ } as a)) -> begin
      match Typecheck.resolution_of tc a with
      | Some (Typecheck.Rlocal slot) -> need.(slot) <- true
      | _ -> ()
    end
    | _ -> ()
  in
  Array.iter
    (fun (b : Cfg.block) ->
      List.iter
        (function
          | Cfg.Iexpr e -> Ast.iter_expr on_expr e
          | Cfg.Ilocal_init (slot, d) ->
            (match d.Ast.d_init with
            | Some (Ast.Ilist _) -> need.(slot) <- true
            | _ -> ());
            Ast.iter_init ~on_expr d.Ast.d_init)
        b.Cfg.b_instrs;
      match b.Cfg.b_term with
      | Cfg.Tbranch (br, _, _) -> Ast.iter_expr on_expr br.Cfg.br_cond
      | Cfg.Tswitch (e, _, _) | Cfg.Treturn (Some e) -> Ast.iter_expr on_expr e
      | Cfg.Tjump _ | Cfg.Treturn None -> ())
    fn.Cfg.fn_blocks;
  need

(* The frame slot an lvalue names, if it names one. *)
let frame_slot (tc : Typecheck.t) (in_mem : bool array) (e : Ast.expr) :
    int option =
  match e.Ast.enode with
  | Ast.Ident _ -> begin
    match Typecheck.resolution_of tc e with
    | Some (Typecheck.Rlocal slot) when not in_mem.(slot) -> Some slot
    | _ -> None
  end
  | _ -> None

(* The [locals] entry of a frame slot. *)
let no_block : Value.ptr = { Value.blk = -1; off = 0 }

(* Unreachable under [needs_block]: only [&x] takes a scalar local's
   address, and that puts [x] in memory. *)
let no_address name = Value.error "local %s has no address" name

let ty_of (g : genv) (e : Ast.expr) : Ctypes.ty = Typecheck.type_of g.tc e

let size_of (g : genv) (t : Ctypes.ty) : int =
  try Ctypes.size_of g.reg t
  with Ctypes.Type_error m -> Value.error "%s" m

let intern_string (g : genv) (s : string) : Value.ptr =
  match Hashtbl.find_opt g.strings s with
  | Some p -> p
  | None ->
    let p = Memory.alloc g.mem (String.length s + 1) ~tag:"string literal" in
    Memory.write_cstring g.mem p s;
    Hashtbl.replace g.strings s p;
    p

(* Coerce a value for storage into an object of type [ty]. An int already
   in range comes back as it is: a fresh box of the same int would be
   indistinguishable. *)
let coerce (ty : Ctypes.ty) (v : Value.value) : Value.value =
  match (ty, v) with
  | Ctypes.Tint, Value.Vint n ->
    if Value.wrap32 n = n then v else Value.Vint (Value.wrap32 n)
  | Ctypes.Tint, Value.Vfloat f -> Value.Vint (Value.wrap32 (int_of_float f))
  | Ctypes.Tchar, Value.Vint n ->
    if Value.wrap8 n = n then v else Value.Vint (Value.wrap8 n)
  | Ctypes.Tchar, Value.Vfloat f -> Value.Vint (Value.wrap8 (int_of_float f))
  | Ctypes.Tdouble, (Value.Vint _ | Value.Vfloat _) ->
    Value.Vfloat (Value.float_of v)
  | Ctypes.Tptr _, (Value.Vptr _ | Value.Vfun _) -> v
  | Ctypes.Tptr _, Value.Vint 0 -> Value.Vint 0
  | Ctypes.Tptr _, Value.Vint n ->
    Value.error "storing non-null integer %d into a pointer" n
  | (Ctypes.Tint | Ctypes.Tchar), Value.Vptr _ ->
    Value.error "storing a pointer into an integer object"
  | Ctypes.Tvoid, _ -> Value.Vint 0
  | (Ctypes.Tstruct _ | Ctypes.Tarray _ | Ctypes.Tfun _), _ -> v
  | t, v ->
    Value.error "cannot store %s into %s" (Value.to_string v)
      (Ctypes.to_string t)

let truthy = Value.to_bool

(* ------------------------------------------------------------------ *)
(* Expression evaluation *)

let rec eval_expr (g : genv) (fr : frame) (e : Ast.expr) : Value.value =
  match e.Ast.enode with
  | Ast.IntLit n -> Value.Vint (Value.wrap32 n)
  | Ast.CharLit c -> Value.Vint c
  | Ast.FloatLit f -> Value.Vfloat f
  | Ast.StringLit s -> Value.Vptr (intern_string g s)
  | Ast.Ident _ -> begin
    match Typecheck.resolution_of g.tc e with
    | Some (Typecheck.Renum v) -> Value.Vint v
    | Some (Typecheck.Rfun name) -> Value.Vfun (Value.Fuser name)
    | Some (Typecheck.Rbuiltin name) -> Value.Vfun (Value.Fbuiltin name)
    | Some (Typecheck.Rlocal slot) when not fr.in_mem.(slot) ->
      fr.vals.(slot)
    | Some (Typecheck.Rlocal slot) ->
      let declared =
        fr.fn.Cfg.fn_info.Typecheck.fi_locals.(slot).Typecheck.l_ty
      in
      load_object g declared fr.locals.(slot)
    | Some (Typecheck.Rglobal gname) ->
      let d = Hashtbl.find g.tc.Typecheck.globals gname in
      let loc = eval_lvalue g fr e in
      load_object g d.Ast.d_ty loc
    | None -> Value.error "unresolved identifier at %s"
                (Format.asprintf "%a" Cfront.Token.pp_pos e.Ast.epos)
  end
  | Ast.Unop (op, a) -> eval_unop g fr e op a
  | Ast.Binop (op, a, b) -> eval_binop g fr e op a b
  | Ast.Assign (op, lhs, rhs) -> eval_assign g fr op lhs rhs
  | Ast.Cond (c, a, b) ->
    if truthy (eval_expr g fr c) then eval_expr g fr a else eval_expr g fr b
  | Ast.Call (fn, args) -> eval_call g fr e fn args
  | Ast.Cast (ty, a) -> begin
    let v = eval_expr g fr a in
    match ty with
    | Ctypes.Tvoid -> Value.Vint 0
    | Ctypes.Tptr _ when Value.is_null v -> Value.Vint 0
    | Ctypes.Tptr _ -> v (* pointer casts are free in the cell model *)
    | _ -> coerce ty v
  end
  | Ast.Index _ | Ast.Field _ | Ast.Arrow _ ->
    let loc = eval_lvalue g fr e in
    load_object g (designated_ty g e) loc
  | Ast.SizeofT ty -> Value.Vint (size_of g ty)
  | Ast.SizeofE a -> Value.Vint (size_of g (ty_of g a))
  | Ast.PreIncr a -> incr_decr g fr a ~delta:1 ~pre:true
  | Ast.PreDecr a -> incr_decr g fr a ~delta:(-1) ~pre:true
  | Ast.PostIncr a -> incr_decr g fr a ~delta:1 ~pre:false
  | Ast.PostDecr a -> incr_decr g fr a ~delta:(-1) ~pre:false
  | Ast.Comma (a, b) ->
    ignore (eval_expr g fr a);
    eval_expr g fr b

(* Load a value of declared type [ty] from [loc]; aggregates evaluate to
   their address (array decay / struct designator). *)
and load_object (g : genv) (ty : Ctypes.ty) (loc : Value.ptr) : Value.value =
  match ty with
  | Ctypes.Tstruct _ | Ctypes.Tarray _ -> Value.Vptr loc
  | _ -> Memory.load g.mem loc

and eval_lvalue (g : genv) (fr : frame) (e : Ast.expr) : Value.ptr =
  match e.Ast.enode with
  | Ast.Ident name -> begin
    match Typecheck.resolution_of g.tc e with
    | Some (Typecheck.Rlocal slot) when not fr.in_mem.(slot) -> no_address name
    | Some (Typecheck.Rlocal slot) -> fr.locals.(slot)
    | Some (Typecheck.Rglobal gname) -> begin
      match Hashtbl.find_opt g.globals gname with
      | Some p -> p
      | None -> Value.error "global %s has no storage" gname
    end
    | _ -> Value.error "%s is not an object" name
  end
  | Ast.Unop (Ast.Uderef, a) -> expect_ptr g fr a
  | Ast.Index (a, i) ->
    let base, scale =
      match ty_of g a with
      | Ctypes.Tptr t -> (expect_ptr g fr a, size_of g t)
      | _ -> (expect_ptr g fr i, size_of g (Option.get (pointee g i)))
    in
    let idx =
      match ty_of g a with
      | Ctypes.Tptr _ -> Value.int_of (eval_expr g fr i)
      | _ -> Value.int_of (eval_expr g fr a)
    in
    Memory.offset base (idx * scale)
  | Ast.Field (a, fname) -> begin
    match ty_of g a with
    | Ctypes.Tstruct si ->
      let fld = Ctypes.find_field g.reg si fname in
      Memory.offset (eval_lvalue g fr a) fld.Ctypes.fld_offset
    | t -> Value.error ".%s on %s" fname (Ctypes.to_string t)
  end
  | Ast.Arrow (a, fname) -> begin
    match ty_of g a with
    | Ctypes.Tptr (Ctypes.Tstruct si) ->
      let fld = Ctypes.find_field g.reg si fname in
      Memory.offset (expect_ptr g fr a) fld.Ctypes.fld_offset
    | t -> Value.error "->%s on %s" fname (Ctypes.to_string t)
  end
  | _ -> Value.error "expression is not an lvalue"

and pointee (g : genv) (e : Ast.expr) : Ctypes.ty option =
  match ty_of g e with Ctypes.Tptr t -> Some t | _ -> None

(* The undecayed type of the object designated by an Index/Field/Arrow
   lvalue, so nested arrays evaluate to addresses rather than cell loads. *)
and designated_ty (g : genv) (e : Ast.expr) : Ctypes.ty =
  match e.Ast.enode with
  | Ast.Index (a, i) -> begin
    match (ty_of g a, ty_of g i) with
    | Ctypes.Tptr t, _ -> t
    | _, Ctypes.Tptr t -> t
    | t, _ -> Value.error "indexing %s" (Ctypes.to_string t)
  end
  | Ast.Field (a, fname) -> begin
    match ty_of g a with
    | Ctypes.Tstruct si -> (Ctypes.find_field g.reg si fname).Ctypes.fld_ty
    | t -> Value.error ".%s on %s" fname (Ctypes.to_string t)
  end
  | Ast.Arrow (a, fname) -> begin
    match ty_of g a with
    | Ctypes.Tptr (Ctypes.Tstruct si) ->
      (Ctypes.find_field g.reg si fname).Ctypes.fld_ty
    | t -> Value.error "->%s on %s" fname (Ctypes.to_string t)
  end
  | _ -> ty_of g e

and expect_ptr (g : genv) (fr : frame) (e : Ast.expr) : Value.ptr =
  match eval_expr g fr e with
  | Value.Vptr p -> p
  | Value.Vint 0 -> Value.error "null pointer dereference"
  | v -> Value.error "expected a pointer, got %s" (Value.to_string v)

and eval_unop g fr (e : Ast.expr) op a : Value.value =
  match op with
  | Ast.Uplus -> eval_expr g fr a
  | Ast.Uneg -> begin
    match eval_expr g fr a with
    | Value.Vint n -> Value.Vint (Value.wrap32 (-n))
    | Value.Vfloat f -> Value.Vfloat (-.f)
    | v -> Value.error "cannot negate %s" (Value.to_string v)
  end
  | Ast.Unot -> Value.Vint (if truthy (eval_expr g fr a) then 0 else 1)
  | Ast.Ubnot -> Value.Vint (Value.wrap32 (lnot (Value.int_of (eval_expr g fr a))))
  | Ast.Uderef -> begin
    match ty_of g a with
    | Ctypes.Tptr (Ctypes.Tfun _) -> eval_expr g fr a
    | Ctypes.Tptr t ->
      let p = expect_ptr g fr a in
      (match t with
      | Ctypes.Tarray _ | Ctypes.Tstruct _ -> Value.Vptr p
      | _ -> Memory.load g.mem p)
    | t -> Value.error "dereferencing %s" (Ctypes.to_string t)
  end
  | Ast.Uaddr -> begin
    match a.Ast.enode with
    | Ast.Ident _
      when (match Typecheck.resolution_of g.tc a with
           | Some (Typecheck.Rfun _ | Typecheck.Rbuiltin _) -> true
           | _ -> false) ->
      eval_expr g fr a
    | _ ->
      ignore e;
      Value.Vptr (eval_lvalue g fr a)
  end

and eval_binop g fr (e : Ast.expr) op a b : Value.value =
  match op with
  | Ast.Bland ->
    if not (truthy (eval_expr g fr a)) then Value.Vint 0
    else Value.Vint (if truthy (eval_expr g fr b) then 1 else 0)
  | Ast.Blor ->
    if truthy (eval_expr g fr a) then Value.Vint 1
    else Value.Vint (if truthy (eval_expr g fr b) then 1 else 0)
  | _ ->
    let va = eval_expr g fr a in
    let vb = eval_expr g fr b in
    apply_binop g ~ta:(ty_of g a) ~tb:(ty_of g b) op va vb
      ~pos:e.Ast.epos

and apply_binop g ~(ta : Ctypes.ty) ~(tb : Ctypes.ty) op va vb ~pos :
    Value.value =
  ignore pos;
  let int_op f =
    Value.Vint (Value.wrap32 (f (Value.int_of va) (Value.int_of vb)))
  in
  let float_ctx = ta = Ctypes.Tdouble || tb = Ctypes.Tdouble in
  let arith fint ffloat =
    if float_ctx then
      Value.Vfloat (ffloat (Value.float_of va) (Value.float_of vb))
    else int_op fint
  in
  let cmp result = Value.Vint (if result then 1 else 0) in
  let compare_values lt =
    match (va, vb) with
    | Value.Vptr p, Value.Vptr q ->
      if p.Value.blk <> q.Value.blk then
        lt (compare p.Value.blk q.Value.blk) 0
      else lt (compare p.Value.off q.Value.off) 0
    | Value.Vptr _, Value.Vint 0 -> lt 1 0
    | Value.Vint 0, Value.Vptr _ -> lt (-1) 0
    | _ ->
      if float_ctx then lt (compare (Value.float_of va) (Value.float_of vb)) 0
      else lt (compare (Value.int_of va) (Value.int_of vb)) 0
  in
  match op with
  | Ast.Badd -> begin
    match (ta, tb) with
    | Ctypes.Tptr t, _ ->
      let p = expect_ptr_value va in
      Value.Vptr (Memory.offset p (Value.int_of vb * size_of g t))
    | _, Ctypes.Tptr t ->
      let p = expect_ptr_value vb in
      Value.Vptr (Memory.offset p (Value.int_of va * size_of g t))
    | _ -> arith ( + ) ( +. )
  end
  | Ast.Bsub -> begin
    match (ta, tb) with
    | Ctypes.Tptr t, Ctypes.Tptr _ -> begin
      match (va, vb) with
      | Value.Vptr p, Value.Vptr q when p.Value.blk = q.Value.blk ->
        Value.Vint ((p.Value.off - q.Value.off) / size_of g t)
      | Value.Vptr _, Value.Vptr _ ->
        Value.error "subtracting pointers into different objects"
      | _ -> Value.error "pointer subtraction on non-pointers"
    end
    | Ctypes.Tptr t, _ ->
      let p = expect_ptr_value va in
      Value.Vptr (Memory.offset p (-Value.int_of vb * size_of g t))
    | _ -> arith ( - ) ( -. )
  end
  | Ast.Bmul -> arith ( * ) ( *. )
  | Ast.Bdiv ->
    if float_ctx then begin
      let d = Value.float_of vb in
      if d = 0.0 then Value.error "floating division by zero";
      Value.Vfloat (Value.float_of va /. d)
    end
    else begin
      let d = Value.int_of vb in
      if d = 0 then Value.error "division by zero";
      Value.Vint (Value.wrap32 (Value.int_of va / d))
    end
  | Ast.Bmod ->
    let d = Value.int_of vb in
    if d = 0 then Value.error "modulo by zero";
    Value.Vint (Value.wrap32 (Value.int_of va mod d))
  | Ast.Bshl -> int_op (fun x y -> x lsl (y land 31))
  | Ast.Bshr -> int_op (fun x y -> x asr (y land 31))
  | Ast.Bband -> int_op ( land )
  | Ast.Bbor -> int_op ( lor )
  | Ast.Bbxor -> int_op ( lxor )
  | Ast.Blt -> cmp (compare_values (fun c z -> c < z))
  | Ast.Bgt -> cmp (compare_values (fun c z -> c > z))
  | Ast.Ble -> cmp (compare_values (fun c z -> c <= z))
  | Ast.Bge -> cmp (compare_values (fun c z -> c >= z))
  | Ast.Beq -> cmp (Value.equal_values va vb)
  | Ast.Bne -> cmp (not (Value.equal_values va vb))
  | Ast.Bland | Ast.Blor -> assert false (* handled by eval_binop *)

and expect_ptr_value = function
  | Value.Vptr p -> p
  | Value.Vint 0 -> Value.error "arithmetic on a null pointer"
  | v -> Value.error "expected pointer, got %s" (Value.to_string v)

and eval_assign g fr op lhs rhs : Value.value =
  let tl = ty_of g lhs in
  match (op, tl) with
  | Ast.Aplain, Ctypes.Tstruct si ->
    (* struct assignment: copy all cells *)
    let dst = eval_lvalue g fr lhs in
    let src =
      match eval_expr g fr rhs with
      | Value.Vptr p -> p
      | v -> Value.error "struct assignment from %s" (Value.to_string v)
    in
    let size = (Ctypes.find g.reg si).Ctypes.str_size in
    Memory.blit g.mem ~src ~dst size;
    Value.Vptr dst
  | Ast.Aplain, _ -> begin
    match frame_slot g.tc fr.in_mem lhs with
    | Some slot ->
      let v = coerce tl (eval_expr g fr rhs) in
      fr.vals.(slot) <- v;
      v
    | None ->
      let loc = eval_lvalue g fr lhs in
      let v = coerce tl (eval_expr g fr rhs) in
      Memory.store g.mem loc v;
      v
  end
  | _, _ -> begin
    let bop = Option.get (Ast.binop_of_assign op) in
    (* the old value is read before [rhs] runs *)
    let update old =
      let vr = eval_expr g fr rhs in
      coerce tl
        (apply_binop g ~ta:tl ~tb:(ty_of g rhs) bop old vr ~pos:lhs.Ast.epos)
    in
    match frame_slot g.tc fr.in_mem lhs with
    | Some slot ->
      let v = update fr.vals.(slot) in
      fr.vals.(slot) <- v;
      v
    | None ->
      let loc = eval_lvalue g fr lhs in
      let v = update (Memory.load g.mem loc) in
      Memory.store g.mem loc v;
      v
  end

and incr_decr g fr (a : Ast.expr) ~delta ~pre : Value.value =
  let ty = ty_of g a in
  let step old =
    match (ty, old) with
    | Ctypes.Tptr t, Value.Vptr p ->
      Value.Vptr (Memory.offset p (delta * size_of g t))
    | Ctypes.Tptr _, Value.Vint 0 ->
      Value.error "arithmetic on a null pointer"
    | Ctypes.Tdouble, _ ->
      Value.Vfloat (Value.float_of old +. float_of_int delta)
    | _, _ -> coerce ty (Value.Vint (Value.int_of old + delta))
  in
  match frame_slot g.tc fr.in_mem a with
  | Some slot ->
    let old = fr.vals.(slot) in
    let fresh = step old in
    fr.vals.(slot) <- fresh;
    if pre then fresh else old
  | None ->
    let loc = eval_lvalue g fr a in
    let old = Memory.load g.mem loc in
    let fresh = step old in
    Memory.store g.mem loc fresh;
    if pre then fresh else old

(* ------------------------------------------------------------------ *)
(* Calls and function execution *)

and eval_call g fr (e : Ast.expr) (fn_expr : Ast.expr) (args : Ast.expr list)
    : Value.value =
  (* call-site profiling *)
  (match Hashtbl.find_opt g.site_of_expr e.Ast.eid with
  | Some cs_id ->
    g.profile.Profile.site_counts.(cs_id) <-
      g.profile.Profile.site_counts.(cs_id) +. 1.0
  | None -> ());
  let callee = eval_expr g fr fn_expr in
  let arg_values =
    List.map
      (fun (a : Ast.expr) ->
        match ty_of g a with
        | Ctypes.Tstruct _ -> Value.Vptr (eval_lvalue g fr a)
        | _ -> eval_expr g fr a)
      args
  in
  match callee with
  | Value.Vfun (Value.Fbuiltin name) -> Builtins.call g.bctx name arg_values
  | Value.Vfun (Value.Fuser name) -> begin
    match Cfg.find_fn g.prog name with
    | Some fn -> exec_fn g fn arg_values
    | None -> Value.error "call to undefined function %s" name
  end
  | v -> Value.error "calling a non-function value %s" (Value.to_string v)

and exec_fn (g : genv) (fn : Cfg.fn) (args : Value.value list) : Value.value
    =
  if g.depth >= max_call_depth then call_too_deep ();
  let fi = fn.Cfg.fn_info in
  let in_mem =
    match Hashtbl.find_opt g.slot_rules fn.Cfg.fn_name with
    | Some r -> r
    | None ->
      let r = needs_block g.tc fn in
      Hashtbl.replace g.slot_rules fn.Cfg.fn_name r;
      r
  in
  let locals =
    Array.mapi
      (fun i (li : Typecheck.local_info) ->
        if in_mem.(i) then
          Memory.alloc g.mem
            (size_of g li.Typecheck.l_ty)
            ~tag:(fn.Cfg.fn_name ^ "." ^ li.Typecheck.l_name)
        else no_block)
      fi.Typecheck.fi_locals
  in
  let vals = Array.make (Array.length locals) (Value.Vint 0) in
  let fr = { fn; in_mem; locals; vals } in
  (* bind parameters *)
  List.iteri
    (fun i v ->
      let li = fi.Typecheck.fi_locals.(i) in
      match li.Typecheck.l_ty with
      | ty when not in_mem.(i) -> fr.vals.(i) <- coerce ty v
      | Ctypes.Tstruct si -> begin
        match v with
        | Value.Vptr src ->
          Memory.blit g.mem ~src ~dst:locals.(i)
            (Ctypes.find g.reg si).Ctypes.str_size
        | v -> Value.error "struct argument is %s" (Value.to_string v)
      end
      | ty -> Memory.store g.mem locals.(i) (coerce ty v))
    args;
  let counters = Profile.fn_counters g.profile fn.Cfg.fn_name in
  g.depth <- g.depth + 1;
  if g.depth > g.peak_depth then g.peak_depth <- g.depth;
  let result = exec_blocks g fr counters fn.Cfg.fn_entry in
  g.depth <- g.depth - 1;
  Array.iteri (fun i p -> if in_mem.(i) then Memory.kill g.mem p) locals;
  coerce fn.Cfg.fn_def.Ast.f_ret result

and exec_blocks g fr (counters : Profile.fn_counters) (start : int) :
    Value.value =
  let blocks = fr.fn.Cfg.fn_blocks in
  let rec run bid : Value.value =
    if g.fuel <= 0 then raise Out_of_fuel;
    g.clock_tick <- g.clock_tick - 1;
    if g.clock_tick <= 0 then begin
      g.clock_tick <- clock_check_interval;
      if Unix.gettimeofday () >= g.deadline then raise Out_of_wall_clock
    end;
    let blk = blocks.(bid) in
    counters.Profile.block_counts.(bid) <-
      counters.Profile.block_counts.(bid) +. 1.0;
    g.fuel <- g.fuel - 1 - List.length blk.Cfg.b_instrs;
    g.profile.Profile.work <-
      g.profile.Profile.work +. 1.0 +. float_of_int (List.length blk.Cfg.b_instrs);
    List.iter (exec_instr g fr) blk.Cfg.b_instrs;
    match blk.Cfg.b_term with
    | Cfg.Tjump next -> run next
    | Cfg.Tbranch (br, t, f) ->
      let v = truthy (eval_expr g fr br.Cfg.br_cond) in
      if v then
        counters.Profile.branch_taken.(bid) <-
          counters.Profile.branch_taken.(bid) +. 1.0
      else
        counters.Profile.branch_not_taken.(bid) <-
          counters.Profile.branch_not_taken.(bid) +. 1.0;
      run (if v then t else f)
    | Cfg.Tswitch (scrutinee, cases, default) ->
      let v = Value.int_of (eval_expr g fr scrutinee) in
      let target =
        match List.assoc_opt v cases with Some t -> t | None -> default
      in
      run target
    | Cfg.Treturn (Some e) -> eval_expr g fr e
    | Cfg.Treturn None -> Value.Vint 0
  in
  run start

and exec_instr g fr = function
  | Cfg.Iexpr e -> ignore (eval_expr g fr e)
  | Cfg.Ilocal_init (slot, d) -> begin
    match d.Ast.d_init with
    | Some (Ast.Iexpr e) when not fr.in_mem.(slot) ->
      fr.vals.(slot) <- coerce d.Ast.d_ty (eval_expr g fr e)
    | Some init -> write_init g fr fr.locals.(slot) d.Ast.d_ty init
    | None -> ()
  end

(* Write an initializer into the object at [loc]. *)
and write_init g fr (loc : Value.ptr) (ty : Ctypes.ty) (init : Ast.init) :
    unit =
  match (ty, init) with
  | Ctypes.Tarray (Ctypes.Tchar, _), Ast.Iexpr { Ast.enode = Ast.StringLit s; _ }
    ->
    Memory.write_cstring g.mem loc s
  | _, Ast.Iexpr e when Ctypes.is_scalar (Ctypes.decay ty) ->
    Memory.store g.mem loc (coerce ty (eval_expr g fr e))
  | Ctypes.Tstruct si, Ast.Iexpr e -> begin
    (* struct copy initialization *)
    match eval_expr g fr e with
    | Value.Vptr src ->
      Memory.blit g.mem ~src ~dst:loc (Ctypes.find g.reg si).Ctypes.str_size
    | v -> Value.error "struct initializer is %s" (Value.to_string v)
  end
  | Ctypes.Tarray (t, _), Ast.Ilist items ->
    let sz = size_of g t in
    List.iteri
      (fun i item -> write_init g fr (Memory.offset loc (i * sz)) t item)
      items
  | Ctypes.Tstruct si, Ast.Ilist items ->
    let flds = Ctypes.fields g.reg si in
    List.iteri
      (fun i item ->
        let fld = List.nth flds i in
        write_init g fr
          (Memory.offset loc fld.Ctypes.fld_offset)
          fld.Ctypes.fld_ty item)
      items
  | _, Ast.Ilist [ item ] -> write_init g fr loc ty item
  | _ -> Value.error "unsupported initializer for %s" (Ctypes.to_string ty)

(* ------------------------------------------------------------------ *)
(* Program setup and entry *)

let init_globals (g : genv) : unit =
  let tc = g.tc in
  (* allocate storage *)
  List.iter
    (fun name ->
      let d = Hashtbl.find tc.Typecheck.globals name in
      let size = size_of g d.Ast.d_ty in
      let p = Memory.alloc g.mem size ~tag:("global " ^ name) in
      Hashtbl.replace g.globals name p)
    tc.Typecheck.global_order;
  (* run initializers (in declaration order) *)
  let fr = null_frame g in
  List.iter
    (fun name ->
      let d = Hashtbl.find tc.Typecheck.globals name in
      match d.Ast.d_init with
      | Some init -> write_init g fr (Hashtbl.find g.globals name) d.Ast.d_ty init
      | None -> ())
    tc.Typecheck.global_order

type outcome = {
  exit_code : int;
  stdout_text : string;
  profile : Profile.t;
  work : float; (* executed instruction units *)
  peak_depth : int; (* deepest nesting of C calls *)
}

(* Which budget ran out. *)
type budget_stop = Fuel | Wall_clock

let budget_stop_to_string = function
  | Fuel -> "fuel"
  | Wall_clock -> "wall-clock"

(* The typed partial-profile fault: the carried outcome holds everything
   the run produced before the budget ran out (exit code [-1] marks it
   partial). The driver records a fault and may keep the partial
   profile; a hang is never an option. *)
exception Budget_exhausted of budget_stop * outcome

let () =
  Printexc.register_printer (function
    | Budget_exhausted (stop, o) ->
      Some
        (Printf.sprintf
           "Cinterp.Eval.Budget_exhausted(%s, %.0f work units done)"
           (budget_stop_to_string stop) o.work)
    | _ -> None)

let default_fuel = 100_000_000

(* Run a program's main function. [argv] are the C-level arguments
   (argv[0] is synthesized); [input] feeds getchar(). *)
let run ?(fuel = default_fuel) ?deadline_s ?(argv = []) ?(input = "")
    (prog : Cfg.program) : outcome =
  let deadline, clock_tick =
    match deadline_s with
    | None -> (infinity, max_int)
    | Some s -> (Unix.gettimeofday () +. s, clock_check_interval)
  in
  let tc = prog.Cfg.prog_tc in
  let mem = Memory.create () in
  let site_of_expr = Hashtbl.create 64 in
  Array.iter
    (fun cs ->
      Hashtbl.replace site_of_expr cs.Cfg.cs_expr.Ast.eid cs.Cfg.cs_id)
    prog.Cfg.prog_sites;
  let g =
    { prog; tc; reg = tc.Typecheck.tunit.Ast.structs; mem;
      bctx = Builtins.create_ctx ~input mem; globals = Hashtbl.create 32;
      strings = Hashtbl.create 32; site_of_expr;
      profile = Profile.create prog; fuel; deadline; clock_tick; depth = 0;
      peak_depth = 0; slot_rules = Hashtbl.create 16 }
  in
  let finish code =
    { exit_code = code; stdout_text = Builtins.output g.bctx;
      profile = g.profile; work = g.profile.Profile.work;
      peak_depth = g.peak_depth }
  in
  match Cfg.find_fn prog "main" with
  | None -> Value.error "program has no main function"
  | Some main_fn -> begin
    try
      init_globals g;
      let args =
        match main_fn.Cfg.fn_def.Ast.f_params with
        | [] -> []
        | [ _; _ ] ->
          let all = "prog" :: argv in
          let argc = List.length all in
          let arr = Memory.alloc mem (argc + 1) ~tag:"argv" in
          List.iteri
            (fun i s ->
              let sp = intern_string g s in
              Memory.store mem (Memory.offset arr i) (Value.Vptr sp))
            all;
          Memory.store mem (Memory.offset arr argc) (Value.Vint 0);
          [ Value.Vint argc; Value.Vptr arr ]
        | _ -> Value.error "main must take () or (int, char **)"
      in
      let result = exec_fn g main_fn args in
      finish (match result with Value.Vint n -> n | _ -> 0)
    with
    | Builtins.Exit_program code -> finish code
    | Out_of_fuel -> raise (Budget_exhausted (Fuel, finish (-1)))
    | Out_of_wall_clock -> raise (Budget_exhausted (Wall_clock, finish (-1)))
  end
