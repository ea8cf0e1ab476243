(* Per-function content hashes for incremental analysis.

   The hash of a function is a digest of a *canonical serialization* of
   everything its intra-procedural analysis results can depend on:

   - the function's signature and body, serialized from the AST with
     node ids and source positions excluded — so whitespace, comment
     and unrelated-function edits leave the hash unchanged;
   - the declarations of every global the function mentions (via the
     existing [Usage] read sets): a changed initializer or type on a
     used global must invalidate the function;
   - the prototypes of every function or builtin it names: typed call
     nodes feed the branch heuristics, so a callee signature change
     must invalidate the caller;
   - a translation-unit signature covering the struct registry and the
     resolved enum constants. [Ctypes.to_string] renders [Tstruct i]
     by registry index and [Const_fold] bakes enum values into the
     AST, so any change to either could shift meaning under an
     unchanged body text. Folding the whole unit signature into every
     hash is deliberately conservative: editing any struct or enum
     invalidates all functions, which is sound and cheap at this
     subset's scale.

   The serialization does NOT try to be a parseable pretty-print; it
   is a length-prefixed tag soup whose only contract is injectivity on
   the dependency closure above. Digests are [Digest.string] (MD5 from
   the stdlib — collision resistance against adversaries is a non-goal
   for a cache key; determinism and speed are). *)

let add_tag (buf : Buffer.t) (tag : string) = Buffer.add_string buf tag

(* The bytes of [string_of_int i], written straight into [buf]. The
   digits come from the non-positive value, which exists for every
   [int], [min_int] included. *)
let add_decimal (buf : Buffer.t) (i : int) =
  let rec digits n =
    if n <= -10 then digits (n / 10);
    Buffer.add_char buf (Char.unsafe_chr (Char.code '0' - (n mod 10)))
  in
  if i < 0 then begin
    Buffer.add_char buf '-';
    digits i
  end
  else digits (-i)

(* Length-prefix strings so concatenations cannot collide
   ("ab"+"c" vs "a"+"bc"). *)
let add_str (buf : Buffer.t) (s : string) =
  add_decimal buf (String.length s);
  Buffer.add_char buf ':';
  Buffer.add_string buf s

let add_int (buf : Buffer.t) (i : int) =
  add_decimal buf i;
  Buffer.add_char buf ';'

(* Bit-exact float serialization: %h prints the hex significand. *)
let add_float (buf : Buffer.t) (f : float) =
  Buffer.add_string buf (Printf.sprintf "%h;" f)

let add_ty (buf : Buffer.t) (ty : Ctypes.ty) = add_str buf (Ctypes.to_string ty)

let rec add_expr (buf : Buffer.t) (e : Ast.expr) =
  match e.Ast.enode with
  | Ast.IntLit i -> add_tag buf "I"; add_int buf i
  | Ast.FloatLit f -> add_tag buf "F"; add_float buf f
  | Ast.CharLit c -> add_tag buf "C"; add_int buf c
  | Ast.StringLit s -> add_tag buf "S"; add_str buf s
  | Ast.Ident name -> add_tag buf "V"; add_str buf name
  | Ast.Unop (op, a) ->
    add_tag buf "U"; add_str buf (Ast.unop_to_string op); add_expr buf a
  | Ast.Binop (op, a, b) ->
    add_tag buf "B";
    add_str buf (Ast.binop_to_string op);
    add_expr buf a; add_expr buf b
  | Ast.Assign (op, a, b) ->
    add_tag buf "A";
    add_str buf (Ast.assign_op_to_string op);
    add_expr buf a; add_expr buf b
  | Ast.Cond (c, a, b) ->
    add_tag buf "?"; add_expr buf c; add_expr buf a; add_expr buf b
  | Ast.Call (f, args) ->
    add_tag buf "(";
    add_expr buf f;
    add_int buf (List.length args);
    List.iter (add_expr buf) args
  | Ast.Cast (ty, a) -> add_tag buf "T"; add_ty buf ty; add_expr buf a
  | Ast.Index (a, i) -> add_tag buf "["; add_expr buf a; add_expr buf i
  | Ast.Field (a, f) -> add_tag buf "."; add_expr buf a; add_str buf f
  | Ast.Arrow (a, f) -> add_tag buf ">"; add_expr buf a; add_str buf f
  | Ast.SizeofT ty -> add_tag buf "zT"; add_ty buf ty
  | Ast.SizeofE a -> add_tag buf "zE"; add_expr buf a
  | Ast.PreIncr a -> add_tag buf "+e"; add_expr buf a
  | Ast.PreDecr a -> add_tag buf "-e"; add_expr buf a
  | Ast.PostIncr a -> add_tag buf "e+"; add_expr buf a
  | Ast.PostDecr a -> add_tag buf "e-"; add_expr buf a
  | Ast.Comma (a, b) -> add_tag buf ","; add_expr buf a; add_expr buf b

let rec add_init (buf : Buffer.t) (init : Ast.init) =
  match init with
  | Ast.Iexpr e -> add_tag buf "ie"; add_expr buf e
  | Ast.Ilist items ->
    add_tag buf "il";
    add_int buf (List.length items);
    List.iter (add_init buf) items

let add_decl (buf : Buffer.t) (d : Ast.decl) =
  add_tag buf "D";
  add_str buf d.Ast.d_name;
  add_ty buf d.Ast.d_ty;
  (match d.Ast.d_init with
  | None -> add_tag buf "0"
  | Some init -> add_init buf init);
  add_int buf (Bool.to_int d.Ast.d_static);
  add_int buf (Bool.to_int d.Ast.d_extern)

let rec add_stmt (buf : Buffer.t) (s : Ast.stmt) =
  match s.Ast.snode with
  | Ast.Sexpr e -> add_tag buf "sE"; add_expr buf e
  | Ast.Sblock items ->
    add_tag buf "s{";
    add_int buf (List.length items);
    List.iter
      (function
        | Ast.Bstmt s -> add_stmt buf s
        | Ast.Bdecl d -> add_decl buf d)
      items
  | Ast.Sif (c, t, f) ->
    add_tag buf "sI";
    add_expr buf c;
    add_stmt buf t;
    (match f with
    | None -> add_tag buf "0"
    | Some f -> add_tag buf "1"; add_stmt buf f)
  | Ast.Swhile (c, b) -> add_tag buf "sW"; add_expr buf c; add_stmt buf b
  | Ast.Sdo (b, c) -> add_tag buf "sD"; add_stmt buf b; add_expr buf c
  | Ast.Sfor (init, cond, step, b) ->
    add_tag buf "sF";
    (match init with
    | Ast.Fnone -> add_tag buf "0"
    | Ast.Fexpr e -> add_tag buf "e"; add_expr buf e
    | Ast.Fdecl ds ->
      add_tag buf "d";
      add_int buf (List.length ds);
      List.iter (add_decl buf) ds);
    (match cond with
    | None -> add_tag buf "0"
    | Some e -> add_tag buf "1"; add_expr buf e);
    (match step with
    | None -> add_tag buf "0"
    | Some e -> add_tag buf "1"; add_expr buf e);
    add_stmt buf b
  | Ast.Sswitch (c, b) -> add_tag buf "sS"; add_expr buf c; add_stmt buf b
  | Ast.Scase (c, b) -> add_tag buf "sC"; add_expr buf c; add_stmt buf b
  | Ast.Sdefault b -> add_tag buf "sO"; add_stmt buf b
  | Ast.Sbreak -> add_tag buf "sB"
  | Ast.Scontinue -> add_tag buf "sK"
  | Ast.Sgoto l -> add_tag buf "sG"; add_str buf l
  | Ast.Slabel (l, b) -> add_tag buf "sL"; add_str buf l; add_stmt buf b
  | Ast.Sreturn None -> add_tag buf "sR0"
  | Ast.Sreturn (Some e) -> add_tag buf "sR1"; add_expr buf e
  | Ast.Snull -> add_tag buf "s;"

let add_fun_ty (buf : Buffer.t) (fty : Ctypes.fun_ty) =
  add_ty buf fty.Ctypes.ret;
  add_int buf (List.length fty.Ctypes.params);
  List.iter (add_ty buf) fty.Ctypes.params;
  add_int buf (Bool.to_int fty.Ctypes.varargs)

let add_fundef (buf : Buffer.t) (f : Ast.fundef) =
  add_tag buf "fn";
  add_str buf f.Ast.f_name;
  add_ty buf f.Ast.f_ret;
  add_int buf (List.length f.Ast.f_params);
  List.iter
    (fun (name, ty) -> add_str buf name; add_ty buf ty)
    f.Ast.f_params;
  add_int buf (Bool.to_int f.Ast.f_varargs);
  add_int buf (Bool.to_int f.Ast.f_static);
  add_stmt buf f.Ast.f_body

(* ------------------------------------------------------------------ *)
(* Translation-unit signature: struct registry + enum constants. *)

let unit_signature (tc : Typecheck.t) : string =
  let buf = Buffer.create 256 in
  let reg = tc.Typecheck.tunit.Ast.structs in
  add_tag buf "structs";
  add_int buf reg.Ctypes.count;
  for i = 0 to reg.Ctypes.count - 1 do
    let d = reg.Ctypes.items.(i) in
    add_str buf (Option.value ~default:"" d.Ctypes.str_tag);
    (match d.Ctypes.str_fields with
    | None -> add_tag buf "fwd"
    | Some fs ->
      add_int buf (List.length fs);
      List.iter
        (fun (fld : Ctypes.field) ->
          add_str buf fld.Ctypes.fld_name;
          add_ty buf fld.Ctypes.fld_ty;
          add_int buf fld.Ctypes.fld_offset)
        fs);
    add_int buf d.Ctypes.str_size
  done;
  add_tag buf "enums";
  let enums =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) tc.Typecheck.enum_values []
    |> List.sort compare
  in
  add_int buf (List.length enums);
  List.iter (fun (k, v) -> add_str buf k; add_int buf v) enums;
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* ------------------------------------------------------------------ *)
(* Function hash. *)

(* Distinct names the body resolves to functions/builtins, with the
   callee prototype folded in for user functions. *)
let add_callees (buf : Buffer.t) (tc : Typecheck.t) (f : Ast.fundef) =
  let seen = Hashtbl.create 8 in
  Ast.iter_stmt f.Ast.f_body
    ~on_stmt:(fun _ -> ())
    ~on_expr:(fun (e : Ast.expr) ->
      match e.Ast.enode with
      | Ast.Ident name -> begin
        match Typecheck.resolution_of tc e with
        | Some (Typecheck.Rfun _) -> Hashtbl.replace seen name `Fun
        | Some (Typecheck.Rbuiltin _) -> Hashtbl.replace seen name `Builtin
        | _ -> ()
      end
      | _ -> ());
  let callees =
    Hashtbl.fold (fun name kind acc -> (name, kind) :: acc) seen []
    |> List.sort compare
  in
  add_tag buf "callees";
  add_int buf (List.length callees);
  List.iter
    (fun (name, kind) ->
      add_str buf name;
      match kind with
      | `Builtin -> add_tag buf "builtin"
      | `Fun -> begin
        add_tag buf "user";
        match Typecheck.fun_info tc name with
        | Some fi -> add_fun_ty buf fi.Typecheck.fi_ty
        | None -> add_tag buf "proto-only"
      end)
    callees

(* Declarations of the globals the function mentions, from the [Usage]
   read sets (every [Ident] occurrence counts as a read there, stores
   included, so this is the full mentioned-globals set). *)
let add_used_globals (buf : Buffer.t) (tc : Typecheck.t) (usage : Usage.t) =
  let names =
    Hashtbl.fold
      (fun k _ acc ->
        match k with Usage.Vglobal g -> g :: acc | Usage.Vlocal _ -> acc)
      usage.Usage.fun_reads []
    |> List.sort_uniq compare
  in
  add_tag buf "globals";
  add_int buf (List.length names);
  List.iter
    (fun g ->
      add_str buf g;
      match Hashtbl.find_opt tc.Typecheck.globals g with
      | Some d -> add_decl buf d
      | None -> add_tag buf "undeclared")
    names

(* The content hash of one function, given the unit signature (compute
   it once per translation unit with {!unit_signature}) and the
   function's [Usage] summary. *)
let fn_hash (tc : Typecheck.t) ~(unit_sig : string) (usage : Usage.t)
    (f : Ast.fundef) : string =
  let buf = Buffer.create 1024 in
  add_str buf unit_sig;
  add_fundef buf f;
  add_used_globals buf tc usage;
  add_callees buf tc f;
  Digest.to_hex (Digest.string (Buffer.contents buf))
