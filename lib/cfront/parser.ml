(* Recursive-descent parser for the C subset.

   Full C89 declarator syntax (including function pointers and abstract
   declarators), the complete expression precedence ladder, and all
   statement forms. Typedef names are tracked during parsing to resolve the
   declaration/expression ambiguity, as in every C compiler. *)

exception Error of string * Token.pos

type state = {
  mutable toks : Lexer.located list;
      (* the tokens not yet consumed, current first; the last one (EOF)
         is never consumed. The lexer's list is walked in place: copying
         it with [Array.of_list] forces a minor collection on every
         parse, because the runtime promotes a young initial value
         before it allocates a large array. *)
  mutable next_id : int;
  typedefs : (string, Ctypes.ty) Hashtbl.t;
  struct_tags : (string, int) Hashtbl.t;
  registry : Ctypes.registry;
  enum_consts : (string, int) Hashtbl.t;
  mutable enum_order : (string * int) list; (* reverse order of definition *)
  file : string;
}

let peek_pos st =
  match st.toks with t :: _ -> t.Lexer.pos | [] -> Token.dummy_pos

let error st msg = raise (Error (msg, peek_pos st))

let errorf st fmt = Printf.ksprintf (error st) fmt

let peek st = match st.toks with t :: _ -> t.Lexer.tok | [] -> Token.EOF

let peek_ahead st n =
  match List.nth_opt st.toks n with Some t -> t.Lexer.tok | None -> Token.EOF

let advance st =
  match st.toks with _ :: (_ :: _ as rest) -> st.toks <- rest | _ -> ()

let accept st tok =
  if peek st = tok then begin advance st; true end else false

let expect st tok =
  if not (accept st tok) then
    errorf st "expected %s but found %s" (Token.to_string tok)
      (Token.to_string (peek st))

let fresh_id st =
  let id = st.next_id in
  st.next_id <- id + 1;
  id

let mk_expr st pos enode : Ast.expr = { eid = fresh_id st; epos = pos; enode }
let mk_stmt st pos snode : Ast.stmt = { sid = fresh_id st; spos = pos; snode }

let is_typedef_name st = function
  | Token.IDENT s -> Hashtbl.mem st.typedefs s
  | _ -> false

(* Does the current token start a declaration? *)
let starts_decl st =
  match peek st with
  | Token.KW_VOID | Token.KW_CHAR | Token.KW_INT | Token.KW_LONG
  | Token.KW_SHORT | Token.KW_FLOAT | Token.KW_DOUBLE | Token.KW_SIGNED
  | Token.KW_UNSIGNED | Token.KW_STRUCT | Token.KW_UNION | Token.KW_ENUM
  | Token.KW_TYPEDEF | Token.KW_STATIC | Token.KW_EXTERN | Token.KW_AUTO
  | Token.KW_REGISTER | Token.KW_CONST | Token.KW_VOLATILE -> true
  | Token.IDENT _ as t -> is_typedef_name st t
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Constant expression evaluation (array sizes, enum values, case labels
   are folded fully in Const_fold after typechecking; the parser needs a
   small integer evaluator for sizes and enum initializers). *)

let rec eval_const_int (st : state) (e : Ast.expr) : int =
  let open Ast in
  match e.enode with
  | IntLit n -> n
  | CharLit c -> c
  | Ident name -> begin
    match Hashtbl.find_opt st.enum_consts name with
    | Some v -> v
    | None -> raise (Error ("not a constant: " ^ name, e.epos))
  end
  | Unop (Uneg, a) -> -eval_const_int st a
  | Unop (Uplus, a) -> eval_const_int st a
  | Unop (Ubnot, a) -> lnot (eval_const_int st a)
  | Unop (Unot, a) -> if eval_const_int st a = 0 then 1 else 0
  | Binop (op, a, b) -> begin
    let x = eval_const_int st a and y = eval_const_int st b in
    let bool_ v = if v then 1 else 0 in
    match op with
    | Badd -> x + y | Bsub -> x - y | Bmul -> x * y
    | Bdiv ->
      if y = 0 then raise (Error ("division by zero in constant", e.epos))
      else x / y
    | Bmod ->
      if y = 0 then raise (Error ("division by zero in constant", e.epos))
      else x mod y
    | Bshl -> x lsl y | Bshr -> x asr y
    | Blt -> bool_ (x < y) | Bgt -> bool_ (x > y)
    | Ble -> bool_ (x <= y) | Bge -> bool_ (x >= y)
    | Beq -> bool_ (x = y) | Bne -> bool_ (x <> y)
    | Bband -> x land y | Bbor -> x lor y | Bbxor -> x lxor y
    | Bland -> bool_ (x <> 0 && y <> 0)
    | Blor -> bool_ (x <> 0 || y <> 0)
  end
  | Cond (c, a, b) ->
    if eval_const_int st c <> 0 then eval_const_int st a
    else eval_const_int st b
  | Cast (_, a) -> eval_const_int st a
  | SizeofT t -> Ctypes.size_of st.registry t
  | _ -> raise (Error ("expected integer constant expression", e.epos))

(* ------------------------------------------------------------------ *)
(* A binary operator token's precedence level, lowest first, and its
   operator. *)

let binop_of : Token.t -> (int * Ast.binop) option = function
  | Token.OROR -> Some (0, Ast.Blor)
  | Token.ANDAND -> Some (1, Ast.Bland)
  | Token.PIPE -> Some (2, Ast.Bbor)
  | Token.CARET -> Some (3, Ast.Bbxor)
  | Token.AMP -> Some (4, Ast.Bband)
  | Token.EQEQ -> Some (5, Ast.Beq) | Token.NEQ -> Some (5, Ast.Bne)
  | Token.LT -> Some (6, Ast.Blt) | Token.GT -> Some (6, Ast.Bgt)
  | Token.LE -> Some (6, Ast.Ble) | Token.GE -> Some (6, Ast.Bge)
  | Token.LSHIFT -> Some (7, Ast.Bshl) | Token.RSHIFT -> Some (7, Ast.Bshr)
  | Token.PLUS -> Some (8, Ast.Badd) | Token.MINUS -> Some (8, Ast.Bsub)
  | Token.STAR -> Some (9, Ast.Bmul) | Token.SLASH -> Some (9, Ast.Bdiv)
  | Token.PERCENT -> Some (9, Ast.Bmod)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Declaration specifiers and declarators *)

type specs = {
  base : Ctypes.ty;
  is_typedef : bool;
  is_static : bool;
  is_extern : bool;
}

type decl_shape =
  | Dname of string option
  | Dptr of decl_shape
  | Darr of decl_shape * int option
  | Dfun of decl_shape * (string option * Ctypes.ty) list * bool

let rec ty_of_shape base = function
  | Dname _ -> base
  | Dptr d -> ty_of_shape (Ctypes.Tptr base) d
  | Darr (d, n) -> ty_of_shape (Ctypes.Tarray (base, n)) d
  | Dfun (d, params, varargs) ->
    let params = List.map snd params in
    ty_of_shape (Ctypes.Tfun { ret = base; params; varargs }) d

let rec shape_name = function
  | Dname n -> n
  | Dptr d | Darr (d, _) | Dfun (d, _, _) -> shape_name d

(* If the declarator is of the form [name(params)] (possibly under pointer
   return types), return the components: it is a candidate function
   definition head. *)
let rec as_fun_head = function
  | Dptr d -> as_fun_head d
  | Dfun (Dname (Some name), params, varargs) -> Some (name, params, varargs)
  | _ -> None

let rec parse_specs st : specs =
  let is_typedef = ref false
  and is_static = ref false
  and is_extern = ref false in
  (* Collected simple type keywords *)
  let saw_void = ref false and saw_char = ref false and saw_float = ref false
  and saw_double = ref false and saw_int_like = ref false in
  let base = ref None in
  let set_base t =
    if !base <> None then error st "multiple type specifiers";
    base := Some t
  in
  let continue_ = ref true in
  while !continue_ do
    (match peek st with
    | Token.KW_TYPEDEF -> advance st; is_typedef := true
    | Token.KW_STATIC -> advance st; is_static := true
    | Token.KW_EXTERN -> advance st; is_extern := true
    | Token.KW_AUTO | Token.KW_REGISTER | Token.KW_CONST | Token.KW_VOLATILE ->
      advance st
    | Token.KW_VOID -> advance st; saw_void := true
    | Token.KW_CHAR -> advance st; saw_char := true
    | Token.KW_FLOAT -> advance st; saw_float := true
    | Token.KW_DOUBLE -> advance st; saw_double := true
    | Token.KW_INT | Token.KW_LONG | Token.KW_SHORT | Token.KW_SIGNED
    | Token.KW_UNSIGNED ->
      advance st;
      saw_int_like := true
    | Token.KW_STRUCT -> set_base (parse_struct_spec st)
    | Token.KW_UNION -> error st "union is not supported by this C subset"
    | Token.KW_ENUM -> set_base (parse_enum_spec st)
    | Token.IDENT name
      when Hashtbl.mem st.typedefs name
           && !base = None && not (!saw_void || !saw_char || !saw_float
                                   || !saw_double || !saw_int_like) ->
      advance st;
      set_base (Hashtbl.find st.typedefs name)
    | _ -> continue_ := false)
  done;
  let base =
    match !base with
    | Some t ->
      if !saw_void || !saw_char || !saw_float || !saw_double || !saw_int_like
      then error st "conflicting type specifiers";
      t
    | None ->
      if !saw_void then Ctypes.Tvoid
      else if !saw_char then Ctypes.Tchar
      else if !saw_float || !saw_double then Ctypes.Tdouble
      else Ctypes.Tint (* int/long/short/signed/unsigned, or implicit int *)
  in
  { base; is_typedef = !is_typedef; is_static = !is_static;
    is_extern = !is_extern }

and parse_struct_spec st : Ctypes.ty =
  expect st Token.KW_STRUCT;
  let tag =
    match peek st with
    | Token.IDENT s -> advance st; Some s
    | _ -> None
  in
  let idx =
    match tag with
    | Some tag -> begin
      match Hashtbl.find_opt st.struct_tags tag with
      | Some idx -> idx
      | None ->
        let idx =
          Ctypes.register st.registry
            { Ctypes.str_tag = Some tag; str_fields = None; str_size = 0 }
        in
        Hashtbl.add st.struct_tags tag idx;
        idx
    end
    | None ->
      Ctypes.register st.registry
        { Ctypes.str_tag = None; str_fields = None; str_size = 0 }
  in
  if accept st Token.LBRACE then begin
    let fields = ref [] in
    while peek st <> Token.RBRACE do
      let specs = parse_specs st in
      if specs.is_typedef then error st "typedef inside struct";
      let rec field_loop () =
        let shape = parse_declarator st in
        let name =
          match shape_name shape with
          | Some n -> n
          | None -> error st "struct field needs a name"
        in
        let ty = ty_of_shape specs.base shape in
        fields := (name, ty) :: !fields;
        if accept st Token.COMMA then field_loop ()
      in
      field_loop ();
      expect st Token.SEMI
    done;
    expect st Token.RBRACE;
    (try Ctypes.define_struct st.registry idx (List.rev !fields)
     with Ctypes.Type_error m -> error st m)
  end;
  Ctypes.Tstruct idx

and parse_enum_spec st : Ctypes.ty =
  expect st Token.KW_ENUM;
  (match peek st with Token.IDENT _ -> advance st | _ -> ());
  if accept st Token.LBRACE then begin
    let next = ref 0 in
    let rec enum_loop () =
      match peek st with
      | Token.IDENT name ->
        advance st;
        let value =
          if accept st Token.ASSIGN then begin
            let e = parse_conditional st in
            eval_const_int st e
          end
          else !next
        in
        next := value + 1;
        Hashtbl.replace st.enum_consts name value;
        st.enum_order <- (name, value) :: st.enum_order;
        if accept st Token.COMMA then
          if peek st <> Token.RBRACE then enum_loop ()
      | _ -> error st "expected enumerator name"
    in
    enum_loop ();
    expect st Token.RBRACE
  end;
  Ctypes.Tint

(* declarator := "*" qualifiers declarator | direct_declarator *)
and parse_declarator st : decl_shape =
  if accept st Token.STAR then begin
    while accept st Token.KW_CONST || accept st Token.KW_VOLATILE do () done;
    Dptr (parse_declarator st)
  end
  else parse_direct_declarator st

and parse_direct_declarator st : decl_shape =
  let prefix =
    match peek st with
    | Token.IDENT name -> advance st; Dname (Some name)
    | Token.LPAREN ->
      (* Disambiguate a parenthesized declarator from a parameter-list
         suffix of an omitted name, as in the abstract declarator for a
         function-pointer type. *)
      if starts_decl st
         || peek_ahead st 1 = Token.RPAREN
         ||
         (match peek_ahead st 1 with
         | Token.KW_VOID | Token.KW_CHAR | Token.KW_INT | Token.KW_LONG
         | Token.KW_SHORT | Token.KW_FLOAT | Token.KW_DOUBLE
         | Token.KW_SIGNED | Token.KW_UNSIGNED | Token.KW_STRUCT
         | Token.KW_UNION | Token.KW_ENUM | Token.KW_CONST
         | Token.KW_VOLATILE -> true
         | Token.IDENT s -> Hashtbl.mem st.typedefs s
         | _ -> false)
      then Dname None (* leave "(" for the suffix loop *)
      else begin
        advance st;
        let inner = parse_declarator st in
        expect st Token.RPAREN;
        inner
      end
    | _ -> Dname None (* abstract declarator *)
  in
  let rec suffixes shape =
    match peek st with
    | Token.LBRACKET ->
      advance st;
      let n =
        if peek st = Token.RBRACKET then None
        else Some (eval_const_int st (parse_conditional st))
      in
      expect st Token.RBRACKET;
      suffixes (Darr (shape, n))
    | Token.LPAREN ->
      advance st;
      let params, varargs = parse_params st in
      expect st Token.RPAREN;
      suffixes (Dfun (shape, params, varargs))
    | _ -> shape
  in
  suffixes prefix

(* Parameter list (after the opening paren). Handles (void), (), and a
   trailing "...". Parameter arrays and functions decay to pointers. *)
and parse_params st : (string option * Ctypes.ty) list * bool =
  if peek st = Token.RPAREN then ([], false)
  else if peek st = Token.KW_VOID && peek_ahead st 1 = Token.RPAREN then begin
    advance st;
    ([], false)
  end
  else begin
    let params = ref [] in
    let varargs = ref false in
    let rec loop () =
      if accept st Token.ELLIPSIS then varargs := true
      else begin
        let specs = parse_specs st in
        if specs.is_typedef then error st "typedef in parameter list";
        let shape = parse_declarator st in
        let ty = Ctypes.decay (ty_of_shape specs.base shape) in
        params := (shape_name shape, ty) :: !params;
        if accept st Token.COMMA then loop ()
      end
    in
    loop ();
    (List.rev !params, !varargs)
  end

(* type_name := specs abstract_declarator — used in casts and sizeof *)
and parse_type_name st : Ctypes.ty =
  let specs = parse_specs st in
  if specs.is_typedef then error st "typedef in type name";
  let shape = parse_declarator st in
  if shape_name shape <> None then error st "unexpected name in type";
  ty_of_shape specs.base shape

(* ------------------------------------------------------------------ *)
(* Expressions *)

and parse_expr st : Ast.expr =
  let pos = peek_pos st in
  let e = parse_assignment st in
  if peek st = Token.COMMA then begin
    advance st;
    let rest = parse_expr st in
    mk_expr st pos (Ast.Comma (e, rest))
  end
  else e

and parse_assignment st : Ast.expr =
  let pos = peek_pos st in
  let lhs = parse_conditional st in
  let assign op =
    advance st;
    let rhs = parse_assignment st in
    mk_expr st pos (Ast.Assign (op, lhs, rhs))
  in
  match peek st with
  | Token.ASSIGN -> assign Ast.Aplain
  | Token.PLUS_ASSIGN -> assign Ast.Aadd
  | Token.MINUS_ASSIGN -> assign Ast.Asub
  | Token.STAR_ASSIGN -> assign Ast.Amul
  | Token.SLASH_ASSIGN -> assign Ast.Adiv
  | Token.PERCENT_ASSIGN -> assign Ast.Amod
  | Token.AMP_ASSIGN -> assign Ast.Aband
  | Token.PIPE_ASSIGN -> assign Ast.Abor
  | Token.CARET_ASSIGN -> assign Ast.Abxor
  | Token.LSHIFT_ASSIGN -> assign Ast.Ashl
  | Token.RSHIFT_ASSIGN -> assign Ast.Ashr
  | _ -> lhs

and parse_conditional st : Ast.expr =
  let pos = peek_pos st in
  let c = parse_binary st 0 in
  if accept st Token.QUESTION then begin
    let a = parse_expr st in
    expect st Token.COLON;
    let b = parse_conditional st in
    mk_expr st pos (Ast.Cond (c, a, b))
  end
  else c

(* Precedence climbing: every binary operator at [level] or above
   extends the left operand; its right operand takes only operators that
   bind tighter, which makes all of them left-associative. Every node of
   one climb carries the position of its leftmost operand. *)
and parse_binary st level : Ast.expr =
  let pos = peek_pos st in
  let lhs = ref (parse_cast st) in
  let continue_ = ref true in
  while !continue_ do
    match binop_of (peek st) with
    | Some (l, op) when l >= level ->
      advance st;
      let rhs = parse_binary st (l + 1) in
      lhs := mk_expr st pos (Ast.Binop (op, !lhs, rhs))
    | _ -> continue_ := false
  done;
  !lhs

and parse_cast st : Ast.expr =
  let pos = peek_pos st in
  if peek st = Token.LPAREN
     && (match peek_ahead st 1 with
        | Token.KW_VOID | Token.KW_CHAR | Token.KW_INT | Token.KW_LONG
        | Token.KW_SHORT | Token.KW_FLOAT | Token.KW_DOUBLE | Token.KW_SIGNED
        | Token.KW_UNSIGNED | Token.KW_STRUCT | Token.KW_UNION | Token.KW_ENUM
        | Token.KW_CONST | Token.KW_VOLATILE -> true
        | Token.IDENT s -> Hashtbl.mem st.typedefs s
        | _ -> false)
  then begin
    advance st;
    let ty = parse_type_name st in
    expect st Token.RPAREN;
    let e = parse_cast st in
    mk_expr st pos (Ast.Cast (ty, e))
  end
  else parse_unary st

and parse_unary st : Ast.expr =
  let pos = peek_pos st in
  let unop u =
    advance st;
    let e = parse_cast st in
    mk_expr st pos (Ast.Unop (u, e))
  in
  match peek st with
  | Token.MINUS -> unop Ast.Uneg
  | Token.PLUS -> unop Ast.Uplus
  | Token.BANG -> unop Ast.Unot
  | Token.TILDE -> unop Ast.Ubnot
  | Token.STAR -> unop Ast.Uderef
  | Token.AMP -> unop Ast.Uaddr
  | Token.PLUSPLUS ->
    advance st;
    let e = parse_unary st in
    mk_expr st pos (Ast.PreIncr e)
  | Token.MINUSMINUS ->
    advance st;
    let e = parse_unary st in
    mk_expr st pos (Ast.PreDecr e)
  | Token.KW_SIZEOF ->
    advance st;
    if peek st = Token.LPAREN
       && (match peek_ahead st 1 with
          | Token.KW_VOID | Token.KW_CHAR | Token.KW_INT | Token.KW_LONG
          | Token.KW_SHORT | Token.KW_FLOAT | Token.KW_DOUBLE
          | Token.KW_SIGNED | Token.KW_UNSIGNED | Token.KW_STRUCT
          | Token.KW_UNION | Token.KW_ENUM | Token.KW_CONST
          | Token.KW_VOLATILE -> true
          | Token.IDENT s -> Hashtbl.mem st.typedefs s
          | _ -> false)
    then begin
      advance st; (* consume "(" *)
      let ty = parse_type_name st in
      expect st Token.RPAREN;
      mk_expr st pos (Ast.SizeofT ty)
    end
    else begin
      let e = parse_unary st in
      mk_expr st pos (Ast.SizeofE e)
    end
  | _ -> parse_postfix st

and parse_postfix st : Ast.expr =
  let pos = peek_pos st in
  let e = ref (parse_primary st) in
  let continue_ = ref true in
  while !continue_ do
    match peek st with
    | Token.LBRACKET ->
      advance st;
      let idx = parse_expr st in
      expect st Token.RBRACKET;
      e := mk_expr st pos (Ast.Index (!e, idx))
    | Token.LPAREN ->
      advance st;
      let args = ref [] in
      if peek st <> Token.RPAREN then begin
        let rec loop () =
          args := parse_assignment st :: !args;
          if accept st Token.COMMA then loop ()
        in
        loop ()
      end;
      expect st Token.RPAREN;
      e := mk_expr st pos (Ast.Call (!e, List.rev !args))
    | Token.DOT ->
      advance st;
      (match peek st with
      | Token.IDENT f ->
        advance st;
        e := mk_expr st pos (Ast.Field (!e, f))
      | _ -> error st "expected field name after '.'")
    | Token.ARROW ->
      advance st;
      (match peek st with
      | Token.IDENT f ->
        advance st;
        e := mk_expr st pos (Ast.Arrow (!e, f))
      | _ -> error st "expected field name after '->'")
    | Token.PLUSPLUS ->
      advance st;
      e := mk_expr st pos (Ast.PostIncr !e)
    | Token.MINUSMINUS ->
      advance st;
      e := mk_expr st pos (Ast.PostDecr !e)
    | _ -> continue_ := false
  done;
  !e

and parse_primary st : Ast.expr =
  let pos = peek_pos st in
  match peek st with
  | Token.INT_LIT n -> advance st; mk_expr st pos (Ast.IntLit n)
  | Token.FLOAT_LIT f -> advance st; mk_expr st pos (Ast.FloatLit f)
  | Token.CHAR_LIT c -> advance st; mk_expr st pos (Ast.CharLit c)
  | Token.STRING_LIT s -> advance st; mk_expr st pos (Ast.StringLit s)
  | Token.IDENT name -> advance st; mk_expr st pos (Ast.Ident name)
  | Token.LPAREN ->
    advance st;
    let e = parse_expr st in
    expect st Token.RPAREN;
    e
  | t -> errorf st "unexpected token %s in expression" (Token.to_string t)

(* ------------------------------------------------------------------ *)
(* Statements *)

let rec parse_stmt st : Ast.stmt =
  let pos = peek_pos st in
  match peek st with
  | Token.LBRACE -> parse_block st
  | Token.SEMI -> advance st; mk_stmt st pos Ast.Snull
  | Token.KW_IF ->
    advance st;
    expect st Token.LPAREN;
    let cond = parse_expr st in
    expect st Token.RPAREN;
    let then_ = parse_stmt st in
    let else_ = if accept st Token.KW_ELSE then Some (parse_stmt st) else None in
    mk_stmt st pos (Ast.Sif (cond, then_, else_))
  | Token.KW_WHILE ->
    advance st;
    expect st Token.LPAREN;
    let cond = parse_expr st in
    expect st Token.RPAREN;
    let body = parse_stmt st in
    mk_stmt st pos (Ast.Swhile (cond, body))
  | Token.KW_DO ->
    advance st;
    let body = parse_stmt st in
    expect st Token.KW_WHILE;
    expect st Token.LPAREN;
    let cond = parse_expr st in
    expect st Token.RPAREN;
    expect st Token.SEMI;
    mk_stmt st pos (Ast.Sdo (body, cond))
  | Token.KW_FOR ->
    advance st;
    expect st Token.LPAREN;
    let init =
      if peek st = Token.SEMI then Ast.Fnone
      else if starts_decl st then Ast.Fdecl (parse_decl_list st)
      else Ast.Fexpr (parse_expr st)
    in
    (match init with
    | Ast.Fdecl _ -> () (* decl list consumed its semicolon *)
    | _ -> expect st Token.SEMI);
    let cond = if peek st = Token.SEMI then None else Some (parse_expr st) in
    expect st Token.SEMI;
    let step = if peek st = Token.RPAREN then None else Some (parse_expr st) in
    expect st Token.RPAREN;
    let body = parse_stmt st in
    mk_stmt st pos (Ast.Sfor (init, cond, step, body))
  | Token.KW_SWITCH ->
    advance st;
    expect st Token.LPAREN;
    let e = parse_expr st in
    expect st Token.RPAREN;
    let body = parse_stmt st in
    mk_stmt st pos (Ast.Sswitch (e, body))
  | Token.KW_CASE ->
    advance st;
    let e = parse_conditional st in
    expect st Token.COLON;
    let body = parse_stmt st in
    mk_stmt st pos (Ast.Scase (e, body))
  | Token.KW_DEFAULT ->
    advance st;
    expect st Token.COLON;
    let body = parse_stmt st in
    mk_stmt st pos (Ast.Sdefault body)
  | Token.KW_BREAK ->
    advance st;
    expect st Token.SEMI;
    mk_stmt st pos Ast.Sbreak
  | Token.KW_CONTINUE ->
    advance st;
    expect st Token.SEMI;
    mk_stmt st pos Ast.Scontinue
  | Token.KW_GOTO ->
    advance st;
    (match peek st with
    | Token.IDENT label ->
      advance st;
      expect st Token.SEMI;
      mk_stmt st pos (Ast.Sgoto label)
    | _ -> error st "expected label after goto")
  | Token.KW_RETURN ->
    advance st;
    let e = if peek st = Token.SEMI then None else Some (parse_expr st) in
    expect st Token.SEMI;
    mk_stmt st pos (Ast.Sreturn e)
  | Token.IDENT label when peek_ahead st 1 = Token.COLON
                           && not (Hashtbl.mem st.typedefs label) ->
    advance st;
    advance st;
    let body = parse_stmt st in
    mk_stmt st pos (Ast.Slabel (label, body))
  | _ ->
    let e = parse_expr st in
    expect st Token.SEMI;
    mk_stmt st pos (Ast.Sexpr e)

and parse_block st : Ast.stmt =
  let pos = peek_pos st in
  expect st Token.LBRACE;
  let items = ref [] in
  while peek st <> Token.RBRACE do
    if starts_decl st then begin
      let decls = parse_decl_list st in
      List.iter (fun d -> items := Ast.Bdecl d :: !items) decls
    end
    else items := Ast.Bstmt (parse_stmt st) :: !items
  done;
  expect st Token.RBRACE;
  mk_stmt st pos (Ast.Sblock (List.rev !items))

(* Parse a declaration (specs + init declarators + ';'). Typedefs are
   registered and yield an empty list. *)
and parse_decl_list st : Ast.decl list =
  let pos = peek_pos st in
  let specs = parse_specs st in
  if peek st = Token.SEMI then begin
    (* bare "struct s { ... };" or "enum { ... };" *)
    advance st;
    []
  end
  else begin
    let decls = ref [] in
    let rec loop () =
      let dpos = peek_pos st in
      let shape = parse_declarator st in
      let name =
        match shape_name shape with
        | Some n -> n
        | None -> error st "declaration needs a name"
      in
      let ty = ty_of_shape specs.base shape in
      if specs.is_typedef then Hashtbl.replace st.typedefs name ty
      else begin
        let init =
          if accept st Token.ASSIGN then Some (parse_init st) else None
        in
        (* Complete unsized arrays from their initializer length. *)
        let ty =
          match (ty, init) with
          | Ctypes.Tarray (t, None), Some (Ast.Ilist l) ->
            Ctypes.Tarray (t, Some (List.length l))
          | Ctypes.Tarray (Ctypes.Tchar, None), Some (Ast.Iexpr e) -> begin
            match e.Ast.enode with
            | Ast.StringLit s -> Ctypes.Tarray (Ctypes.Tchar, Some (String.length s + 1))
            | _ -> ty
          end
          | _ -> ty
        in
        decls :=
          { Ast.d_id = fresh_id st; d_pos = dpos; d_name = name; d_ty = ty;
            d_init = init; d_static = specs.is_static;
            d_extern = specs.is_extern }
          :: !decls
      end;
      if accept st Token.COMMA then loop ()
    in
    loop ();
    expect st Token.SEMI;
    ignore pos;
    List.rev !decls
  end

and parse_init st : Ast.init =
  if accept st Token.LBRACE then begin
    let items = ref [] in
    if peek st <> Token.RBRACE then begin
      let rec loop () =
        items := parse_init st :: !items;
        if accept st Token.COMMA then
          if peek st <> Token.RBRACE then loop ()
      in
      loop ()
    end;
    expect st Token.RBRACE;
    Ast.Ilist (List.rev !items)
  end
  else Ast.Iexpr (parse_assignment st)

(* ------------------------------------------------------------------ *)
(* Top level *)

let parse_external st : Ast.global list =
  let specs = parse_specs st in
  if peek st = Token.SEMI then begin
    advance st;
    []
  end
  else begin
    let first_pos = peek_pos st in
    let shape = parse_declarator st in
    match as_fun_head shape with
    | Some (name, params, varargs) when peek st = Token.LBRACE ->
      if specs.is_typedef then error st "typedef with function body";
      let ret =
        (* "T *f(...)": the pointers wrapping the Dfun node apply to the
           return type, innermost first. *)
        let rec nptrs acc = function
          | Dptr d -> nptrs (acc + 1) d
          | Dfun (Dname _, _, _) -> acc
          | _ -> error st "unsupported function declarator"
        in
        let rec wrap n t = if n = 0 then t else wrap (n - 1) (Ctypes.Tptr t) in
        wrap (nptrs 0 shape) specs.base
      in
      let params =
        List.map
          (fun (n, t) ->
            match n with
            | Some n -> (n, t)
            | None -> error st "function definition parameter needs a name")
          params
      in
      let body = parse_block st in
      [ Ast.Gfun
          { f_id = fresh_id st; f_pos = first_pos; f_name = name; f_ret = ret;
            f_params = params; f_varargs = varargs;
            f_static = specs.is_static; f_body = body } ]
    | _ ->
      (* A (possibly multi-declarator) global declaration. Reuse the logic
         of parse_decl_list but we already consumed the first declarator. *)
      let globals = ref [] in
      let emit shape dpos =
        let name =
          match shape_name shape with
          | Some n -> n
          | None -> error st "declaration needs a name"
        in
        let ty = ty_of_shape specs.base shape in
        if specs.is_typedef then Hashtbl.replace st.typedefs name ty
        else begin
          let init =
            if accept st Token.ASSIGN then Some (parse_init st) else None
          in
          let ty =
            match (ty, init) with
            | Ctypes.Tarray (t, None), Some (Ast.Ilist l) ->
              Ctypes.Tarray (t, Some (List.length l))
            | Ctypes.Tarray (Ctypes.Tchar, None), Some (Ast.Iexpr e) -> begin
              match e.Ast.enode with
              | Ast.StringLit s ->
                Ctypes.Tarray (Ctypes.Tchar, Some (String.length s + 1))
              | _ -> ty
            end
            | _ -> ty
          in
          let d =
            { Ast.d_id = fresh_id st; d_pos = dpos; d_name = name; d_ty = ty;
              d_init = init; d_static = specs.is_static;
              d_extern = specs.is_extern }
          in
          let g =
            if Ctypes.is_function ty then Ast.Gfundecl d else Ast.Gvar d
          in
          globals := g :: !globals
        end
      in
      emit shape first_pos;
      while accept st Token.COMMA do
        let dpos = peek_pos st in
        let shape = parse_declarator st in
        emit shape dpos
      done;
      expect st Token.SEMI;
      List.rev !globals
  end

(* Parse a complete translation unit from preprocessed source text. *)
let parse_tunit ~file (toks : Lexer.located list) : Ast.tunit =
  let st =
    { toks; next_id = 0;
      typedefs = Hashtbl.create 16; struct_tags = Hashtbl.create 16;
      registry = Ctypes.create_registry (); enum_consts = Hashtbl.create 16;
      enum_order = []; file }
  in
  let globals = ref [] in
  while peek st <> Token.EOF do
    let gs = parse_external st in
    globals := List.rev_append gs !globals
  done;
  { Ast.globals = List.rev !globals; structs = st.registry;
    enum_consts = List.rev st.enum_order; node_count = st.next_id; file }

(* Convenience: preprocess, lex and parse a source string. [defines] are
   seeded into the preprocessor; NULL and EOF are always available. *)
let parse_string ?(defines = []) ~file src : Ast.tunit =
  let defines = [ ("NULL", "0"); ("EOF", "(-1)") ] @ defines in
  let pre = Preproc.process ~defines src in
  let toks = Lexer.tokenize ~file pre in
  parse_tunit ~file toks
