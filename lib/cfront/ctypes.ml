(* Semantic types for the C subset, with layout measured in abstract cells.

   The interpreter's memory model gives every scalar (int, char, double,
   pointer) exactly one cell. Aggregates are laid out contiguously: an array
   of n T occupies n * sizeof(T) cells, a struct occupies the sum of its
   field sizes with fields at increasing offsets. This keeps layout trivial
   while preserving all control-flow-relevant behaviour. *)

type ty =
  | Tvoid
  | Tint                     (* int, long, short, enum *)
  | Tchar
  | Tdouble                  (* float and double *)
  | Tptr of ty
  | Tarray of ty * int option
  | Tfun of fun_ty
  | Tstruct of int           (* index into the struct registry *)

and fun_ty = { ret : ty; params : ty list; varargs : bool }

type field = { fld_name : string; fld_ty : ty; fld_offset : int }

type struct_def = {
  str_tag : string option;
  mutable str_fields : field list option; (* None while only forward-declared *)
  mutable str_size : int;
}

exception Type_error of string

let type_error fmt = Printf.ksprintf (fun s -> raise (Type_error s)) fmt

(* Registry of struct definitions for one translation unit. *)
type registry = { mutable items : struct_def array; mutable count : int }

let create_registry () = { items = [||]; count = 0 }

let register reg def =
  if reg.count = Array.length reg.items then begin
    let cap = max 8 (2 * reg.count) in
    let items = Array.make cap def in
    Array.blit reg.items 0 items 0 reg.count;
    reg.items <- items
  end;
  reg.items.(reg.count) <- def;
  reg.count <- reg.count + 1;
  reg.count - 1

let find reg i =
  if i < 0 || i >= reg.count then type_error "unknown struct #%d" i;
  reg.items.(i)

let fields reg i =
  match (find reg i).str_fields with
  | Some fs -> fs
  | None -> type_error "struct %s used before its definition"
              (Option.value ~default:"<anon>" (find reg i).str_tag)

let find_field reg i name =
  match List.find_opt (fun f -> f.fld_name = name) (fields reg i) with
  | Some f -> f
  | None -> type_error "struct has no field %s" name

let rec equal a b =
  match (a, b) with
  | Tvoid, Tvoid | Tint, Tint | Tchar, Tchar | Tdouble, Tdouble -> true
  | Tptr a, Tptr b -> equal a b
  | Tarray (a, n), Tarray (b, m) -> equal a b && n = m
  | Tstruct i, Tstruct j -> i = j
  | Tfun f, Tfun g ->
    equal f.ret g.ret
    && List.length f.params = List.length g.params
    && List.for_all2 equal f.params g.params
    && f.varargs = g.varargs
  | (Tvoid | Tint | Tchar | Tdouble | Tptr _ | Tarray _ | Tfun _ | Tstruct _), _
    -> false

let is_integer = function Tint | Tchar -> true | _ -> false
let is_arith = function Tint | Tchar | Tdouble -> true | _ -> false
let is_pointer = function Tptr _ | Tarray _ -> true | _ -> false
let is_scalar t = is_arith t || is_pointer t
let is_function = function Tfun _ -> true | _ -> false

(* Array-to-pointer and function-to-pointer decay for rvalue contexts. *)
let decay = function
  | Tarray (t, _) -> Tptr t
  | Tfun _ as f -> Tptr f
  | t -> t

(* Size in cells. Scalars are one cell. *)
let rec size_of reg = function
  | Tvoid -> type_error "sizeof(void)"
  | Tint | Tchar | Tdouble | Tptr _ -> 1
  | Tfun _ -> type_error "sizeof(function)"
  | Tarray (t, Some n) -> n * size_of reg t
  | Tarray (_, None) -> type_error "sizeof(incomplete array)"
  | Tstruct i ->
    let d = find reg i in
    if d.str_fields = None then
      type_error "sizeof(incomplete struct %s)"
        (Option.value ~default:"<anon>" d.str_tag);
    d.str_size

(* Lay out [raw_fields] (name, ty) pairs, computing offsets and total size.
   Mutates the registered definition in place. *)
let define_struct reg idx raw_fields =
  let d = find reg idx in
  if d.str_fields <> None then
    type_error "struct %s redefined"
      (Option.value ~default:"<anon>" d.str_tag);
  let offset = ref 0 in
  let fs =
    List.map
      (fun (name, ty) ->
        let f = { fld_name = name; fld_ty = ty; fld_offset = !offset } in
        offset := !offset + size_of reg ty;
        f)
      raw_fields
  in
  if fs = [] then type_error "empty struct";
  d.str_fields <- Some fs;
  d.str_size <- !offset

let rec to_string = function
  | Tvoid -> "void"
  | Tint -> "int"
  | Tchar -> "char"
  | Tdouble -> "double"
  | Tptr t -> to_string t ^ "*"
  | Tarray (t, Some n) -> Printf.sprintf "%s[%d]" (to_string t) n
  | Tarray (t, None) -> to_string t ^ "[]"
  | Tstruct i -> Printf.sprintf "struct#%d" i
  | Tfun f ->
    Printf.sprintf "%s(%s%s)" (to_string f.ret)
      (String.concat ", " (List.map to_string f.params))
      (if f.varargs then ", ..." else "")
