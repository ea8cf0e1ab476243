(* Block-structured store.

   Every object (global, local, malloc'd region, string literal) lives in
   its own block of cells, so out-of-bounds accesses and use-after-free
   are detected rather than silently corrupting unrelated objects — an
   interpreter-grade substitute for the paper's native execution.

   [load_at p delta] and [store_at p delta] check and report exactly as
   [load]/[store] of [offset p delta], without building that pointer. *)

type block = {
  mutable cells : Value.value array;
  mutable live : bool;
  tag : string; (* description for diagnostics *)
}

type t = { mutable blocks : block array; mutable count : int }

let create () = { blocks = [||]; count = 0 }

let alloc (m : t) (size : int) ~(tag : string) : Value.ptr =
  if size < 0 then Value.error "allocation of negative size (%s)" tag;
  let blk = { cells = Array.make (max size 0) (Value.Vint 0); live = true; tag } in
  if m.count = Array.length m.blocks then begin
    let cap = max 64 (2 * m.count) in
    let blocks =
      Array.make cap { cells = [||]; live = false; tag = "<hole>" }
    in
    Array.blit m.blocks 0 blocks 0 m.count;
    m.blocks <- blocks
  end;
  m.blocks.(m.count) <- blk;
  m.count <- m.count + 1;
  { Value.blk = m.count - 1; off = 0 }

let lookup (m : t) (p : Value.ptr) : block =
  if p.Value.blk < 0 || p.Value.blk >= m.count then
    Value.error "invalid pointer (block %d)" p.Value.blk;
  let b = m.blocks.(p.Value.blk) in
  if not b.live then
    Value.error "use of freed or dead object (%s)" b.tag;
  b

let load_at (m : t) (p : Value.ptr) (delta : int) : Value.value =
  let b = lookup m p in
  let off = p.Value.off + delta in
  if off < 0 || off >= Array.length b.cells then
    Value.error "load out of bounds (%s, offset %d of %d)" b.tag off
      (Array.length b.cells);
  Array.unsafe_get b.cells off

let store_at (m : t) (p : Value.ptr) (delta : int) (v : Value.value) : unit =
  let b = lookup m p in
  let off = p.Value.off + delta in
  if off < 0 || off >= Array.length b.cells then
    Value.error "store out of bounds (%s, offset %d of %d)" b.tag off
      (Array.length b.cells);
  Array.unsafe_set b.cells off v

let load (m : t) (p : Value.ptr) : Value.value = load_at m p 0

let store (m : t) (p : Value.ptr) (v : Value.value) : unit = store_at m p 0 v

(* Kill a block (locals going out of scope, [free]): later access is an
   error. The cells go at once; [lookup] checks [live] before any access
   reads them, so every diagnostic stays the same. *)
let kill (m : t) (p : Value.ptr) : unit =
  let b = lookup m p in
  b.live <- false;
  b.cells <- [||]

let free (m : t) (p : Value.ptr) : unit =
  if p.Value.off <> 0 then Value.error "free of interior pointer";
  kill m p

let size_of_block (m : t) (p : Value.ptr) : int =
  Array.length (lookup m p).cells

(* Pointer arithmetic stays within the address space of its block; bounds
   are only enforced on access (one-past-the-end is legal C). *)
let offset (p : Value.ptr) (delta : int) : Value.ptr =
  { p with Value.off = p.Value.off + delta }

(* Copy [n] cells from [src] to [dst] (struct assignment, memcpy). *)
let blit (m : t) ~(src : Value.ptr) ~(dst : Value.ptr) (n : int) : unit =
  for i = 0 to n - 1 do
    store m (offset dst i) (load m (offset src i))
  done

(* Fill [n] cells at [dst]. *)
let fill (m : t) ~(dst : Value.ptr) (n : int) (v : Value.value) : unit =
  for i = 0 to n - 1 do
    store m (offset dst i) v
  done

(* Read a NUL-terminated C string starting at [p]. *)
let read_cstring (m : t) (p : Value.ptr) : string =
  let buf = Buffer.create 16 in
  let rec go i =
    match load m (offset p i) with
    | Value.Vint 0 -> Buffer.contents buf
    | Value.Vint c ->
      Buffer.add_char buf (Char.chr (c land 0xff));
      go (i + 1)
    | v -> Value.error "non-character %s in string" (Value.to_string v)
  in
  go 0

(* Write string [s] plus NUL at [p]. *)
let write_cstring (m : t) (p : Value.ptr) (s : string) : unit =
  String.iteri
    (fun i c -> store m (offset p i) (Value.Vint (Char.code c)))
    s;
  store m (offset p (String.length s)) (Value.Vint 0)
