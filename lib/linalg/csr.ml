(* Compressed sparse row form of the Markov system matrix.

   The Markov estimators solve (I - P^T) x = e over matrices that are
   overwhelmingly sparse: a CFG block has a couple of successors, a
   call-graph node a handful of callees, so the dense n*n build wastes
   O(n^2) memory and the elimination O(n^3) time on zeros. This module
   builds A = I - scale*P^T row by row, directly from the weighted arc
   list the estimators already produce — no dense intermediate.

   Layout: the diagonal is stored separately ([diag], dense over rows),
   off-diagonal entries in the usual row_start/cols/vals triple. Keeping
   the diagonal out of the triple means duplicate self-arcs accumulate
   into [diag] exactly as they do on the dense build's diagonal, and
   the Gauss-Seidel sweep reads a_ii without scanning its row.
   Duplicate off-diagonal arcs are left unmerged: every consumer sums a
   row's entries, so duplicates contribute identically to a merged
   entry.

   All arrays live in the per-domain [Scratch] buffers and are
   oversized; consumers must bound their loops by [n]/[row_start] and
   never by [Array.length]. A [t] is therefore only valid until the
   next solve on the same domain. *)

(* Arc producer: calls its argument once per weighted arc (src, dst, p).
   Must be re-runnable (the build makes two passes) and deliver the
   same arcs in the same order both times. *)
type arcs_iter = (int -> int -> float -> unit) -> unit

type t = {
  n : int;
  nnz : int;                (* off-diagonal entry count *)
  row_start : int array;    (* length >= n+1; row i at [row_start.(i), row_start.(i+1)) *)
  cols : int array;         (* length >= nnz *)
  vals : float array;       (* length >= nnz *)
  diag : float array;       (* length >= n; a_ii *)
}

let bad_arc src dst n =
  invalid_arg
    (Printf.sprintf "Csr.of_markov_arcs: arc (%d -> %d) outside [0, %d)" src
       dst n)

(* Build A = I - scale*P^T from the arcs: arc (src, dst, p) contributes
   -p*scale at row dst, column src. Arc endpoints are validated — a
   malformed graph surfaces as a typed [Invalid_argument] here, not an
   index error deep in a sweep. *)
let of_markov_arcs ?(scale = 1.0) ~(n : int) (arcs : arcs_iter) : t =
  let s = Scratch.get () in
  let fill = Scratch.fill s n in
  Array.fill fill 0 n 0;
  (* pass 1: validate and count off-diagonal entries per row (= dst) *)
  let nnz = ref 0 in
  arcs (fun src dst _p ->
      if src < 0 || src >= n || dst < 0 || dst >= n then bad_arc src dst n;
      if src <> dst then begin
        fill.(dst) <- fill.(dst) + 1;
        incr nnz
      end);
  let nnz = !nnz in
  let row_start = Scratch.row_start s (n + 1) in
  let acc = ref 0 in
  for i = 0 to n - 1 do
    row_start.(i) <- !acc;
    acc := !acc + fill.(i)
  done;
  row_start.(n) <- !acc;
  (* pass 2: place entries; [fill] becomes the per-row write cursor *)
  Array.blit row_start 0 fill 0 n;
  let cols = Scratch.cols s (max 1 nnz) in
  let vals = Scratch.vals s (max 1 nnz) in
  let diag = Scratch.diag s n in
  Array.fill diag 0 n 1.0;
  arcs (fun src dst p ->
      let w = -.(p *. scale) in
      if src = dst then diag.(dst) <- diag.(dst) +. w
      else begin
        let pos = fill.(dst) in
        cols.(pos) <- src;
        vals.(pos) <- w;
        fill.(dst) <- pos + 1
      end);
  { n; nnz; row_start; cols; vals; diag }

(* Largest |entry| of the matrix — the same relative-scale notion the
   dense solver's pivot threshold uses. *)
let scale_of (a : t) : float =
  let m = ref 0.0 in
  for i = 0 to a.n - 1 do
    let v = Float.abs a.diag.(i) in
    if v > !m then m := v
  done;
  for k = 0 to a.nnz - 1 do
    let v = Float.abs a.vals.(k) in
    if v > !m then m := v
  done;
  !m

(* y <- A x (for tests and residual checks). [y] may not alias [x]. *)
let mul_vec (a : t) (x : float array) (y : float array) : unit =
  for i = 0 to a.n - 1 do
    let s = ref (a.diag.(i) *. x.(i)) in
    for k = a.row_start.(i) to a.row_start.(i + 1) - 1 do
      s := !s +. (a.vals.(k) *. x.(a.cols.(k)))
    done;
    y.(i) <- !s
  done
