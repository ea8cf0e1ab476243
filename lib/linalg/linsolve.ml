(* Linear-system front end for the Markov estimators.

   The Markov models translate a CFG or call graph into the linear system
   (I - P^T) x = e (paper Figure 7). Historically this module was only
   dense Gaussian elimination with partial pivoting — entirely adequate
   for the 16-program suite, a wall for the corpus engine and the
   10^3-10^5-node synthetic graphs. It now fronts two builds of the same
   system:

   - dense: scratch-backed n*n build, elimination via [solve_inplace].
     Bit-for-bit the historical behavior — the committed BASELINE.json
     stays authoritative for this path, and it is the default.
   - sparse: CSR build ([Csr]) solved iteratively ([Iterative]),
     Gauss-Seidel first, power iteration second, and the dense solver as
     the terminal fallback so the estimator-level damping/repair chains
     above still see the exact solution (valid or not) they key off.

   Selection is a process-wide [solver_mode] set once at startup from
   [--solver dense|sparse|auto]; [Auto] picks sparse from
   [auto_sparse_threshold] nodes up. Singular systems are reported with
   the offending column so callers can diagnose structurally dead
   nodes. *)

exception Singular of int (* pivot column with no usable pivot *)

let epsilon = 1e-12

type mode = Dense | Sparse | Auto

(* Dense is the default: bit-identical to the committed baseline. *)
let solver_mode : mode ref = ref Dense

let mode_to_string = function
  | Dense -> "dense"
  | Sparse -> "sparse"
  | Auto -> "auto"

(* [Auto] switches to the sparse path at this system size: below it the
   dense elimination is at worst tens of microseconds and exactness is
   worth more than speed; above it O(n^3) starts to tell. *)
let auto_sparse_threshold = 128

(* Largest n for which the sparse path may fall back to the dense
   solver: an n*n double matrix above this (> ~3 GB) is not a fallback,
   it is an OOM. Beyond the limit a divergent iterative solve reports
   [Singular] instead, handing control to the estimator-level damping
   chain (which damps and retries — exactly what a divergent undamped
   system needs). *)
let dense_fallback_limit = 20_000

(* Solve A x = b, destroying [m] and [x]; returns [x]. Callers that
   build a throwaway system (the Markov estimators) use this directly to
   skip the defensive O(n²) copy in [solve]. [m.data] may be an
   oversized scratch buffer; only the first rows*cols entries are
   read or written. *)
let solve_inplace (m : Matrix.t) (x : float array) : float array =
  let n = m.Matrix.rows in
  if m.Matrix.cols <> n then invalid_arg "Linsolve.solve: not square";
  if Array.length x <> n then invalid_arg "Linsolve.solve: bad rhs";
  Obs.Probe.count "linsolve.solve";
  Obs.Hist.time "linsolve.solve.ns" @@ fun () ->
  Obs.Probe.with_span "linsolve" @@ fun () ->
  let data = m.Matrix.data in
  let idx i j = (i * n) + j in
  (* Singularity is judged relative to the matrix scale (largest |entry|
     of the input): an absolute cutoff misclassifies well-conditioned
     systems whose entries are uniformly tiny and accepts numerically
     meaningless pivots on huge ones. All-zero matrices fall back to the
     absolute epsilon, which rejects their zero pivots. The scan is
     index-bounded, never [Array.iter]: scratch-backed [data] extends
     past the live n*n prefix. *)
  let scale = ref 0.0 in
  for k = 0 to (n * n) - 1 do
    let v = abs_float data.(k) in
    if v > !scale then scale := v
  done;
  let threshold = epsilon *. if !scale > 0.0 then !scale else 1.0 in
  let min_pivot = ref infinity in
  for col = 0 to n - 1 do
    (* partial pivot: largest |value| in this column at or below [col] *)
    let pivot_row = ref col in
    for r = col + 1 to n - 1 do
      if abs_float data.(idx r col) > abs_float data.(idx !pivot_row col)
      then pivot_row := r
    done;
    let pivot = data.(idx !pivot_row col) in
    if abs_float pivot < threshold then begin
      Obs.Probe.count "linsolve.singular";
      raise (Singular col)
    end;
    min_pivot := Float.min !min_pivot (abs_float pivot);
    if !pivot_row <> col then begin
      for j = 0 to n - 1 do
        let tmp = data.(idx col j) in
        data.(idx col j) <- data.(idx !pivot_row j);
        data.(idx !pivot_row j) <- tmp
      done;
      let tmp = x.(col) in
      x.(col) <- x.(!pivot_row);
      x.(!pivot_row) <- tmp
    end;
    (* eliminate below *)
    for r = col + 1 to n - 1 do
      let factor = data.(idx r col) /. data.(idx col col) in
      if factor <> 0.0 then begin
        data.(idx r col) <- 0.0;
        for j = col + 1 to n - 1 do
          data.(idx r j) <- data.(idx r j) -. (factor *. data.(idx col j))
        done;
        x.(r) <- x.(r) -. (factor *. x.(col))
      end
    done
  done;
  Obs.Probe.set_gauge "linsolve.pivot" !min_pivot;
  (* back substitution *)
  for row = n - 1 downto 0 do
    let s = ref x.(row) in
    for j = row + 1 to n - 1 do
      s := !s -. (data.(idx row j) *. x.(j))
    done;
    x.(row) <- !s /. data.(idx row row)
  done;
  x

(* Solve A x = b on copies; [a] and [b] are left untouched. *)
let solve (a : Matrix.t) (b : float array) : float array =
  solve_inplace (Matrix.copy a) (Array.copy b)

let bad_arc src dst n =
  invalid_arg
    (Printf.sprintf
       "Linsolve.markov_frequencies: arc (%d -> %d) outside [0, %d)" src dst
       n)

(* Dense build of (I - scale*P^T) x = e_source on the per-domain scratch
   buffer, eliminated in place. Arithmetically identical to the former
   per-solve [Matrix] build: same zero initialization, same
   accumulation order, same [-. (p *. scale)] contributions — this path
   must stay bit-for-bit stable against BASELINE.json. The solution
   vector is freshly allocated (it escapes). *)
let solve_dense ~(scale : float) ~(n : int) ~(source : int)
    (arcs : Csr.arcs_iter) : float array =
  let s = Scratch.get () in
  let data = Scratch.dense s (n * n) in
  Array.fill data 0 (n * n) 0.0;
  for i = 0 to n - 1 do
    data.((i * n) + i) <- 1.0
  done;
  arcs (fun src dst p ->
      if src < 0 || src >= n || dst < 0 || dst >= n then bad_arc src dst n;
      let k = (dst * n) + src in
      data.(k) <- data.(k) +. (-.(p *. scale)));
  let b = Array.make n 0.0 in
  b.(source) <- 1.0;
  solve_inplace { Matrix.rows = n; cols = n; data } b

(* Sparse path: CSR build, Gauss-Seidel, then power iteration, then the
   dense solver as terminal fallback (size permitting). Returns a fresh
   solution vector. *)
let solve_sparse ~(scale : float) ~(n : int) ~(source : int)
    (arcs : Csr.arcs_iter) : float array =
  Obs.Probe.count "linsolve.sparse.solve";
  Obs.Hist.time "linsolve.solve.ns" @@ fun () ->
  Obs.Probe.with_span "linsolve.sparse" @@ fun () ->
  let a = Csr.of_markov_arcs ~scale ~n arcs in
  let b = Scratch.rhs (Scratch.get ()) n in
  Array.fill b 0 n 0.0;
  b.(source) <- 1.0;
  let x = Array.make n 0.0 in
  match Iterative.gauss_seidel ~epsilon a b x with
  | Iterative.Converged _ -> x
  | Iterative.Diverged -> (
      Obs.Probe.count "linsolve.fallback.power";
      match Iterative.power ~epsilon a b x with
      | Iterative.Converged _ -> x
      | Iterative.Diverged ->
          Obs.Probe.count "linsolve.fallback.dense";
          if n > dense_fallback_limit then begin
            (* the dense system would not fit; report the failure as
               singular so the estimator's damping chain retries *)
            Obs.Probe.count "linsolve.singular";
            raise (Singular 0)
          end;
          solve_dense ~scale ~n ~source arcs)

(* Solve the Markov frequency system:
     x_source = 1 + sum over arcs (j -> source, p) of p * x_j
     x_i      =     sum over arcs (j -> i, p)      of p * x_j
   [arcs] enumerates weighted arcs (from, to, p); it must be re-runnable
   and order-stable (the builds make multiple passes). The source gets
   one unit of external flow (the function entry / the invocation of
   main); incoming arcs still contribute, which matters when the entry
   block is also a loop header or main is called recursively. Nodes
   unreachable from the source get frequency 0.

   [scale] multiplies every arc probability before it enters the system;
   the Markov estimators use it to damp near-singular systems without
   rebuilding the arc list. [scale = 1.0] is exact identity: [p *. 1.0]
   is [p] bitwise, so the default changes nothing. *)
let markov_frequencies_iter ?(scale = 1.0) ~(n : int) ~(source : int)
    (arcs : Csr.arcs_iter) : float array =
  if n = 0 then [||]
  else begin
    (* An out-of-range source is a malformed graph, not a singular
       system: report it as a typed Invalid_argument the fault taxonomy
       can attribute, not an index error deep in the solver. *)
    if source < 0 || source >= n then
      invalid_arg
        (Printf.sprintf
           "Linsolve.markov_frequencies: source %d outside [0, %d)" source n);
    let sparse () = solve_sparse ~scale ~n ~source arcs in
    let dense () = solve_dense ~scale ~n ~source arcs in
    match !solver_mode with
    | Dense -> dense ()
    | Sparse -> sparse ()
    | Auto -> if n >= auto_sparse_threshold then sparse () else dense ()
  end

(* List-based convenience wrapper around [markov_frequencies_iter]. *)
let markov_frequencies ?(scale = 1.0) ~(n : int) ~(source : int)
    (arcs : (int * int * float) list) : float array =
  markov_frequencies_iter ~scale ~n ~source (fun f ->
      List.iter (fun (src, dst, p) -> f src dst p) arcs)
