(* Iterative solvers over the CSR Markov system.

   Both solvers target A x = b with A = I - scale*P^T. For the damped
   systems the retry chains produce, A is (weakly) diagonally dominant
   with spectral radius of (I - A) below one, so relaxation converges
   geometrically and each step is O(row) — the asymptotic win over the
   dense O(n^3) elimination. Undamped systems at the edge of validity
   (total outgoing probability >= 1 somewhere) can defeat Gauss-Seidel;
   power iteration on the Neumann series x <- b + (I - A) x is the
   second line of attack, and a genuinely divergent or singular system
   falls through to the dense solver, whose exact (possibly negative)
   solution the estimators' repair logic needs to see.

   [gauss_seidel] is *SCC-ordered*, not plain full sweeps. Row i's
   equation reads exactly the columns in row i, so the dependency graph
   of the system is the CSR itself, and for a CFG or call graph its
   strongly connected components are the loops / recursion cycles — small
   — while the component DAG is everything acyclic. Tarjan's algorithm
   emits SCCs in dependency-completion order (every component a row
   reads from is emitted before it), so solving components in emission
   order means each one relaxes against *final* upstream values:
   singleton components are exact in one relaxation, and a k-node loop
   needs only its own geometric decay, independent of everything
   downstream. Plain sweeps on the same graphs are quadratic — the
   convergence transient grows with the *number* of chained loops
   (measured: sweeps ~ 0.17n on the loop-cascade bench, 19 s at n=10^5)
   because each loop keeps re-exciting every loop after it; SCC
   ordering makes total work O(nnz * per-loop decay), linear in n
   (~20 ms at n=10^5 on the same graph).

   Convergence tolerance: a component is done when no row of it moves
   by more than [epsilon * max(1, ||x||_inf)] in a sweep — the same
   relative-scale epsilon the dense solver uses for its pivot
   threshold, so "converged" here and "non-singular" there mean the
   same tolerance. A non-finite iterate, a solution norm past 1e150
   (geometric blow-up), or a component exhausting its sweep budget all
   abort as [Diverged]. *)

(* Sweep budget per strongly connected component. A graph that is one
   big SCC degrades to classic full-sweep Gauss-Seidel with this cap;
   convergent loops use a tiny fraction (decay 0.9 per sweep needs ~260
   sweeps to reach 1e-12). The cap exists so singular-but-bounded
   components (rho = 1) eventually give up and fall through the solver
   chain. *)
let max_scc_sweeps = 1000

let max_power_iterations = 2000

(* Solution values past this are a geometric blow-up, not a frequency:
   give up before hitting inf/nan so divergence is detected early. *)
let blowup_limit = 1e150

type outcome =
  | Converged of int        (* equivalent full sweeps (row updates / n) *)
  | Diverged                (* blow-up, sweep budget, or bad diagonal *)

let step_small ~epsilon ~delta ~norm = delta <= epsilon *. Float.max 1.0 norm

(* max_i |(A x - b)_i| — one sparse matvec, recorded as a probe so a
   trace shows how tight the accepted solution actually is. *)
let residual (a : Csr.t) (b : float array) (x : float array) : float =
  let r = ref 0.0 in
  for i = 0 to a.Csr.n - 1 do
    let s = ref (a.Csr.diag.(i) *. x.(i)) in
    for k = a.Csr.row_start.(i) to a.Csr.row_start.(i + 1) - 1 do
      s := !s +. (a.Csr.vals.(k) *. x.(a.Csr.cols.(k)))
    done;
    let d = Float.abs (!s -. b.(i)) in
    if d > !r then r := d
  done;
  !r

(* Iterative Tarjan over the row-dependency graph (row i -> each column
   of row i). Writes the nodes into [order] grouped by SCC, components
   in dependency-completion order, with component c occupying
   [order.(bounds.(c)), order.(bounds.(c+1))); returns the component
   count. All state lives in per-domain scratch; the explicit DFS stack
   replaces recursion (a 10^5-block CFG would blow the OCaml stack). *)
let scc_order (a : Csr.t) ~(index : int array) ~(lowlink : int array)
    ~(stack : int array) ~(cursor : int array) ~(queue : int array)
    ~(onstack : int array) ~(order : int array) ~(bounds : int array) : int
    =
  let n = a.Csr.n in
  Array.fill index 0 n (-1);
  Array.fill onstack 0 n 0;
  let next_index = ref 0 in
  let sp = ref 0 in (* DFS stack top (stack/cursor) *)
  let qp = ref 0 in (* Tarjan SCC stack top (queue) *)
  let op = ref 0 in (* next free slot in order *)
  let nscc = ref 0 in
  bounds.(0) <- 0;
  let push v =
    index.(v) <- !next_index;
    lowlink.(v) <- !next_index;
    incr next_index;
    queue.(!qp) <- v;
    incr qp;
    onstack.(v) <- 1;
    stack.(!sp) <- v;
    cursor.(v) <- a.Csr.row_start.(v);
    incr sp
  in
  for root = 0 to n - 1 do
    if index.(root) = -1 then begin
      push root;
      while !sp > 0 do
        let v = stack.(!sp - 1) in
        if cursor.(v) < a.Csr.row_start.(v + 1) then begin
          let w = a.Csr.cols.(cursor.(v)) in
          cursor.(v) <- cursor.(v) + 1;
          if index.(w) = -1 then push w
          else if onstack.(w) = 1 && index.(w) < lowlink.(v) then
            lowlink.(v) <- index.(w)
        end
        else begin
          decr sp;
          if !sp > 0 then begin
            let parent = stack.(!sp - 1) in
            if lowlink.(v) < lowlink.(parent) then
              lowlink.(parent) <- lowlink.(v)
          end;
          if lowlink.(v) = index.(v) then begin
            (* v is an SCC root: everything above it on the SCC stack
               is its component *)
            let w = ref (-1) in
            while !w <> v do
              decr qp;
              w := queue.(!qp);
              onstack.(!w) <- 0;
              order.(!op) <- !w;
              incr op
            done;
            incr nscc;
            bounds.(!nscc) <- !op
          end
        end
      done
    end
  done;
  !nscc

(* SCC-ordered Gauss-Seidel, writing the solution into [x]. Rejects
   systems whose diagonal falls under the dense solver's relative pivot
   threshold — the relaxation division would amplify noise, and the
   dense path handles such systems with pivoting. *)
let gauss_seidel ~(epsilon : float) (a : Csr.t) (b : float array)
    (x : float array) : outcome =
  let n = a.Csr.n in
  if n = 0 then Converged 0
  else begin
    let pivot_floor = epsilon *. Csr.scale_of a in
    let diag_ok = ref true in
    for i = 0 to n - 1 do
      if Float.abs a.Csr.diag.(i) <= pivot_floor then diag_ok := false
    done;
    if not !diag_ok then Diverged
    else begin
      let s = Scratch.get () in
      let order = Scratch.order s n in
      let bounds = Scratch.bounds s (n + 1) in
      let nscc =
        scc_order a ~index:(Scratch.index s n) ~lowlink:(Scratch.lowlink s n)
          ~stack:(Scratch.stack s n) ~cursor:(Scratch.cursor s n)
          ~queue:(Scratch.queue s n) ~onstack:(Scratch.fill s n) ~order
          ~bounds
      in
      Array.fill x 0 n 0.0;
      let norm = ref 0.0 in
      let updates = ref 0 in
      let diverged = ref false in
      (* Relax one row in place against current x; returns the step. *)
      let relax row =
        let sum = ref b.(row) in
        for k = a.Csr.row_start.(row) to a.Csr.row_start.(row + 1) - 1 do
          sum := !sum -. (a.Csr.vals.(k) *. x.(a.Csr.cols.(k)))
        done;
        let xi = !sum /. a.Csr.diag.(row) in
        incr updates;
        if not (Float.is_finite xi) then begin
          diverged := true;
          0.0
        end
        else begin
          let d = Float.abs (xi -. x.(row)) in
          x.(row) <- xi;
          let m = Float.abs xi in
          if m > !norm then norm := m;
          d
        end
      in
      let c = ref 0 in
      while (not !diverged) && !c < nscc do
        let lo = bounds.(!c) and hi = bounds.(!c + 1) in
        if hi - lo = 1 then
          (* acyclic node: all inputs are final, one relaxation is the
             exact solution of this row *)
          ignore (relax order.(lo))
        else begin
          (* a loop / recursion cycle: sweep just this component until
             it is a fixed point; its inputs are already final *)
          let sweeps = ref 0 in
          let settled = ref false in
          while (not !diverged) && (not !settled) && !sweeps < max_scc_sweeps
          do
            incr sweeps;
            let delta = ref 0.0 in
            let i = ref lo in
            while (not !diverged) && !i < hi do
              let d = relax order.(!i) in
              if d > !delta then delta := d;
              incr i
            done;
            if not !diverged then
              if !norm > blowup_limit then diverged := true
              else if step_small ~epsilon ~delta:!delta ~norm:!norm then
                settled := true
          done;
          if not !settled then diverged := true
        end;
        incr c
      done;
      if !diverged then begin
        Obs.Probe.count "linsolve.gs.diverged";
        Diverged
      end
      else begin
        let sweeps = (!updates + n - 1) / n in
        Obs.Hist.observe "linsolve.gs.sweeps" sweeps;
        Obs.Hist.observe "linsolve.gs.relaxations" !updates;
        Obs.Hist.observe "linsolve.gs.sccs" nscc;
        Obs.Probe.set_gauge "linsolve.gs.residual" (residual a b x);
        Converged sweeps
      end
    end
  end

(* Power iteration on the Neumann series: x <- b + (I - A) x, i.e.
   x'_i = b_i + (1 - a_ii) x_i - sum_k vals_k x_{cols_k}. Jacobi-style,
   so it needs the previous iterate intact: the new one is built in the
   per-domain [aux] buffer and blitted back. Converges whenever
   rho(I - A) < 1 even where Gauss-Seidel's diagonal test balks. *)
let power ~(epsilon : float) (a : Csr.t) (b : float array) (x : float array)
    : outcome =
  let n = a.Csr.n in
  let aux = Scratch.aux (Scratch.get ()) n in
  Array.fill x 0 n 0.0;
  let iters = ref 0 in
  let finished = ref None in
  while !finished = None && !iters < max_power_iterations do
    incr iters;
    let delta = ref 0.0 and norm = ref 0.0 in
    let i = ref 0 in
    while !finished = None && !i < n do
      let row = !i in
      let s = ref (b.(row) +. ((1.0 -. a.Csr.diag.(row)) *. x.(row))) in
      for k = a.Csr.row_start.(row) to a.Csr.row_start.(row + 1) - 1 do
        s := !s -. (a.Csr.vals.(k) *. x.(a.Csr.cols.(k)))
      done;
      let xi = !s in
      if not (Float.is_finite xi) then finished := Some Diverged
      else begin
        let d = Float.abs (xi -. x.(row)) in
        if d > !delta then delta := d;
        let m = Float.abs xi in
        if m > !norm then norm := m;
        aux.(row) <- xi
      end;
      incr i
    done;
    if !finished = None then begin
      Array.blit aux 0 x 0 n;
      if !norm > blowup_limit then finished := Some Diverged
      else if step_small ~epsilon ~delta:!delta ~norm:!norm then
        finished := Some (Converged !iters)
    end
  done;
  let out = match !finished with Some o -> o | None -> Diverged in
  (match out with
  | Converged iters ->
      Obs.Hist.observe "linsolve.power.iters" iters;
      Obs.Probe.set_gauge "linsolve.power.residual" (residual a b x)
  | Diverged -> Obs.Probe.count "linsolve.power.diverged");
  out
