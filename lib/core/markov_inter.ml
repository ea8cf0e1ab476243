(* Markov model over the call graph (paper section 5.2).

   Functions are states; the arc from caller to callee carries the
   estimated number of calls per invocation of the caller (the sum of the
   call sites' local block frequencies, arcs between the same pair
   merged). main is pinned at 1 and the chain is solved like the
   intra-procedural one.

   Two complications from the paper are handled explicitly:

   - Function pointers (5.2.1): a distinguished *pointer node* receives
     all indirect-call flow and redistributes it to address-taken
     functions in proportion to their static address-of counts.

   - Recursion (5.2.2): mis-predicted branches can give a recursive arc
     an impossible weight (> 1 expected calls to itself per invocation),
     making the solution negative. Direct self-arcs over 1 are clamped to
     0.8; if the global solve is still invalid, each cyclic SCC is
     re-solved in isolation under an artificial main distributing the
     external inflow m/n, with a solution ceiling of 5, scaling the
     SCC-internal arc weights down until the subproblem passes. *)

module Cfg = Cfg_ir.Cfg
module Callgraph = Cfg_ir.Callgraph
module Scc = Cfg_ir.Scc
module Linsolve = Linalg.Linsolve

type arcs = (int * int, float) Hashtbl.t (* (src, dst) -> weight *)

type diag = {
  clamped_self_arcs : (int * float) list; (* node, original weight *)
  repaired_sccs : int;        (* how many SCC subproblems were re-scaled *)
  scale_iterations : int;     (* total scale-down steps across SCCs *)
}

type result = {
  freqs : (string * float) list; (* defined functions, node order *)
  pointer_freq : float option;   (* frequency of the pointer node, if any *)
  diag : diag;
}

let arc_list (arcs : arcs) : (int * int * float) list =
  Hashtbl.fold (fun (s, d) w acc -> (s, d, w) :: acc) arcs []

(* Hand the table to the solver as a re-runnable iterator — no list
   materialization per solve attempt (the SCC-repair and damping loops
   used to rebuild the full arc list on every retry). (src, dst) keys
   are unique, so each arc lands in its own matrix cell and table
   traversal order cannot change the assembled system. *)
let arc_iter (arcs : arcs) : Linalg.Csr.arcs_iter =
 fun f -> Hashtbl.iter (fun (s, d) w -> f s d w) arcs

(* Build the weighted call-graph arcs, including the pointer node (index
   [n]) when the program makes indirect calls. Returns (arcs, n_nodes,
   has_pointer_node). *)
let build_arcs (g : Callgraph.t) ~(intra : string -> float array) :
    arcs * int * bool =
  let n = Callgraph.n_nodes g in
  let arcs : arcs = Hashtbl.create 64 in
  let add src dst w =
    if w > 0.0 then
      Hashtbl.replace arcs (src, dst)
        (w +. Option.value ~default:0.0 (Hashtbl.find_opt arcs (src, dst)))
  in
  let site_weight (cs : Cfg.call_site) =
    (intra cs.Cfg.cs_fun).(cs.Cfg.cs_block)
  in
  Hashtbl.iter
    (fun (caller, callee) sites ->
      List.iter (fun cs -> add caller callee (site_weight cs)) sites)
    g.Callgraph.direct_arcs;
  let total_addr = float_of_int (Callgraph.total_address_taken g) in
  let has_indirect = Hashtbl.length g.Callgraph.indirect_by_caller > 0 in
  let use_pointer_node = has_indirect && total_addr > 0.0 in
  if use_pointer_node then begin
    let pnode = n in
    Hashtbl.iter
      (fun caller sites ->
        List.iter (fun cs -> add caller pnode (site_weight cs)) sites)
      g.Callgraph.indirect_by_caller;
    Hashtbl.iter
      (fun name count ->
        match Callgraph.node_of_name g name with
        | Some i -> add pnode i (float_of_int count /. total_addr)
        | None -> ())
      g.Callgraph.address_taken
  end;
  (arcs, (if use_pointer_node then n + 1 else n), use_pointer_node)

let is_valid (x : float array) : bool =
  Array.for_all (fun v -> Float.is_finite v && v >= -1e-9) x

let solve ~n ~source (arcs : arcs) : float array option =
  match
    Linsolve.markov_frequencies_iter ~n ~source (arc_iter arcs)
  with
  | x -> if is_valid x then Some x else None
  | exception Linsolve.Singular _ -> None

(* Solve ignoring validity (used to demonstrate the recursion failure of
   Figure 8). *)
let solve_raw ~n ~source (arcs : arcs) : float array option =
  match
    Linsolve.markov_frequencies_iter ~n ~source (arc_iter arcs)
  with
  | x -> Some x
  | exception Linsolve.Singular _ -> None

(* Re-solve one SCC in isolation: members + an artificial main that calls
   member m with probability (external inflow of m) / (total external
   inflow of the SCC). Succeeds when the solution is non-negative and
   bounded by the ceiling.

   Membership is a hash set and the inflows accumulate in one pass over
   the arc table — the old per-member fold made the check quadratic in
   the table size. Per-member additions still happen in table traversal
   order, so the inflow sums are bit-identical to the folded ones. *)
let scc_subproblem_ok (arcs : arcs) (members : int list) : bool =
  let k = List.length members in
  let index = Hashtbl.create 8 in
  List.iteri (fun i m -> Hashtbl.replace index m i) members;
  let inside m = Hashtbl.mem index m in
  let inflow = Array.make k 0.0 in
  let sub : arcs = Hashtbl.create 16 in
  Hashtbl.iter
    (fun (s, d) w ->
      match Hashtbl.find_opt index d with
      | Some i ->
        if inside s then
          Hashtbl.replace sub (Hashtbl.find index s, i) w
        else inflow.(i) <- inflow.(i) +. w
      | None -> ())
    arcs;
  let total = Array.fold_left ( +. ) 0.0 inflow in
  (* artificial main is node k *)
  Array.iteri
    (fun i flow ->
      let p = if total > 0.0 then flow /. total else 1.0 /. float_of_int k in
      if p > 0.0 then Hashtbl.replace sub (k, i) p)
    inflow;
  match solve ~n:(k + 1) ~source:k sub with
  | Some x ->
    Array.for_all (fun v -> v <= Loop_model.scc_solution_ceiling +. 1e-9) x
  | None -> false

(* Scale all arcs internal to [members] by [factor]. *)
let scale_scc (arcs : arcs) (members : int list) (factor : float) : unit =
  let index = Hashtbl.create 8 in
  List.iter (fun m -> Hashtbl.replace index m ()) members;
  let inside m = Hashtbl.mem index m in
  let updates =
    Hashtbl.fold
      (fun (s, d) w acc ->
        if inside s && inside d then ((s, d), w *. factor) :: acc else acc)
      arcs []
  in
  List.iter (fun (k, w) -> Hashtbl.replace arcs k w) updates

let scale_step = 0.8

(* Estimate invocation frequencies for all defined functions.

   Degradation chain: global markov solve → SCC repair → 50 damping
   rounds → the [call_site] simple estimate (an estimator that cannot
   fail; the paper's point that an imperfect estimate beats none) →
   flat. Reaching the simple-estimate fallback records an
   [Obs.Faultlog] entry alongside the probe counter, because a healthy
   suite never gets past the repair stages. [?inject_key] names this
   solve for the ["solve.inter"] injection point (the pipeline passes
   the program); when armed it makes every global/damped solve report
   singular, driving the chain to its end deterministically. *)
let estimate ?(inject_key = "") (g : Callgraph.t)
    ~(intra : string -> float array) : result =
  let solve ~n ~source arcs =
    if Obs.Inject.should_fire "solve.inter" ~key:inject_key then None
    else solve ~n ~source arcs
  in
  let arcs, n, has_pointer = build_arcs g ~intra in
  let source = Option.value ~default:0 g.Callgraph.main_index in
  (* Step 1: clamp impossible direct-recursion arcs. *)
  let clamped = ref [] in
  for i = 0 to n - 1 do
    match Hashtbl.find_opt arcs (i, i) with
    | Some w when w > 1.0 ->
      clamped := (i, w) :: !clamped;
      Obs.Probe.count "markov_inter.self_arc_clamp";
      Hashtbl.replace arcs (i, i) Loop_model.recursive_arc_probability
    | _ -> ()
  done;
  (* Step 2: global solve; on failure, repair cyclic SCCs. *)
  let repaired = ref 0 and iterations = ref 0 in
  let solution =
    match solve ~n ~source arcs with
    | Some x -> x
    | None ->
      Obs.Probe.count "markov_inter.invalid_solve";
      let succs i =
        Hashtbl.fold
          (fun (s, d) _ acc -> if s = i then d :: acc else acc)
          arcs []
      in
      let sccs = Scc.compute n succs in
      Array.iter
        (fun members ->
          let cyclic =
            match members with
            | [ m ] -> Hashtbl.mem arcs (m, m)
            | _ :: _ :: _ -> true
            | _ -> false
          in
          if cyclic then begin
            let budget = ref 60 in
            let touched = ref false in
            while (not (scc_subproblem_ok arcs members)) && !budget > 0 do
              scale_scc arcs members scale_step;
              Obs.Probe.count "markov_inter.scc_scale_step";
              touched := true;
              incr iterations;
              decr budget
            done;
            if !touched then begin
              incr repaired;
              Obs.Probe.count "markov_inter.scc_repaired"
            end
          end)
        sccs.Scc.components;
      (match solve ~n ~source arcs with
      | Some x -> x
      | None ->
        (* last resort: damp everything until solvable *)
        let rec damp k =
          if k = 0 then begin
            (* Damping exhausted: degrade to the call_site simple
               estimate, which combines the same intra frequencies with
               the static call graph and cannot fail; flat only if even
               that raises. The pointer-node slot (absent from the
               simple estimate) keeps the neutral weight 1. *)
            let recovery, x =
              match
                Inter_simple.estimate g ~intra Inter_simple.Call_site
              with
              | assoc ->
                Obs.Probe.count "markov_inter.call_site_fallback";
                let x = Array.make n 1.0 in
                List.iteri (fun i (_, v) -> x.(i) <- v) assoc;
                ("fallback to call_site estimate", x)
              | exception _ ->
                Obs.Probe.count "markov_inter.flat_fallback";
                ("flat estimate", Array.make n 1.0)
            in
            Obs.Faultlog.record ~stage:"solve" ~subject:inject_key
              ~detail:"markov_inter: SCC repair and damping exhausted"
              ~exn_text:"system stayed singular or invalid" recovery;
            x
          end
          else begin
            let all = Hashtbl.fold (fun key _ acc -> key :: acc) arcs [] in
            List.iter
              (fun key ->
                Hashtbl.replace arcs key (Hashtbl.find arcs key *. 0.9))
              all;
            Obs.Probe.count "markov_inter.damp_round";
            incr iterations;
            match solve ~n ~source arcs with
            | Some x -> x
            | None -> damp (k - 1)
          end
        in
        damp 50)
  in
  let nfun = Callgraph.n_nodes g in
  { freqs =
      List.init nfun (fun i -> (g.Callgraph.names.(i), solution.(i)));
    pointer_freq = (if has_pointer then Some solution.(nfun) else None);
    diag =
      { clamped_self_arcs = List.rev !clamped; repaired_sccs = !repaired;
        scale_iterations = !iterations } }

(* The raw (unclamped, unrepaired) solution — demonstrates the invalid
   negative frequencies of Figure 8. *)
let estimate_raw (g : Callgraph.t) ~(intra : string -> float array) :
    (string * float) list option =
  let arcs, n, _ = build_arcs g ~intra in
  let source = Option.value ~default:0 g.Callgraph.main_index in
  Option.map
    (fun x ->
      List.init (Callgraph.n_nodes g) (fun i -> (g.Callgraph.names.(i), x.(i))))
    (solve_raw ~n ~source arcs)

(* The merged arc weights, for presentation. *)
let arc_weights (g : Callgraph.t) ~(intra : string -> float array) :
    (string * string * float) list =
  let arcs, _, has_pointer = build_arcs g ~intra in
  let name i =
    if i < Callgraph.n_nodes g then g.Callgraph.names.(i)
    else if has_pointer then "<pointer>"
    else "?"
  in
  arc_list arcs
  |> List.map (fun (s, d, w) -> (name s, name d, w))
  |> List.sort compare
