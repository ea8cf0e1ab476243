(* Markov model of control flow within one function (paper section 5.1).

   The CFG becomes a Markov chain: states are basic blocks, transition
   probabilities come from the branch predictor (0.8/0.2 on predicted
   branches, the standard loop count on back edges, case-label weighting
   on switches). The relative block frequencies are the solution of the
   linear system of Figure 7, with the entry block pinned at 1.

   Unlike the AST walk, this model sees break/continue/goto/return edges:
   in strchr the return inside the loop reduces the solved test count
   from 5 to 2.78 exactly as in the paper. *)

module Typecheck = Cfront.Typecheck
module Usage = Cfront.Usage
module Cfg = Cfg_ir.Cfg
module Linsolve = Linalg.Linsolve

(* Outgoing arc probabilities of a block. [branch_prob] supplies the
   P(condition true) model: the default is the paper's first-match 0.8/0.2
   rule; the Wu-Larus extension combines heuristic evidence instead. *)
let arc_probs ?branch_prob tc (usage : Usage.t) (b : Cfg.block) :
    (int * float) list =
  let branch_prob =
    match branch_prob with
    | Some f -> f
    | None -> Branch_predictor.probability_true tc usage
  in
  match b.Cfg.b_term with
  | Cfg.Tjump t -> [ (t, 1.0) ]
  | Cfg.Tbranch (br, t, f) ->
    if t = f then [ (t, 1.0) ]
    else begin
      let p = branch_prob br in
      [ (t, p); (f, 1.0 -. p) ]
    end
  | Cfg.Tswitch (_, cases, default) ->
    (* By default, weight each target by its number of case values, with
       the default path counting as one more (the variant the paper found
       slightly better, footnote 3). The ablation configuration can
       switch to equal weighting per distinct target instead. *)
    let tally = Hashtbl.create 8 in
    let bump t w =
      Hashtbl.replace tally t (w +. Option.value ~default:0.0 (Hashtbl.find_opt tally t))
    in
    if Config.current.Config.switch_by_labels then begin
      List.iter (fun (_, t) -> bump t 1.0) cases;
      bump default 1.0;
      let total = float_of_int (List.length cases + 1) in
      Hashtbl.fold (fun t w acc -> (t, w /. total) :: acc) tally []
      |> List.sort compare
    end
    else begin
      let targets =
        List.sort_uniq compare (default :: List.map snd cases)
      in
      let p = 1.0 /. float_of_int (List.length targets) in
      List.map (fun t -> (t, p)) targets
    end
  | Cfg.Treturn _ -> []

(* All weighted arcs of a function under a given probability model. *)
let arcs_of_fn ?branch_prob tc (usage : Usage.t) (fn : Cfg.fn) :
    (int * int * float) list =
  Array.to_list fn.Cfg.fn_blocks
  |> List.concat_map (fun (b : Cfg.block) ->
       List.map
         (fun (t, p) -> (b.Cfg.b_id, t, p))
         (arc_probs ?branch_prob tc usage b))

(* Solve the chain. If a probability-1 cycle (e.g. an infinite goto loop)
   makes the system singular, damp all probabilities and retry — the
   paper notes such loops did not occur in its suite; we keep the solver
   total anyway. Damping is passed as a scale factor into the solver so
   the retry path never re-allocates the arc list.

   Degradation chain: markov solve → 20 damped retries → [?fallback]
   (the pipeline passes the loop estimate — "always produce *an*
   estimate") → flat. Exhausting the retries records a fault in
   [Obs.Faultlog] alongside the probe counter, because it never happens
   on a healthy suite. [?inject_key] names this solve for the
   ["solve.intra"] injection point (the pipeline passes the program). *)
let solve_blocks ?(inject_key = "") ?fallback ~(n : int) ~(entry : int)
    (arcs : (int * int * float) list) : float array =
  (* The solver assembles the system in per-domain scratch buffers
     (Linalg.Scratch), so retries and the per-function solve loop reuse
     one working set instead of allocating n*n afresh each attempt. *)
  Obs.Hist.observe "markov_intra.solve_n" n;
  let rec attempt damping tries =
    let retry () =
      if tries > 0 then begin
        Obs.Probe.count "markov_intra.damping_retry";
        attempt (damping *. 0.95) (tries - 1)
      end
      else begin
        let recovery, freqs =
          match fallback with
          | Some (label, f) ->
            Obs.Probe.count "markov_intra.fallback_estimate";
            (("fallback to " ^ label), f ())
          | None ->
            Obs.Probe.count "markov_intra.flat_fallback";
            ("flat estimate", Array.make n 1.0)
        in
        Obs.Faultlog.record ~stage:"solve" ~subject:inject_key
          ~detail:"markov_intra: damped retries exhausted"
          ~exn_text:"system stayed singular or non-finite" recovery;
        freqs
      end
    in
    match
      if Obs.Inject.should_fire "solve.intra" ~key:inject_key then
        raise (Linsolve.Singular (-1));
      Linsolve.markov_frequencies ~scale:damping ~n ~source:entry arcs
    with
    | x when Array.for_all Float.is_finite x -> x
    | _ -> retry ()
    | exception Linsolve.Singular _ -> retry ()
  in
  attempt 1.0 20

(* [?usage] lets callers that sweep several estimators over one function
   (the pipeline's per-program context) share a single [Usage.of_fun]
   walk; when absent we compute it locally as before. *)
let usage_for ?usage tc (fn : Cfg.fn) : Usage.t =
  match usage with
  | Some u -> u
  | None -> Usage.of_fun tc fn.Cfg.fn_def

(* Estimated relative block frequencies (entry = 1). *)
let block_freqs ?usage ?inject_key ?fallback (tc : Typecheck.t)
    (fn : Cfg.fn) : float array =
  let usage = usage_for ?usage tc fn in
  let arcs = arcs_of_fn tc usage fn in
  solve_blocks ?inject_key ?fallback ~n:(Cfg.n_blocks fn)
    ~entry:fn.Cfg.fn_entry arcs

(* The Wu-Larus variant: if-branch probabilities from combined heuristic
   evidence instead of the binary 0.8/0.2 guess. *)
let block_freqs_combined ?usage ?inject_key ?fallback (tc : Typecheck.t)
    (fn : Cfg.fn) : float array =
  let usage = usage_for ?usage tc fn in
  let branch_prob (br : Cfg.branch) =
    match br.Cfg.br_kind with
    | Cfg.Kwhile | Cfg.Kdo | Cfg.Kfor ->
      Branch_predictor.probability_true tc usage br
    | Cfg.Kif | Cfg.Kcond ->
      Branch_predictor.probability_true_combined tc usage br.Cfg.br_stmt
        br.Cfg.br_cond ~then_arm:br.Cfg.br_then_arm
        ~else_arm:br.Cfg.br_else_arm
  in
  let arcs = arcs_of_fn ~branch_prob tc usage fn in
  solve_blocks ?inject_key ?fallback ~n:(Cfg.n_blocks fn)
    ~entry:fn.Cfg.fn_entry arcs

(* The system in presentable form (paper Figures 6-7): for each block, the
   equation x_b = sum p_i * x_pred_i, plus the solution vector. *)
type presented = {
  equations : (int * (int * float) list) list; (* block, weighted preds *)
  solution : float array;
}

let present ?usage (tc : Typecheck.t) (fn : Cfg.fn) : presented =
  let usage = usage_for ?usage tc fn in
  let arcs = arcs_of_fn tc usage fn in
  let incoming = Hashtbl.create 16 in
  List.iter
    (fun (s, d, p) ->
      Hashtbl.replace incoming d
        ((s, p) :: Option.value ~default:[] (Hashtbl.find_opt incoming d)))
    arcs;
  let equations =
    Array.to_list fn.Cfg.fn_blocks
    |> List.map (fun (b : Cfg.block) ->
         ( b.Cfg.b_id,
           List.rev
             (Option.value ~default:[] (Hashtbl.find_opt incoming b.Cfg.b_id))
         ))
  in
  { equations;
    solution = solve_blocks ~n:(Cfg.n_blocks fn) ~entry:fn.Cfg.fn_entry arcs
  }
