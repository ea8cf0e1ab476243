(* Correctness checks that hold without a baseline, applied to every
   analysis the corpus and daemon workloads get back:

   - [invocations/main] is 1 and every score is finite and >= 0;
   - a one-function edit changes exactly that function's hash, misses at
     least its five intra estimates, and hits or misses every other
     estimate once; an unchanged re-send returns the scores of the
     answer before it, and, where nothing is evicted, is a program hit
     with no misses;
   - an unchanged program's scores equal a reference computed in this
     process by [Driver.Incr.analyze].

   Scores are compared through a digest of their wire encoding, so the
   comparison is exact to the bit. *)

module Json = Obs.Json

let scores_digest (scores : Json.t) : string =
  Digest.to_hex (Digest.string (Json.to_compact_string scores))

let analysis_digest (a : Driver.Incr.analysis) : string =
  scores_digest (Driver.Serve.scores_json a.Driver.Incr.an_scores)

let analysis_scores (a : Driver.Incr.analysis) : (string * float) list =
  List.map
    (fun (s : Driver.Score.t) -> (s.Driver.Score.s_estimator, s.Driver.Score.s_value))
    a.Driver.Incr.an_scores

(* The inter-procedural solve leaves invocation counts of recursive
   functions a few ulps below zero (down to about -3e-15); a score
   counts as negative only below [-tolerance]. Scores inside that band
   are counted in [roundoff_negatives], so a fix shows as a count. *)
let tolerance = 1e-9
let roundoff_negatives = ref 0

(* [None] when the invariants hold, else the first violation. *)
let invariants (scores : (string * float) list) : string option =
  match List.assoc_opt "invocations/main" scores with
  | None -> Some "no invocations/main score"
  | Some v when Float.abs (v -. 1.0) > tolerance ->
    Some (Printf.sprintf "invocations/main = %.17g, not 1" v)
  | Some _ ->
    List.find_map
      (fun (est, v) ->
        if Float.is_finite v && v >= 0.0 then None
        else if Float.is_finite v && v >= -.tolerance then begin
          incr roundoff_negatives;
          None
        end
        else Some (Printf.sprintf "score %s = %g is not finite and >= 0" est v))
      scores

type response = {
  r_ok : bool;
  r_error : string;  (* the error detail and marker when not ok *)
  r_program_hit : bool;
  r_fn_hits : int;
  r_fn_misses : int;
  r_fn_hashes : (string * string) list;
  r_scores : (string * float) list;
  r_digest : string;
}

let parse_response (line : string) : (response, string) result =
  match Json.parse line with
  | Error e -> Error ("response is not JSON: " ^ e)
  | Ok j ->
    let num f = Option.bind (Json.member f j) Json.to_num in
    let int f = int_of_float (Option.value ~default:(-1.0) (num f)) in
    if Json.member "ok" j <> Some (Json.Bool true) then
      let marker =
        List.find_opt
          (fun m -> Json.member m j = Some (Json.Bool true))
          [ "overloaded"; "worker_lost"; "deadline_exceeded" ]
      in
      let detail =
        Option.bind (Json.member "error" j) (fun e ->
            Option.bind (Json.member "detail" e) Json.to_str)
      in
      Ok
        { r_ok = false;
          r_error =
            String.concat ": "
              (Option.to_list marker @ Option.to_list detail);
          r_program_hit = false; r_fn_hits = 0; r_fn_misses = 0;
          r_fn_hashes = []; r_scores = []; r_digest = "" }
    else
      let scores = Option.value ~default:(Json.Arr []) (Json.member "scores" j) in
      let score_pairs =
        List.filter_map
          (fun s ->
            match
              ( Option.bind (Json.member "estimator" s) Json.to_str,
                Option.bind (Json.member "value" s) Json.to_num )
            with
            | Some e, Some v -> Some (e, v)
            | _ -> None)
          (Option.value ~default:[] (Json.to_list scores))
      in
      let hashes =
        match Json.member "fn_hashes" j with
        | Some (Json.Obj fields) ->
          List.filter_map
            (fun (k, v) -> Option.map (fun h -> (k, h)) (Json.to_str v))
            fields
        | _ -> []
      in
      Ok
        { r_ok = true; r_error = "";
          r_program_hit = Json.member "program_hit" j = Some (Json.Bool true);
          r_fn_hits = int "fn_hits"; r_fn_misses = int "fn_misses";
          r_fn_hashes = hashes; r_scores = score_pairs;
          r_digest = scores_digest scores }

let n_kinds = List.length Core.Pipeline.all_intra_kinds

(* A one-function edit of [edited]: compared with the previous
   version's hashes [before], exactly that function's hash changed. *)
let edit_response ~(before : (string * string) list) ~(edited : string)
    (r : response) : string option =
  let changed =
    List.filter
      (fun (fn, h) -> List.assoc_opt fn before <> Some h)
      r.r_fn_hashes
    |> List.map fst
  in
  let n_fns = List.length r.r_fn_hashes in
  if r.r_program_hit then Some "edit answered as a program hit"
  else if changed <> [ edited ] then
    Some
      (Printf.sprintf "edit of %s changed the hashes of [%s]" edited
         (String.concat "; " changed))
  else if r.r_fn_misses < n_kinds then
    Some (Printf.sprintf "edit reported %d fn_misses, expected >= %d"
            r.r_fn_misses n_kinds)
  else if r.r_fn_hits + r.r_fn_misses <> n_kinds * n_fns then
    Some (Printf.sprintf "fn_hits %d + fn_misses %d <> %d kinds x %d functions"
            r.r_fn_hits r.r_fn_misses n_kinds n_fns)
  else invariants r.r_scores

(* An unchanged program's answer against its reference digest. *)
let unchanged ~(digest : string) (line : string) : string option =
  match parse_response line with
  | Error e -> Some e
  | Ok r when not r.r_ok -> Some ("error response: " ^ r.r_error)
  | Ok r ->
    (match invariants r.r_scores with
    | Some v -> Some v
    | None ->
      if r.r_digest <> digest then Some "scores differ from the in-process reference" else None)

(* In-process references, from a cold store: each program's scores
   digest and function hashes. *)
let references (progs : Programs.program array) : (string * (string * string) list) array =
  Driver.Incr.clear ();
  let r =
    Array.map
      (fun (p : Programs.program) ->
        let a = Driver.Incr.analyze ~name:p.name p.source in
        (analysis_digest a, a.Driver.Incr.an_fn_hashes))
      progs
  in
  Driver.Incr.clear ();
  r

(* An unchanged re-send whose previous answer had digest [expected], to
   a store that may have evicted its entries since: the same scores,
   whether served from the cache or recomputed. *)
let resend_scores ~(expected : string) (r : response) : string option =
  if r.r_digest <> expected then Some "unchanged re-send returned different scores" else None

(* The same, to a store that evicts nothing: a program hit as well. *)
let resend_response ~(expected : string) (r : response) : string option =
  if not r.r_program_hit then Some "unchanged re-send missed the program cache"
  else if r.r_fn_misses <> 0 then
    Some (Printf.sprintf "unchanged re-send reported %d fn_misses" r.r_fn_misses)
  else resend_scores ~expected r
