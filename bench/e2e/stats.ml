(* Order statistics shared by every workload and by the repeat helper.

   Percentiles use the nearest-rank rule (the value at rank
   ceil(q * n)), the same rule [Obs.Hist.quantile] applies to the
   daemon's histograms, so client-side and server-side quantiles of one
   request stream are comparable. Quartiles and the median follow
   Python's [statistics.quantiles(values, n=4)] and
   [statistics.median], because that is how run-to-run spread is judged
   when the benchmark is accepted. *)

let sorted (xs : float list) : float array =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* Nearest-rank percentile of an ascending array; nan when empty. *)
let percentile (a : float array) (q : float) : float =
  let n = Array.length a in
  if n = 0 then nan
  else
    let rank = int_of_float (Float.ceil (q *. float_of_int n)) in
    a.(max 1 (min n rank) - 1)

(* Samples strictly above the percentile's rank. *)
let beyond (n : int) (q : float) : int =
  n - int_of_float (Float.ceil (q *. float_of_int n))

(* The highest of p50/p90/p99/p99.9 that still has at least ten samples
   beyond it — the tail a sample of [n] can honestly report. [None]
   when even the median lacks ten samples above it. *)
let tail_quantiles = [ 0.5; 0.9; 0.99; 0.999 ]

let highest_supported (n : int) : float option =
  List.fold_left
    (fun best q -> if beyond n q >= 10 then Some q else best)
    None tail_quantiles

let quantile_name (q : float) : string =
  match q with
  | 0.5 -> "p50"
  | 0.9 -> "p90"
  | 0.99 -> "p99"
  | 0.999 -> "p999"
  | q -> Printf.sprintf "p%g" (q *. 100.0)

(* Python's statistics.median. *)
let median (xs : float list) : float =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Python's statistics.quantiles(xs, n=4) with the default "exclusive"
   method: (q1, q2, q3). Needs at least two values. *)
let quartiles (xs : float list) : float * float * float =
  let a = sorted xs in
  let ld = Array.length a in
  if ld < 2 then invalid_arg "Stats.quartiles: need at least two values";
  let m = ld + 1 in
  let cut i =
    let j = max 1 (min (ld - 1) (i * m / 4)) in
    let delta = (i * m) - (j * 4) in
    ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
    /. 4.0
  in
  (cut 1, cut 2, cut 3)

(* Interquartile distance as a share of the median. *)
let spread (xs : float list) : float =
  let q1, _, q3 = quartiles xs in
  (q3 -. q1) /. Float.abs (median xs)
