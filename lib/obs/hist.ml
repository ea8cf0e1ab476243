(* Log-linear (HDR-style) histograms. See hist.mli for the contract.

   Bucket layout, with [sub_bits = 5] and [sub_count = 32]:
   - values 0..31 get exact unit buckets 0..31;
   - a value v >= 32 with most-significant bit m (so 2^m <= v < 2^(m+1))
     lands in bucket [sub_count + (m - sub_bits) * sub_count + offset]
     where [offset = (v lsr (m - sub_bits)) - sub_count] keeps the top
     six bits of v. Each octave above 31 contributes 32 buckets, and
     with m <= 62 on 63-bit ints the whole table is 1856 entries. *)

let sub_bits = 5
let sub_count = 1 lsl sub_bits
let max_exp = 62
let bucket_count = sub_count + (max_exp - sub_bits) * sub_count

let msb v =
  (* index of the most significant set bit; v > 0 *)
  let m = ref 0 in
  let v = ref v in
  let step k =
    if !v lsr k <> 0 then begin
      v := !v lsr k;
      m := !m + k
    end
  in
  step 32; step 16; step 8; step 4; step 2; step 1;
  !m

let bucket_of_value v =
  let v = if v < 0 then 0 else v in
  if v < sub_count then v
  else begin
    let m = msb v in
    let offset = (v lsr (m - sub_bits)) - sub_count in
    sub_count + ((m - sub_bits) * sub_count) + offset
  end

let bucket_lower b =
  if b < sub_count then b
  else begin
    let octave = (b - sub_count) / sub_count in
    let offset = (b - sub_count) mod sub_count in
    (sub_count + offset) lsl octave
  end

type t = {
  lock : Mutex.t;
  mutable count : int;
  mutable sum : float;
  mutable vmin : int;
  mutable vmax : int;
  counts : int array;
}

let create () =
  { lock = Mutex.create ();
    count = 0;
    sum = 0.0;
    vmin = max_int;
    vmax = min_int;
    counts = Array.make bucket_count 0 }

let record h v =
  let v = if v < 0 then 0 else v in
  let b = bucket_of_value v in
  Mutex.lock h.lock;
  h.count <- h.count + 1;
  h.sum <- h.sum +. float_of_int v;
  if v < h.vmin then h.vmin <- v;
  if v > h.vmax then h.vmax <- v;
  h.counts.(b) <- h.counts.(b) + 1;
  Mutex.unlock h.lock

type snapshot = {
  h_count : int;
  h_sum : float;
  h_min : int;
  h_max : int;
  h_buckets : (int * int) list;
}

let empty = { h_count = 0; h_sum = 0.0; h_min = 0; h_max = 0; h_buckets = [] }

let snapshot h =
  Mutex.lock h.lock;
  let buckets = ref [] in
  for b = bucket_count - 1 downto 0 do
    if h.counts.(b) > 0 then buckets := (b, h.counts.(b)) :: !buckets
  done;
  let s =
    if h.count = 0 then empty
    else
      { h_count = h.count;
        h_sum = h.sum;
        h_min = h.vmin;
        h_max = h.vmax;
        h_buckets = !buckets }
  in
  Mutex.unlock h.lock;
  s

let merge a b =
  if a.h_count = 0 then b
  else if b.h_count = 0 then a
  else begin
    (* merge two ascending sparse lists, summing counts on equal index *)
    let rec go xs ys =
      match (xs, ys) with
      | [], rest | rest, [] -> rest
      | (ix, cx) :: xs', (iy, cy) :: ys' ->
          if ix < iy then (ix, cx) :: go xs' ys
          else if iy < ix then (iy, cy) :: go xs ys'
          else (ix, cx + cy) :: go xs' ys'
    in
    { h_count = a.h_count + b.h_count;
      h_sum = a.h_sum +. b.h_sum;
      h_min = min a.h_min b.h_min;
      h_max = max a.h_max b.h_max;
      h_buckets = go a.h_buckets b.h_buckets }
  end

let quantile s q =
  if s.h_count = 0 then nan
  else begin
    let rank = int_of_float (ceil (q *. float_of_int s.h_count)) in
    let rank = if rank < 1 then 1 else if rank > s.h_count then s.h_count else rank in
    let rec walk cum = function
      | [] -> float_of_int s.h_max (* unreachable: counts sum to h_count *)
      | (b, c) :: rest ->
          let cum = cum + c in
          if cum >= rank then float_of_int (bucket_lower b) else walk cum rest
    in
    walk 0 s.h_buckets
  end

let to_json s =
  Json.Obj
    [ ("count", Json.Num (float_of_int s.h_count));
      ("sum", Json.Num s.h_sum);
      ("min", Json.Num (float_of_int s.h_min));
      ("max", Json.Num (float_of_int s.h_max));
      ( "buckets",
        Json.Arr
          (List.map
             (fun (b, c) ->
               Json.Arr [ Json.Num (float_of_int b); Json.Num (float_of_int c) ])
             s.h_buckets) ) ]

let of_json j =
  match
    ( Json.member "count" j,
      Json.member "sum" j,
      Json.member "min" j,
      Json.member "max" j,
      Json.member "buckets" j )
  with
  | Some count, Some sum, Some vmin, Some vmax, Some (Json.Arr bs) -> (
      try
        let pair = function
          | Json.Arr [ Json.Num b; Json.Num c ] ->
              (int_of_float b, int_of_float c)
          | _ -> raise Exit
        in
        let num x = match Json.to_num x with Some f -> f | None -> raise Exit in
        let buckets = List.map pair bs in
        (* reject malformed sparse lists: indices must ascend *)
        let rec ascending = function
          | (a, _) :: ((b, _) :: _ as rest) -> a < b && ascending rest
          | _ -> true
        in
        if not (ascending buckets) then None
        else
          Some
            { h_count = int_of_float (num count);
              h_sum = num sum;
              h_min = int_of_float (num vmin);
              h_max = int_of_float (num vmax);
              h_buckets = buckets }
      with Exit -> None)
  | _ -> None

let summary_json s =
  let base =
    match to_json s with Json.Obj fields -> fields | _ -> assert false
  in
  let p q = Json.Num (if s.h_count = 0 then 0.0 else quantile s q) in
  Json.Obj
    (base
    @ [ ("p50", p 0.50); ("p90", p 0.90); ("p99", p 0.99); ("p999", p 0.999) ])

(* ---- named registry -------------------------------------------------- *)

let registry_lock = Mutex.create ()
let registry : (string, t) Hashtbl.t = Hashtbl.create 16

let find_or_create name =
  Mutex.lock registry_lock;
  let h =
    match Hashtbl.find_opt registry name with
    | Some h -> h
    | None ->
        let h = create () in
        Hashtbl.add registry name h;
        h
  in
  Mutex.unlock registry_lock;
  h

let observe name v = if Probe.enabled () then record (find_or_create name) v

let time name f =
  if not (Probe.enabled ()) then f ()
  else begin
    let t0 = Probe.now_ns () in
    Fun.protect
      ~finally:(fun () ->
        let dt = Int64.sub (Probe.now_ns ()) t0 in
        record (find_or_create name) (Int64.to_int dt))
      f
  end

let all () =
  Mutex.lock registry_lock;
  let pairs = Hashtbl.fold (fun name h acc -> (name, h) :: acc) registry [] in
  Mutex.unlock registry_lock;
  pairs
  |> List.map (fun (name, h) -> (name, snapshot h))
  |> List.filter (fun (_, s) -> s.h_count > 0)
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let reset () =
  Mutex.lock registry_lock;
  Hashtbl.reset registry;
  Mutex.unlock registry_lock
