(* BENCHMARK.json at the repository root is the one list of workloads
   and metrics: the runner prints exactly the metrics it names, with
   the units it gives, and the repeat helper judges spread against its
   bounds. *)

module Json = Obs.Json

type metric = {
  name : string;
  unit_ : string;
  bound : float option;  (* end-to-end metrics only *)
}

type t = {
  run_seconds : int;
  workloads : string list;
  end_to_end : metric list;
  per_layer : metric list;
}

let path = "BENCHMARK.json"

let load () : t =
  let j =
    match Json.parse (In_channel.with_open_bin path In_channel.input_all) with
    | Ok j -> j
    | Error e -> failwith (path ^ ": " ^ e)
  in
  let field name j =
    match Json.member name j with
    | Some v -> v
    | None -> failwith (Printf.sprintf "%s: missing %S" path name)
  in
  let str name j =
    match Json.to_str (field name j) with
    | Some s -> s
    | None -> failwith (Printf.sprintf "%s: %S is not a string" path name)
  in
  let list name j = Option.value ~default:[] (Json.to_list (field name j)) in
  let metric m =
    { name = str "name" m; unit_ = str "unit" m;
      bound = Option.bind (Json.member "bound" m) Json.to_num }
  in
  { run_seconds =
      (match Json.to_num (field "run_seconds" j) with
      | Some v -> int_of_float v
      | None -> failwith (path ^ ": \"run_seconds\" is not a number"));
    workloads = List.map (str "name") (list "workloads" j);
    end_to_end = List.map metric (list "end_to_end" j);
    per_layer = List.map metric (list "per_layer" j) }
