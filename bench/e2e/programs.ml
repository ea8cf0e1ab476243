(* Seeded inputs. Every program, edit and arrival order the benchmark
   sends is derived from the [--seed] argument through these functions;
   the system under test receives only the generated requests. *)

module Shape = Corpus.Shape

type program = { name : string; source : string }

(* The [k]th program of a seed's stream: the four generator classes in
   turn; even indices per class are medium-sized and odd ones large,
   unless [size] fixes one preset. Names carry the seed, so streams of
   different seeds never share a name. *)
let nth ?size ~(seed : int) (k : int) : program =
  let classes = Array.of_list Shape.all_classes in
  let cls = classes.(k mod Array.length classes) in
  let index = k / Array.length classes in
  let size =
    match size with
    | Some s -> s
    | None -> if index mod 2 = 0 then Shape.medium else Shape.large
  in
  { name = Printf.sprintf "%s.s%d" (Corpus.Genprog.name cls index) seed;
    source = Corpus.Genprog.generate ~seed ~cls ~size ~index }

let corpus ?size ~(seed : int) ~(count : int) () : program array =
  Array.init count (nth ?size ~seed)

(* The runs a generated program is profiled on. *)
let corpus_runs : Core.Pipeline.run list =
  List.map
    (fun (argv, input) -> { Core.Pipeline.argv; input })
    Corpus.Genprog.runs

(* A splitmix64 stream, so request sequences are reproducible from the
   seed alone. *)
type rng = { mutable state : int64 }

let rng (seed : int) (stream : int) : rng =
  { state = Int64.(add (mul (of_int seed) 0x9E3779B97F4A7C15L) (of_int stream)) }

let next (g : rng) : int64 =
  g.state <- Int64.add g.state 0x9E3779B97F4A7C15L;
  let z = g.state in
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

(* Uniform in [0, n). *)
let below (g : rng) (n : int) : int =
  Int64.to_int (Int64.unsigned_rem (next g) (Int64.of_int n))

(* ------------------------------------------------------------------ *)
(* One-function edits. *)

(* Function definitions of a generated program: (name, offset just past
   the body's opening brace). A definition is a column-0 line with a
   parameter list and an opening brace; struct declarations and
   initialisers are skipped. *)
let definitions (source : string) : (string * int) list =
  let n = String.length source in
  let rec lines acc start =
    if start >= n then List.rev acc
    else
      let stop = Option.value ~default:n (String.index_from_opt source start '\n') in
      lines ((start, String.sub source start (stop - start)) :: acc) (stop + 1)
  in
  List.filter_map
    (fun (off, line) ->
      let is_alpha c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') in
      match (String.index_opt line '(', String.index_opt line '{') with
      | Some paren, Some brace
        when line <> "" && is_alpha line.[0] && paren < brace
             && not (String.starts_with ~prefix:"struct" line) ->
        let is_ident c = is_alpha c || c = '_' || (c >= '0' && c <= '9') in
        let stop = ref paren in
        while !stop > 0 && line.[!stop - 1] = ' ' do decr stop done;
        let start = ref !stop in
        while !start > 0 && is_ident line.[!start - 1] do decr start done;
        Some (String.sub line !start (!stop - !start), off + brace + 1)
      | _ -> None)
    (lines [] 0)

(* Insert [int __edit_N = N;] as the first declaration of the [which]th
   function (modulo the number of functions). Returns the edited source
   and the edited function's name. The edit changes that function's
   content hash and no other: the declaration is local and unused. *)
let edit (source : string) ~(which : int) ~(n : int) : string * string =
  match definitions source with
  | [] -> invalid_arg "Programs.edit: no function definition"
  | defs ->
    let name, at = List.nth defs (which mod List.length defs) in
    let decl = Printf.sprintf " int __edit_%d = %d;" n n in
    ( String.sub source 0 at ^ decl
      ^ String.sub source at (String.length source - at),
      name )
