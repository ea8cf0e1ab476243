(* Span and counter recording. See probe.mli for the contract.

   Hot-path discipline: when disabled, every probe is one Atomic.get and
   a branch. When enabled, spans touch only domain-local state (a DLS
   stack and a DLS buffer) plus one fetch-and-add for the id; counters
   take a global mutex, which is acceptable at diagnostic volumes. *)

let enabled_flag = Atomic.make false
let enabled () = Atomic.get enabled_flag
let set_enabled b = Atomic.set enabled_flag b

let now_ns () : int64 = Monotonic_clock.now ()

(* ------------------------------------------------------------------ *)
(* Spans. *)

type span = {
  id : int;
  parent : int;
  domain : int;
  label : string;
  start_ns : int64;
  stop_ns : int64;
}

let next_id = Atomic.make 0

(* Per-domain buffers of closed spans. Each buffer registers itself in
   the global list on first use in its domain; the registry keeps the
   ref alive past the domain's death (pools retire their workers), so no
   recorded span is ever lost. *)
let registry : span list ref list ref = ref []
let registry_lock = Mutex.create ()

let buffer_key : span list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      let buf = ref [] in
      Mutex.lock registry_lock;
      registry := buf :: !registry;
      Mutex.unlock registry_lock;
      buf)

(* The stack of open span ids on this domain. The ambient parent handed
   over by [with_parent] is just a pre-seeded stack bottom. *)
let stack_key : int list Domain.DLS.key = Domain.DLS.new_key (fun () -> [])

let current_span () =
  match Domain.DLS.get stack_key with [] -> -1 | id :: _ -> id

let with_parent parent f =
  if (not (enabled ())) || parent < 0 then f ()
  else begin
    let saved = Domain.DLS.get stack_key in
    Domain.DLS.set stack_key (parent :: saved);
    Fun.protect ~finally:(fun () -> Domain.DLS.set stack_key saved) f
  end

let with_span label f =
  if not (enabled ()) then f ()
  else begin
    let id = Atomic.fetch_and_add next_id 1 in
    let saved = Domain.DLS.get stack_key in
    let parent = match saved with [] -> -1 | p :: _ -> p in
    Domain.DLS.set stack_key (id :: saved);
    let start_ns = now_ns () in
    Fun.protect
      ~finally:(fun () ->
        let stop_ns = now_ns () in
        Domain.DLS.set stack_key saved;
        let buf = Domain.DLS.get buffer_key in
        buf :=
          { id; parent; domain = (Domain.self () :> int); label; start_ns;
            stop_ns }
          :: !buf)
      f
  end

let spans () : span list =
  Mutex.lock registry_lock;
  let buffers = !registry in
  Mutex.unlock registry_lock;
  List.concat_map (fun buf -> !buf) buffers
  |> List.sort (fun a b -> compare a.id b.id)

(* ------------------------------------------------------------------ *)
(* Counters: plain event tallies. *)

let counter_lock = Mutex.create ()
let counter_table : (string, int ref) Hashtbl.t = Hashtbl.create 64

let count name =
  if enabled () then begin
    Mutex.lock counter_lock;
    (match Hashtbl.find_opt counter_table name with
    | Some c -> incr c
    | None -> Hashtbl.replace counter_table name (ref 1));
    Mutex.unlock counter_lock
  end

let counters () : (string * int) list =
  Mutex.lock counter_lock;
  let entries =
    Hashtbl.fold (fun name c acc -> (name, !c) :: acc) counter_table []
  in
  Mutex.unlock counter_lock;
  List.sort (fun (a, _) (b, _) -> compare a b) entries

(* ------------------------------------------------------------------ *)
(* Gauges: last-write-wins levels, same mutex discipline as counters. *)

let gauge_lock = Mutex.create ()
let gauge_table : (string, float) Hashtbl.t = Hashtbl.create 16

let set_gauge name v =
  if enabled () then begin
    Mutex.lock gauge_lock;
    Hashtbl.replace gauge_table name v;
    Mutex.unlock gauge_lock
  end

let gauge name =
  Mutex.lock gauge_lock;
  let v = Hashtbl.find_opt gauge_table name in
  Mutex.unlock gauge_lock;
  v

let gauges () : (string * float) list =
  Mutex.lock gauge_lock;
  let entries = Hashtbl.fold (fun k v acc -> (k, v) :: acc) gauge_table [] in
  Mutex.unlock gauge_lock;
  List.sort (fun (a, _) (b, _) -> compare a b) entries

(* ------------------------------------------------------------------ *)

let reset_spans () =
  Mutex.lock registry_lock;
  List.iter (fun buf -> buf := []) !registry;
  Mutex.unlock registry_lock

let reset () =
  Mutex.lock counter_lock;
  Hashtbl.reset counter_table;
  Mutex.unlock counter_lock;
  Mutex.lock gauge_lock;
  Hashtbl.reset gauge_table;
  Mutex.unlock gauge_lock;
  reset_spans ();
  Atomic.set next_id 0
