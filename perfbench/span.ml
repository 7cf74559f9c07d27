(* Spans recorded by the benchmark around its own calls into the lib/
   layers. Nothing inside lib/ is instrumented: a span brackets one call
   from outside and reads the clock, the GC and the call's Metrics.t at
   the two boundaries. Spans live in memory and are written out once, at
   the end of a traced run. With tracing off, [with_] is a bare call. *)

module Metrics = Repro_congest.Metrics

(* ns timestamps from CLOCK_MONOTONIC; gettimeofday is too coarse for a
   64-query batch *)
let now_ns () = Int64.to_int (Monotonic_clock.now ())

type t = {
  id : int;
  name : string;  (** "<layer>.<call>", e.g. "treedec.decompose" *)
  parent : int;  (** enclosing span id, -1 at top level *)
  group : int;  (** op index, or one of the negative groups below *)
  t0 : int;
  t1 : int;
  minor_words : float;
  alloc_words : float;  (** minor words + major - promoted *)
  major_gcs : int;
  rounds : int;
  messages : int;
}

let enabled = ref false

(* Spans and notes are grouped by op index; set-up repetitions, the
   pipeline probes and the determinism re-run get groups of their own. *)
let group = ref 0
let setup_group r = -1 - r
let probe_group = -100
let rerun_group = -200

let in_group g f =
  let saved = !group in
  group := g;
  Fun.protect ~finally:(fun () -> group := saved) f

(* named per-group values read at layer boundaries (widths, counters) *)
let notes : (int * string * float) list ref = ref []
let note name v = if !enabled then notes := (!group, name, v) :: !notes

let spans : t list ref = ref []
let count = ref 0
let stack : int list ref = ref []

(* time spent inside the tracer's own bookkeeping, in ns *)
let overhead_ns = ref 0

let layer name = match String.index_opt name '.' with Some i -> String.sub name 0 i | None -> name
let duration s = s.t1 - s.t0

let with_ ?metrics name f =
  if not !enabled then f ()
  else begin
    let b0 = now_ns () in
    let id = !count in
    incr count;
    let parent = match !stack with p :: _ -> p | [] -> -1 in
    stack := id :: !stack;
    let cost () =
      match metrics with Some m -> (Metrics.rounds m, Metrics.messages m) | None -> (0, 0)
    in
    let r0, m0 = cost () in
    (* quick_stat's minor words lag by up to one minor heap (they move at
       minor collections); Gc.minor_words is exact *)
    let gc0 = Gc.quick_stat () and mw0 = Gc.minor_words () in
    let t0 = now_ns () in
    overhead_ns := !overhead_ns + (t0 - b0);
    let finish () =
      let t1 = now_ns () in
      let mw1 = Gc.minor_words () and gc1 = Gc.quick_stat () in
      let r1, m1 = cost () in
      let direct (s : Gc.stat) = s.major_words -. s.promoted_words in
      stack := List.tl !stack;
      spans :=
        {
          id;
          name;
          parent;
          group = !group;
          t0;
          t1;
          minor_words = mw1 -. mw0;
          alloc_words = mw1 -. mw0 +. direct gc1 -. direct gc0;
          major_gcs = gc1.major_collections - gc0.major_collections;
          rounds = r1 - r0;
          messages = m1 - m0;
        }
        :: !spans;
      overhead_ns := !overhead_ns + (now_ns () - t1)
    in
    Fun.protect ~finally:finish f
  end

let all () = List.rev !spans

(* [self_ns spans] pairs each span with its duration minus the time its
   direct children cover (siblings never overlap: one thread). *)
let self_ns spans =
  let child = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child s.parent
          (duration s + Option.value ~default:0 (Hashtbl.find_opt child s.parent)))
    spans;
  List.map
    (fun s -> (s, duration s - Option.value ~default:0 (Hashtbl.find_opt child s.id)))
    spans

let write path spans =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"name\":%S,\"parent\":%d,\"group\":%d,\"start_ns\":%d,\"end_ns\":%d,\
         \"minor_words\":%.0f,\"alloc_words\":%.0f,\"major_gcs\":%d,\"rounds\":%d,\
         \"messages\":%d}\n"
        s.id s.name s.parent s.group s.t0 s.t1 s.minor_words s.alloc_words s.major_gcs
        s.rounds s.messages)
    spans;
  close_out oc
