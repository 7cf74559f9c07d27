module Pqueue = Repro_graph.Pqueue

(* Process-wide dials, installed by the CLIs the same way as
   [Engine.audit_enabled]: the algorithm layers never thread them. *)
let forced = ref false
let deadline = ref 0
let default_max_strikes = 3
let max_strikes = ref default_max_strikes

(* Exponential backoff on the pulse deadline is capped so the budget
   stays a sane int even for pathological strike counts. *)
let max_backoff_shift = 20

type queue = { q : int Pqueue.t; stride : int }

let create ~n = { q = Pqueue.create (); stride = max 1 n }
let is_empty t = Pqueue.is_empty t.q
let length t = Pqueue.length t.q

(* Composite priority [vt * stride + node]: equal virtual times break
   by ascending node id, so pop order is a deterministic function of
   the pushed set — never of heap-internal operation order. Virtual
   times are bounded by max_rounds x stall_factor x (1 + link
   latency), far below [max_int / stride] for any graph the simulator
   handles, so the encoding cannot overflow. *)
let push t ~vt v = Pqueue.push t.q ((vt * t.stride) + v) v

let pop t =
  let prio, v = Pqueue.pop_min t.q in
  (prio / t.stride, v)

(* Wire-leg salts: the k-th copy of a data message, its acknowledgement
   and the SAFE fan-out draw independent latencies. [leg_safe] = 2 is
   disjoint from every [3k] / [3k + 1]. *)
let leg_data k = 3 * k
let leg_ack k = (3 * k) + 1
let leg_safe = 2

(* One wire crossing: a copy spends [1 + latency] virtual-time units in
   flight. Pure hash of the adversary seed (see {!Fault.latency}), so
   consulting it in event order leaves the fate RNG stream untouched. *)
let wire faults ~round ~src ~dst ~leg =
  match faults with
  | None -> 1
  | Some f -> 1 + Fault.latency f ~round ~src ~dst ~leg

(* Lateness allowance against a neighbor already holding [strikes]
   strikes: the base deadline, doubled per consecutive miss. *)
let strike_allowance ~strikes = !deadline lsl min strikes max_backoff_shift
