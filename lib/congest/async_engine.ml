(* Process-wide dials, installed by the CLIs the same way as
   [Engine.audit_enabled]: the algorithm layers never thread them. *)
let forced = ref false
let deadline = ref 0
let default_max_strikes = 3
let max_strikes = ref default_max_strikes

(* Exponential backoff on the pulse deadline is capped so the budget
   stays a sane int even for pathological strike counts. *)
let max_backoff_shift = 20

(* A binary min-heap of composite keys [vt * stride + node] in an int
   array. Equal virtual times break by ascending node id, so pop order
   is a deterministic function of the pushed set — never of
   heap-internal operation order. The node is the key's remainder, so
   an event is one unboxed int and push/pop allocate nothing once the
   array has grown. Virtual times are bounded by max_rounds x
   stall_factor x (1 + link latency), far below [max_int / stride] for
   any graph the simulator handles, so the encoding cannot overflow. *)
type queue = { mutable heap : int array; mutable size : int; stride : int }

let create ~n = { heap = [||]; size = 0; stride = max 1 n }
let is_empty t = t.size = 0

let rec sift_up heap i key =
  let parent = (i - 1) / 2 in
  if i > 0 && heap.(parent) > key then begin
    heap.(i) <- heap.(parent);
    sift_up heap parent key
  end
  else heap.(i) <- key

let rec sift_down heap size i key =
  let l = (2 * i) + 1 in
  if l >= size then heap.(i) <- key
  else begin
    let c = if l + 1 < size && heap.(l + 1) < heap.(l) then l + 1 else l in
    if heap.(c) < key then begin
      heap.(i) <- heap.(c);
      sift_down heap size c key
    end
    else heap.(i) <- key
  end

let push t ~vt v =
  if t.size = Array.length t.heap then begin
    let grown = Array.make (max 8 (2 * t.size)) 0 in
    Array.blit t.heap 0 grown 0 t.size;
    t.heap <- grown
  end;
  t.size <- t.size + 1;
  sift_up t.heap (t.size - 1) ((vt * t.stride) + v)

let pop_key t =
  if t.size = 0 then raise Not_found;
  let top = t.heap.(0) in
  t.size <- t.size - 1;
  if t.size > 0 then sift_down t.heap t.size 0 t.heap.(t.size);
  top

let key_vt t key = key / t.stride
let key_node t key = key mod t.stride

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
