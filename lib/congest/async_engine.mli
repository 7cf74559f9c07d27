(** Virtual-time machinery for the asynchronous executor.

    The asynchronous execution substrate (DESIGN.md Section 3g) splits
    in two: this module owns the model-independent machinery — the
    deterministic virtual-time event queue (a thin facade over
    [Repro_graph.Pqueue]), the wire-latency legs, and the process-wide
    deadline-pacing dials — while {!Engine} owns the pulse loop, which
    shares its send routing, accounting, audit and tracing with the
    lockstep round loop.

    Virtual time is dimensionless: one unit is one nominal node step
    and one nominal wire crossing. A straggler window stretches a step
    to [factor] units; per-link latency stretches a crossing to
    [1 + latency] units. All stretches are pure hashes of the timing
    seed ({!Fault.latency}), so the schedule replays from the seed
    alone and a synchronous run of the same profile is byte-identical
    with or without timing dimensions. *)

(** When true, {!Engine.Make.run} routes every run through the
    asynchronous executor even if the fault profile has no timing
    dimension (the [--async] CLI flag). Exactness tests rely on this
    to compare engines on identical profiles. *)
val forced : bool ref

(** Pulse deadline in virtual-time units, [0] = off (the default: the
    pure α-synchronizer waits for every neighbor's SAFE forever). When
    positive, a node takes a strike against a neighbor whose
    contribution alone holds its pulse gate open more than
    [2 * deadline * 2^strikes] units past everything else it is
    waiting for (its own schedule, and the runner-up arrival and SAFE
    terms — a {e relative} criterion, so lag merely inherited from a
    straggler deeper in the graph cancels out instead of cascading
    cuts ring by ring). After {!max_strikes} consecutive strikes the
    neighbor is cut: subsequent copies from it are dropped (reason
    [Straggler]), which starves the heartbeat {!Detector} into
    suspecting it so [run_certified] can excise it. *)
val deadline : int ref

(** Consecutive blown deadlines before a neighbor is cut. *)
val max_strikes : int ref

val default_max_strikes : int

(** Cap on the exponent of the deadline backoff ([2^shift]). *)
val max_backoff_shift : int

(** {2 Virtual-time event queue}

    Deterministic min-queue of [(vt, node)] events, each held as one
    composite integer key: ties in virtual time break by ascending node
    id, so pop order is a function of the pushed set — never of
    heap-internal operation order. Push and pop allocate nothing. *)

type queue

(** [create ~n] is an empty queue for nodes [0 .. n-1]. *)
val create : n:int -> queue

val is_empty : queue -> bool

(** [push q ~vt v] schedules node [v] at virtual time [vt]. *)
val push : queue -> vt:int -> int -> unit

(** [pop_key q] removes and returns the key of the earliest event; read
    it with {!key_vt} and {!key_node}.
    @raise Not_found if empty. *)
val pop_key : queue -> int

val key_vt : queue -> int -> int
val key_node : queue -> int -> int

(** {2 Wire legs}

    Leg salts keep the latency draws of the [k]-th data copy of a
    transmission, its acknowledgement, and the SAFE fan-out mutually
    independent ({!Fault.latency}'s [leg] coordinate). *)

val leg_data : int -> int

val leg_ack : int -> int

val leg_safe : int

(** [wire faults ~round ~src ~dst ~leg] — virtual-time units one wire
    crossing of the [src -> dst] link spends in flight at pulse
    [round]: [1] plus the profile's latency draw (just [1] with no
    adversary). *)
val wire : Fault.t option -> round:int -> src:int -> dst:int -> leg:int -> int

(** [strike_allowance ~strikes] — the lateness allowance against a
    neighbor already holding [strikes] strikes:
    [deadline * 2^strikes], shift capped at {!max_backoff_shift}. *)
val strike_allowance : strikes:int -> int
