(** Communication-cost accounting for simulated CONGEST executions.

    Every algorithm in this repository reports its cost through a
    [Metrics.t]: total rounds, total messages, and a labeled breakdown so
    experiments can attribute rounds to phases (e.g. ["sep/mvc"],
    ["dl/broadcast-Hx"]). Message-level simulations add measured values;
    primitive-accounted reductions (DESIGN.md Section 3) add charges
    computed from measured dilation/congestion. *)

type t

val create : unit -> t

(** [add t ~label rounds] charges [rounds] communication rounds. *)
val add : t -> label:string -> int -> unit

(** [add_messages t k] records [k] point-to-point messages. *)
val add_messages : t -> int -> unit

(** [add_words t k] records [k] machine words of accepted message payload
    (charged by the engine per send, after the bandwidth check). *)
val add_words : t -> int -> unit

(** [add_delivered t k] records [k] message copies actually placed in an
    inbox. Without faults [delivered = messages]; under a fault adversary
    [messages + duplicated = delivered + dropped] once no copy is in
    flight — the conservation law the engine's audit mode enforces. *)
val add_delivered : t -> int -> unit

(** [add_dropped t k] records [k] messages destroyed by a fault adversary
    (lost on a link, or addressed to a crashed node). *)
val add_dropped : t -> int -> unit

(** [add_duplicated t k] records [k] extra message copies injected by a
    fault adversary. *)
val add_duplicated : t -> int -> unit

(** [add_retransmissions t k] records [k] retransmissions performed by a
    reliable transport layer ({!Transport}). *)
val add_retransmissions : t -> int -> unit

(** [add_corrupted t k] records [k] message copies whose payload the
    fault adversary garbled in flight. A corrupted copy still counts as
    delivered (or dropped, if the raw engine discards it as undecodable
    garbage) for the conservation law. *)
val add_corrupted : t -> int -> unit

(** [add_rejected t k] records [k] packets a transport integrity layer
    refused on receipt because their checksum failed ({!Transport}).
    "Zero corrupted payloads accepted" means every corrupted copy that
    reached a live node is rejected: [rejected] accounts them. *)
val add_rejected : t -> int -> unit

(** [add_suspicions t k] records [k] suspicion transitions raised by a
    failure detector ({!Detector}): node [v] started suspecting neighbor
    [u]. Clearing a suspicion is not a charge. *)
val add_suspicions : t -> int -> unit

(** [add_link_failures t k] records [k] links a transport declared dead
    after exhausting its retransmission budget ({!Transport}'s
    [max_retries] cap): outstanding and queued traffic on the link was
    abandoned. *)
val add_link_failures : t -> int -> unit

(** [add_checkpoints t k] records [k] checkpoints written to simulated
    per-node stable storage by a {!Recovery} layer. Checkpoints cost no
    network traffic — they are charged separately from [messages]/[words]
    so the engine's traffic-conservation audit is undisturbed. *)
val add_checkpoints : t -> int -> unit

(** [add_checkpoint_words t k] records [k] machine words of serialized
    state written across checkpoints (the storage-bandwidth analogue of
    [add_words]). *)
val add_checkpoint_words : t -> int -> unit

(** [add_recoveries t k] records [k] crash-amnesia restarts that reloaded
    state from stable storage (or re-ran [init] when no checkpoint
    existed). *)
val add_recoveries : t -> int -> unit

(** [add_resync_rounds t k] records [k] node-rounds spent between a
    restart and having heard back from every neighbor of the restarted
    node (the HELLO/RESYNC handshake window). *)
val add_resync_rounds : t -> int -> unit

(** [add_pulses t k] records [k] synchronizer pulses begun (one per live
    node per logical round under the asynchronous executor). Pulses are
    control overhead: they are charged separately from [rounds] so the
    user-level cost of a run is identical between the engine's lockstep
    loop and its pulse loop. *)
val add_pulses : t -> int -> unit

(** [add_safe_messages t k] records [k] SAFE notifications fanned out by
    the α-synchronizer (one per live neighbor per completed pulse) —
    control traffic charged separately from [messages]/[words]. *)
val add_safe_messages : t -> int -> unit

(** [add_straggles t k] records [k] node-pulses executed under an active
    straggler window (slowed or stalled). *)
val add_straggles : t -> int -> unit

(** [observe_virtual_time t vt] raises the recorded virtual-time
    makespan to [vt] if larger — a high-water mark, not a sum (and
    {!merge} takes the max across runs). *)
val observe_virtual_time : t -> int -> unit

(** [add_cache_hits t k] records [k] hot-pair cache hits in the label
    server (lib/serve). *)
val add_cache_hits : t -> int -> unit

(** [add_cache_misses t k] records [k] hot-pair cache misses (each one
    is a full label decode). *)
val add_cache_misses : t -> int -> unit

(** [add_cache_evictions t k] records [k] LRU evictions from the
    hot-pair cache. *)
val add_cache_evictions : t -> int -> unit

val rounds : t -> int
val messages : t -> int
val words : t -> int
val delivered : t -> int
val dropped : t -> int
val duplicated : t -> int
val retransmissions : t -> int
val corrupted : t -> int
val rejected : t -> int
val suspicions : t -> int
val link_failures : t -> int
val checkpoints : t -> int
val checkpoint_words : t -> int
val recoveries : t -> int
val resync_rounds : t -> int
val pulses : t -> int
val safe_messages : t -> int
val straggles : t -> int
val virtual_time : t -> int
val cache_hits : t -> int
val cache_misses : t -> int
val cache_evictions : t -> int

(** [breakdown t] lists [(label, rounds)] aggregated per label,
    sorted by decreasing rounds. *)
val breakdown : t -> (string * int) list

(** [merge ~into src] adds all of [src]'s charges into [into]. *)
val merge : into:t -> t -> unit

(** [to_json ?name t] renders every counter plus the per-label
    breakdown as one flat JSON object (no trailing newline); [name]
    adds a leading ["name"] field. Machine-readable counterpart of
    {!pp}, used by the shared [--metrics-json] CLI flag. *)
val to_json : ?name:string -> t -> string

val pp : Format.formatter -> t -> unit
