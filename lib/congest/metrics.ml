type t = {
  mutable rounds : int;
  mutable messages : int;
  mutable words : int;
  mutable delivered : int;
  mutable dropped : int;
  mutable duplicated : int;
  mutable retransmissions : int;
  mutable corrupted : int;
  mutable rejected : int;
  mutable suspicions : int;
  mutable link_failures : int;
  mutable checkpoints : int;
  mutable checkpoint_words : int;
  mutable recoveries : int;
  mutable resync_rounds : int;
  mutable pulses : int;
  mutable safe_messages : int;
  mutable straggles : int;
  mutable virtual_time : int;
  mutable cache_hits : int;
  mutable cache_misses : int;
  mutable cache_evictions : int;
  per_label : (string, int ref) Hashtbl.t;
}

let create () =
  {
    rounds = 0;
    messages = 0;
    words = 0;
    delivered = 0;
    dropped = 0;
    duplicated = 0;
    retransmissions = 0;
    corrupted = 0;
    rejected = 0;
    suspicions = 0;
    link_failures = 0;
    checkpoints = 0;
    checkpoint_words = 0;
    recoveries = 0;
    resync_rounds = 0;
    pulses = 0;
    safe_messages = 0;
    straggles = 0;
    virtual_time = 0;
    cache_hits = 0;
    cache_misses = 0;
    cache_evictions = 0;
    per_label = Hashtbl.create 16;
  }

let add t ~label k =
  if k < 0 then invalid_arg "Metrics.add: negative round count";
  t.rounds <- t.rounds + k;
  (* [find], not [find_opt]: the engine charges every round, and the hit
     path should not allocate an option *)
  match Hashtbl.find t.per_label label with
  | r -> r := !r + k
  | exception Not_found -> Hashtbl.add t.per_label label (ref k)

let add_messages t k = t.messages <- t.messages + k [@@hot]
let add_words t k = t.words <- t.words + k [@@hot]
let add_delivered t k = t.delivered <- t.delivered + k [@@hot]
let add_dropped t k = t.dropped <- t.dropped + k [@@hot]
let add_duplicated t k = t.duplicated <- t.duplicated + k [@@hot]
let add_retransmissions t k = t.retransmissions <- t.retransmissions + k [@@hot]
let add_corrupted t k = t.corrupted <- t.corrupted + k [@@hot]
let add_rejected t k = t.rejected <- t.rejected + k [@@hot]
let add_suspicions t k = t.suspicions <- t.suspicions + k [@@hot]
let add_link_failures t k = t.link_failures <- t.link_failures + k [@@hot]
let add_checkpoints t k = t.checkpoints <- t.checkpoints + k [@@hot]
let add_checkpoint_words t k = t.checkpoint_words <- t.checkpoint_words + k [@@hot]
let add_recoveries t k = t.recoveries <- t.recoveries + k [@@hot]
let add_resync_rounds t k = t.resync_rounds <- t.resync_rounds + k [@@hot]
let add_pulses t k = t.pulses <- t.pulses + k [@@hot]
let add_safe_messages t k = t.safe_messages <- t.safe_messages + k [@@hot]
let add_straggles t k = t.straggles <- t.straggles + k [@@hot]
let add_cache_hits t k = t.cache_hits <- t.cache_hits + k [@@hot]
let add_cache_misses t k = t.cache_misses <- t.cache_misses + k [@@hot]
let add_cache_evictions t k = t.cache_evictions <- t.cache_evictions + k [@@hot]

(* the virtual-time makespan is a high-water mark, not a sum *)
let observe_virtual_time t vt = if vt > t.virtual_time then t.virtual_time <- vt [@@hot]
let rounds t = t.rounds
let messages t = t.messages
let words t = t.words
let delivered t = t.delivered
let dropped t = t.dropped
let duplicated t = t.duplicated
let retransmissions t = t.retransmissions
let corrupted t = t.corrupted
let rejected t = t.rejected
let suspicions t = t.suspicions
let link_failures t = t.link_failures
let checkpoints t = t.checkpoints
let checkpoint_words t = t.checkpoint_words
let recoveries t = t.recoveries
let resync_rounds t = t.resync_rounds
let pulses t = t.pulses
let safe_messages t = t.safe_messages
let straggles t = t.straggles
let virtual_time t = t.virtual_time
let cache_hits t = t.cache_hits
let cache_misses t = t.cache_misses
let cache_evictions t = t.cache_evictions

let breakdown t =
  Det_tbl.bindings t.per_label ~compare:String.compare
  |> List.map (fun (label, r) -> (label, !r))
  |> List.sort (fun (la, a) (lb, b) ->
         (* count descending, label ascending on ties: fully deterministic *)
         match Int.compare b a with 0 -> String.compare la lb | c -> c)

let merge ~into src =
  into.messages <- into.messages + src.messages;
  into.words <- into.words + src.words;
  into.delivered <- into.delivered + src.delivered;
  into.dropped <- into.dropped + src.dropped;
  into.duplicated <- into.duplicated + src.duplicated;
  into.retransmissions <- into.retransmissions + src.retransmissions;
  into.corrupted <- into.corrupted + src.corrupted;
  into.rejected <- into.rejected + src.rejected;
  into.suspicions <- into.suspicions + src.suspicions;
  into.link_failures <- into.link_failures + src.link_failures;
  into.checkpoints <- into.checkpoints + src.checkpoints;
  into.checkpoint_words <- into.checkpoint_words + src.checkpoint_words;
  into.recoveries <- into.recoveries + src.recoveries;
  into.resync_rounds <- into.resync_rounds + src.resync_rounds;
  into.pulses <- into.pulses + src.pulses;
  into.safe_messages <- into.safe_messages + src.safe_messages;
  into.straggles <- into.straggles + src.straggles;
  if src.virtual_time > into.virtual_time then into.virtual_time <- src.virtual_time;
  into.cache_hits <- into.cache_hits + src.cache_hits;
  into.cache_misses <- into.cache_misses + src.cache_misses;
  into.cache_evictions <- into.cache_evictions + src.cache_evictions;
  Det_tbl.iter_sorted src.per_label ~compare:String.compare (fun label r ->
      add into ~label !r)

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (function
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let to_json ?name t =
  let buf = Buffer.create 256 in
  Buffer.add_char buf '{';
  (match name with
  | Some n -> Printf.bprintf buf {|"name":"%s",|} (json_escape n)
  | None -> ());
  Printf.bprintf buf
    {|"rounds":%d,"messages":%d,"words":%d,"delivered":%d,"dropped":%d,"duplicated":%d,"retransmissions":%d,"corrupted":%d,"rejected":%d,"suspicions":%d,"link_failures":%d,"checkpoints":%d,"checkpoint_words":%d,"recoveries":%d,"resync_rounds":%d,"pulses":%d,"safe_messages":%d,"straggles":%d,"virtual_time":%d,"cache_hits":%d,"cache_misses":%d,"cache_evictions":%d,"labels":{|}
    t.rounds t.messages t.words t.delivered t.dropped t.duplicated t.retransmissions
    t.corrupted t.rejected t.suspicions t.link_failures t.checkpoints t.checkpoint_words t.recoveries t.resync_rounds
    t.pulses t.safe_messages t.straggles t.virtual_time t.cache_hits t.cache_misses t.cache_evictions;
  List.iteri
    (fun i (l, r) ->
      if i > 0 then Buffer.add_char buf ',';
      Printf.bprintf buf {|"%s":%d|} (json_escape l) r)
    (breakdown t);
  Buffer.add_string buf "}}";
  Buffer.contents buf

let pp fmt t =
  Format.fprintf fmt "@[<v>rounds=%d messages=%d" t.rounds t.messages;
  if t.words > 0 then Format.fprintf fmt " words=%d" t.words;
  if t.dropped > 0 || t.duplicated > 0 || t.retransmissions > 0 then
    Format.fprintf fmt " delivered=%d dropped=%d duplicated=%d retransmissions=%d" t.delivered
      t.dropped t.duplicated t.retransmissions;
  if t.corrupted > 0 || t.rejected > 0 then
    Format.fprintf fmt " corrupted=%d rejected=%d" t.corrupted t.rejected;
  if t.suspicions > 0 || t.link_failures > 0 then
    Format.fprintf fmt " suspicions=%d link_failures=%d" t.suspicions t.link_failures;
  if t.checkpoints > 0 || t.recoveries > 0 then
    Format.fprintf fmt " checkpoints=%d checkpoint_words=%d recoveries=%d resync_rounds=%d"
      t.checkpoints t.checkpoint_words t.recoveries t.resync_rounds;
  if t.pulses > 0 then
    Format.fprintf fmt " pulses=%d safe_messages=%d straggles=%d virtual_time=%d"
      t.pulses t.safe_messages t.straggles t.virtual_time;
  if t.cache_hits > 0 || t.cache_misses > 0 then
    Format.fprintf fmt " cache_hits=%d cache_misses=%d cache_evictions=%d" t.cache_hits
      t.cache_misses t.cache_evictions;
  List.iter (fun (l, r) -> Format.fprintf fmt "@,  %-24s %d" l r) (breakdown t);
  Format.fprintf fmt "@]"
