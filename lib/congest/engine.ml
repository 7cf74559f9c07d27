module Digraph = Repro_graph.Digraph

let default_max_words = 4
let audit_enabled = ref false

(* Process-wide trace sink (same install pattern as [audit_enabled]):
   the engine and the layers above it (transport, recovery) emit
   through whatever sink is installed here, and never reference a
   concrete sink implementation. Emit sites guard on [.enabled] before
   constructing an event, so with the default null sink tracing
   allocates nothing and costs one branch per site. *)
let trace_sink = ref Repro_obs.Sink.null

exception
  Round_limit_exceeded of { label : string; rounds : int; active_nodes : int }

exception Audit_violation of { label : string; round : int; detail : string }

let () =
  Printexc.register_printer (function
    | Round_limit_exceeded { label; rounds; active_nodes } ->
        Some
          (Printf.sprintf
             "Engine.Round_limit_exceeded(%s): %d rounds elapsed, %d nodes still active"
             label rounds active_nodes)
    | Audit_violation { label; round; detail } ->
        Some
          (Printf.sprintf "Engine.Audit_violation(%s): round %d: %s" label round detail)
    | _ -> None)

(* the per-round send contract, shared with the transport's user queue *)
let check_send ~runner ~label ~round ~node ~neighbors ~sent_to u =
  if not (Hashtbl.mem neighbors u) then
    invalid_arg
      (Printf.sprintf "%s(%s): round %d: node %d sent to non-neighbor %d" runner label round
         node u);
  if Hashtbl.mem sent_to u then
    invalid_arg
      (Printf.sprintf "%s(%s): round %d: node %d sent two messages to %d in one round" runner
         label round node u);
  Hashtbl.add sent_to u ()

(* Sort an inbox by sender id. [List.sort] builds its local closures
   before it looks at the length, so the empty and single-entry inboxes
   of idle node-rounds are returned as they are. The sort is stable, so
   copies from one sender keep their delivery order. *)
let by_sender (a, _) (b, _) = Int.compare a b

let sort_inbox = function
  | ([] | [ _ ]) as inbox -> inbox
  | inbox -> List.sort by_sender inbox

module type MSG = sig
  type t

  val words : t -> int
end

module Make (M : MSG) = struct
  type inbox = (int * M.t) list
  type outbox = (int * M.t) list

  (* a copy held back by a delay fault: the words measured at send, the
     corruption decided in flight and, on the pulse loop, the physical
     arrival time *)
  type held = {
    h_deliver_round : int;
    h_dst : int;
    h_src : int;
    h_msg : M.t;
    h_words : int;
    h_send_round : int;
    h_corrupted : bool;
    h_arr : int;
  }

  (* One executor core, two loops. Everything that enforces and counts
     the model (per-round setup, the trace preamble, send validation,
     fate routing and delivery, delay maturation, the buffer swap,
     charging and the auditor) is written once below and shared by:

     - the lockstep loop, which steps node v and routes v's sends
       before stepping v + 1;
     - the asynchronous pulse loop (Awerbuch's α-synchronizer, DESIGN.md
       §3g), taken when the fault profile has a timing dimension or
       {!Async_engine.forced} is set. Pulses coincide with rounds; user
       steps run in virtual-time order off a deterministic event queue,
       but sends are committed only once every live node has stepped,
       in the lockstep loop's canonical order (node ascending, outbox
       order). So the adversary's fate stream, and with it every
       delivery, drop and duplicate, is byte-identical to the lockstep
       loop's. Timing draws are pure hashes (Fault), so consulting them
       in event order costs no stream position.

     The lockstep loop stays separate: dispatch-then-commit would move
     the trace events a step emits (the transport's Ack/Retransmit)
     relative to the sends of earlier nodes. The pulse loop's extras (arrival timestamps and SAFE
     points, the Straggler cut drop, the unbounded-stall receiver check)
     are guarded by [async]; a stall window makes a profile timing-active,
     so none of them can fire on the lockstep loop. *)
  let run skeleton ~init ~step ~active ?faults ?on_restart ?corrupt
      ?(max_rounds = 10_000_000) ?(max_words = default_max_words) ~metrics ~label () =
    if Digraph.directed skeleton then
      invalid_arg "Engine.run: communication network must be undirected";
    let audit = !audit_enabled in
    let async =
      !Async_engine.forced
      || match faults with Some f -> Fault.timing_active f | None -> false
    in
    let n = Digraph.n skeleton in
    (* [Digraph.neighbors] builds its array afresh on every call, so the
       pulse loop reads this copy instead *)
    let nbrs = Array.init n (Digraph.neighbors skeleton) in
    let neighbor_sets =
      Array.map
        (fun vs ->
          let tbl = Hashtbl.create 8 in
          Array.iter (fun u -> Hashtbl.replace tbl u ()) vs;
          tbl)
        nbrs
    in
    let states = Array.init n init in
    (* double-buffered inboxes: both arrays live for the whole run and
       swap roles each round, so the loop never allocates an array *)
    let inboxes = ref (Array.make n []) in
    let next_inboxes = ref (Array.make n []) in
    let round = ref 0 in
    (* crash-amnesia restart: the node boots with no volatile memory, so
       its state is rebuilt from scratch — by default via [init], or via
       the [on_restart] hook so layered protocols (transport epochs,
       checkpoint recovery) can reconstruct themselves instead *)
    let restart_state =
      match on_restart with
      | Some f -> f
      | None -> fun ~round:_ ~node -> init node
    in
    let in_flight = ref false in
    (* copies held back by a delay fault, bucketed by deliver round in a
       ring: bucket [r mod size] holds the copies maturing into round [r],
       newest first. Every held copy matures within [size] rounds (the
       ring doubles when a longer delay arrives), so a bucket never mixes
       deliver rounds. [held_count] counts the copies across buckets. *)
    let held = ref (Array.make 8 []) in
    let held_count = ref 0 in
    let sink = !trace_sink in
    let tracing = sink.Repro_obs.Sink.enabled in
    let emit e = Repro_obs.Sink.emit sink e in
    (match faults with Some f -> Fault.begin_run f | None -> ());
    if tracing then begin
      emit (Repro_obs.Event.Run_start { label; faulty = Option.is_some faults });
      (* static fault windows up front so replay can rebuild the
         profile; the timing statics are empty on the lockstep loop *)
      match faults with
      | None -> ()
      | Some f ->
          let p = Fault.profile_of f in
          List.iter
            (fun (c : Fault.crash) ->
              emit
                (Repro_obs.Event.Crash_window
                   {
                     node = c.node;
                     from_round = c.from_round;
                     until_round = c.until_round;
                     amnesia = c.mode = Fault.Amnesia;
                   }))
            p.crashes;
          List.iter
            (fun (p : Fault.partition) ->
              let links, nodes =
                match p.cut with
                | Fault.Links es -> (es, [])
                | Fault.Around vs -> ([], vs)
              in
              emit
                (Repro_obs.Event.Partition_window
                   { links; nodes; from_round = p.from_round; heal_round = p.heal_round }))
            p.partitions;
          List.iter
            (fun (s : Fault.straggle) ->
              emit
                (Repro_obs.Event.Straggle_window
                   {
                     node = s.s_node;
                     from_round = s.s_from;
                     until_round = s.s_until;
                     factor = s.factor;
                   }))
            p.stragglers;
          if Fault.timing_active f then begin
            emit
              (Repro_obs.Event.Timing
                 { link_latency = p.link_latency; skew = p.skew; seed = Fault.seed_of f });
            for v = 0 to n - 1 do
              let offset = Fault.skew_of f v in
              if offset > 0 then emit (Repro_obs.Event.Skew { node = v; offset })
            done
          end
    end;
    (* last observed up/down status per node, for crash/restart
       transition events (allocated only when tracing) *)
    let prev_down = Array.make (if tracing then n else 0) false in
    (* a node inside an unbounded stall window behaves like a
       crash-stop: it neither steps nor sends, copies addressed to it
       are dropped, and it is excluded from the liveness check *)
    let down_at ~round v =
      match faults with
      | None -> false
      | Some f -> Fault.crashed f ~round v || (async && Fault.stalled_forever f ~round v)
    in
    let down v = down_at ~round:!round v in
    let link_down src dst =
      match faults with
      | None -> false
      | Some f -> Fault.link_down f ~round:!round ~src ~dst
    in
    (* per-link up/down transitions for Partition/Heal trace events;
       only maintained when tracing a profile that has partitions *)
    let partitioned =
      match faults with
      | Some f -> (Fault.profile_of f).partitions <> []
      | None -> false
    in
    let skeleton_edges =
      if tracing && partitioned then Digraph.edges skeleton else [||]
    in
    let prev_link_down = Array.make (Array.length skeleton_edges) false in
    let emit_link_transitions () =
      Array.iteri
        (fun i (e : Digraph.edge) ->
          let down = link_down e.Digraph.src e.Digraph.dst in
          if down <> prev_link_down.(i) then
            emit
              (if down then
                 Repro_obs.Event.Partition
                   { round = !round; src = e.Digraph.src; dst = e.Digraph.dst }
               else
                 Repro_obs.Event.Heal
                   { round = !round; src = e.Digraph.src; dst = e.Digraph.dst });
          prev_link_down.(i) <- down)
        skeleton_edges
    in
    let live_active v =
      active states.(v)
      && match faults with
         | None -> true
         | Some f ->
             (not (Fault.crash_stopped f ~round:!round v))
             && not (async && Fault.stalled_forever f ~round:!round v)
    in
    (* recursive scans instead of ref-counted loops: no per-call ref
       cells, so the quiescence check itself is allocation-free *)
    let rec count_active_from v acc =
      if v >= n then acc else count_active_from (v + 1) (if live_active v then acc + 1 else acc)
    in
    let count_active () = count_active_from 0 0 in
    let rec any_live_active v = v < n && (live_active v || any_live_active (v + 1)) in
    let rec any_filled inboxes v =
      v < n && (match inboxes.(v) with [] -> any_filled inboxes (v + 1) | _ :: _ -> true)
    in
    let continue () =
      !in_flight || !held_count > 0
      (* an in-progress amnesia outage keeps the run alive so the
         scheduled restart (and any recovery it triggers) executes
         instead of quiescing with the node's fate unresolved *)
      || (match faults with
         | Some f -> Fault.amnesia_in_progress f ~round:!round
         | None -> false)
      || any_live_active 0
    in
    (* ---- audit bookkeeping (only consulted when [audit] is true) ----
       The auditor keeps its own cumulative tallies, incremented at the
       model-decision sites, and cross-checks them each round against the
       amounts charged to [metrics] and against the number of copies still
       in flight. Drift between the two is an accounting bug. *)
    let a_sent = ref 0 (* accepted sends *)
    and a_words = ref 0 (* words across accepted sends *)
    and a_delivered = ref 0 (* copies placed in an inbox *)
    and a_dropped = ref 0 (* copies destroyed (link loss or dead receiver) *)
    and a_duplicated = ref 0 (* extra copies injected by the adversary *) in
    let base_messages = Metrics.messages metrics
    and base_words = Metrics.words metrics
    and base_delivered = Metrics.delivered metrics
    and base_dropped = Metrics.dropped metrics
    and base_duplicated = Metrics.duplicated metrics in
    let violation detail = raise (Audit_violation { label; round = !round; detail }) in
    let audit_counter name expected actual =
      if expected <> actual then
        violation
          (Printf.sprintf
             "metrics counter '%s' drifted: engine accounted %d, metrics charged %d \
              (did a step function charge traffic counters mid-run?)"
             name expected actual)
    in
    let audit_round_end () =
      (* conservation: every accepted copy is in an inbox, destroyed, or
         still held by a delay fault *)
      let in_flight_delayed = !held_count in
      if !a_sent + !a_duplicated <> !a_delivered + !a_dropped + in_flight_delayed then
        violation
          (Printf.sprintf
             "copy conservation broken: sent=%d + duplicated=%d <> delivered=%d + dropped=%d \
              + in-flight=%d"
             !a_sent !a_duplicated !a_delivered !a_dropped in_flight_delayed);
      audit_counter "messages" !a_sent (Metrics.messages metrics - base_messages);
      audit_counter "words" !a_words (Metrics.words metrics - base_words);
      audit_counter "delivered" !a_delivered (Metrics.delivered metrics - base_delivered);
      audit_counter "dropped" !a_dropped (Metrics.dropped metrics - base_dropped);
      audit_counter "duplicated" !a_duplicated (Metrics.duplicated metrics - base_duplicated)
    in
    let rec audit_inbox_sorted v = function
      | (a, _) :: ((b, _) :: _ as rest) ->
          if a > b then
            violation
              (Printf.sprintf "inbox of node %d not sorted by sender: %d before %d" v a b);
          audit_inbox_sorted v rest
      | _ -> ()
    in
    (* ---- virtual-time state of the pulse loop (empty on lockstep) ---- *)
    let vt_n = if async then n else 0 in
    let step_end = Array.make vt_n 0 in
    let safe_vt = Array.make vt_n 0 in
    (* high-water mark of physical arrival timestamps into the inbox
       being assembled for the next pulse, per destination — plus the
       sender holding that mark and the best mark among the *other*
       senders, so deadline pacing can judge each neighbor's arrival
       term against the rest of the gate *)
    let next_inbox_vt = Array.make vt_n 0 in
    let next_inbox_src = Array.make vt_n (-1) in
    let next_inbox_vt2 = Array.make vt_n 0 in
    let sa_scratch = Array.make vt_n 0 in
    let stepped = Array.make vt_n false in
    let outboxes = Array.make vt_n ([] : outbox) in
    let queue = Async_engine.create ~n in
    (* deadline pacing: consecutive blown deadlines per directed
       neighbor pair (key [u * n + v]: v waiting on u), and the set of
       pairs v has cut; only populated when the deadline dial is on *)
    let strikes = Hashtbl.create 8 in
    let cut = Hashtbl.create 8 in
    let is_cut ~src ~dst = async && Hashtbl.mem cut ((src * n) + dst) in
    (* round-scoped mutable state, hoisted out of the loop so each
       round reuses the same cells/table instead of reallocating *)
    let sent_this_round = ref 0 in
    let words_this_round = ref 0 in
    let delivered_this_round = ref 0 in
    let pulses_this_round = ref 0 in
    let straggles_this_round = ref 0 in
    let safe_this_round = ref 0 in
    let sent_to = Hashtbl.create 8 in
    let drop ~send_round ~round ~src ~dst ~words reason =
      Metrics.add_dropped metrics 1;
      if audit then incr a_dropped;
      if tracing then
        emit (Repro_obs.Event.Drop { send_round; round; src; dst; words; reason })
    in
    (* deliver a copy into the round-[r] inboxes, dropping it if the
       receiver is down at delivery time (or, on the pulse loop, has cut
       the sender as a chronic straggler). [words] is the size measured
       when the copy was accepted; in audit mode the copy is re-measured
       on delivery so a sender mutating a message after handing it to the
       network is caught. [arr] is the copy's physical arrival time on
       the pulse loop. *)
    let deliver ~send_round ~deliver_round ~words ~arr ~corrupted dst src msg =
      (* a corrupted copy is garbled on delivery: the layer above maps
         it through its [corrupt] transform (and must preserve the word
         count — audit re-measures below); with no transform installed
         the copy is undecodable garbage and is discarded like a
         frame-level CRC failure *)
      let msg, garbled_drop =
        if not corrupted then (msg, false)
        else match corrupt with Some f -> (f msg, false) | None -> (msg, true)
      in
      if audit then begin
        let now = M.words msg in
        if now <> words then
          violation
            (Printf.sprintf
               "message %d -> %d measured %d words at send but %d words at delivery \
                (mutated in flight%s?)"
               src dst words now
               (if corrupted then ", or size-changing corrupt transform" else ""))
      end;
      let round = deliver_round in
      if down_at ~round dst then drop ~send_round ~round ~src ~dst ~words Receiver_down
      else if is_cut ~src ~dst then
        (* the receiver cut this sender as a chronic straggler: its
           copies are discarded on arrival, like a dead receiver but
           with their own drop reason so traces and replay distinguish *)
        drop ~send_round ~round ~src ~dst ~words Straggler
      else if garbled_drop then drop ~send_round ~round ~src ~dst ~words Garbled
      else begin
        !next_inboxes.(dst) <- (src, msg) :: !next_inboxes.(dst);
        if async then begin
          if arr > next_inbox_vt.(dst) then begin
            if next_inbox_src.(dst) <> src && next_inbox_vt.(dst) > next_inbox_vt2.(dst)
            then next_inbox_vt2.(dst) <- next_inbox_vt.(dst);
            next_inbox_vt.(dst) <- arr;
            next_inbox_src.(dst) <- src
          end
          else if next_inbox_src.(dst) <> src && arr > next_inbox_vt2.(dst) then
            next_inbox_vt2.(dst) <- arr
        end;
        incr delivered_this_round;
        if audit then incr a_delivered;
        if tracing then
          emit (Repro_obs.Event.Deliver { send_round; round; src; dst; words })
      end
    in
    (* pulse loop: the physical arrival time of the [k]-th copy of [v]'s
       send to [u]; its acknowledgement raises [v]'s SAFE point (drops
       are sender-detectable: the NACK travels the ack's schedule) *)
    let stamp v u k =
      if not async then 0
      else begin
        let arr =
          step_end.(v)
          + Async_engine.wire faults ~round:!round ~src:v ~dst:u ~leg:(Async_engine.leg_data k)
        in
        let ack =
          arr + Async_engine.wire faults ~round:!round ~src:u ~dst:v ~leg:(Async_engine.leg_ack k)
        in
        if ack > safe_vt.(v) then safe_vt.(v) <- ack;
        arr
      end
    in
    (* step node [v] on its sorted inbox; returns its outbox *)
    let step_node v =
      (* contract: inboxes are presented sorted by sender id, so
         algorithms cannot depend on delivery-schedule accidents *)
      let inbox = sort_inbox !inboxes.(v) in
      if audit then audit_inbox_sorted v inbox;
      let st, outbox = step ~round:!round ~node:v states.(v) inbox in
      states.(v) <- st;
      outbox
    in
    let hold h =
      let span = h.h_deliver_round - !round in
      if span >= Array.length !held then begin
        (* grow the ring; each bucket moves whole, keeping its order *)
        let rec fit size = if span < size then size else fit (2 * size) in
        let size = fit (2 * Array.length !held) in
        let grown = Array.make size [] in
        Array.iter
          (function
            | [] -> ()
            | first :: _ as bucket -> grown.(first.h_deliver_round mod size) <- bucket)
          !held;
        held := grown
      end;
      let i = h.h_deliver_round mod Array.length !held in
      !held.(i) <- h :: !held.(i);
      incr held_count
    in
    let rec deliver_held = function
      | [] -> ()
      | h :: rest ->
          decr held_count;
          deliver ~send_round:h.h_send_round ~deliver_round:h.h_deliver_round ~words:h.h_words
            ~arr:h.h_arr ~corrupted:h.h_corrupted h.h_dst h.h_src h.h_msg;
          deliver_held rest
    in
    (* route the [k]-th and later adversary copies of [v]'s send to [u]
       (recursive functions built once per run, not per send) *)
    let rec route_copies v u msg w k = function
      | [] -> ()
      | { Fault.extra; corrupt = corrupted } :: rest ->
          let send_round = !round in
          let deliver_round = send_round + 1 + extra in
          let arr = stamp v u k in
          if corrupted then begin
            Metrics.add_corrupted metrics 1;
            if tracing then
              emit (Repro_obs.Event.Corrupt { send_round; deliver_round; src = v; dst = u })
          end;
          if extra = 0 then deliver ~send_round ~deliver_round ~words:w ~arr ~corrupted u v msg
          else begin
            (* a delay is a logical-schedule fault: on the pulse loop
               the copy is acked on its physical schedule but buffered
               until [deliver_round] *)
            hold
              {
                h_deliver_round = deliver_round;
                h_dst = u;
                h_src = v;
                h_msg = msg;
                h_words = w;
                h_send_round = send_round;
                h_corrupted = corrupted;
                h_arr = arr;
              };
            if tracing then
              emit (Repro_obs.Event.Delay { round = send_round; src = v; dst = u; deliver_round })
          end;
          route_copies v u msg w (k + 1) rest
    in
    (* validate, charge and route one send of [v] *)
    let send v u msg =
      check_send ~runner:"Engine.run" ~label ~round:!round ~node:v
        ~neighbors:neighbor_sets.(v) ~sent_to u;
      let w = M.words msg in
      if audit then begin
        let w' = M.words msg in
        if w' <> w then
          violation
            (Printf.sprintf "M.words unstable on message %d -> %d: measured %d then %d" v u w
               w')
      end;
      if w < 1 || w > max_words then
        invalid_arg
          (Printf.sprintf "Engine.run(%s): round %d: node %d -> %d: message of %d words (cap %d)"
             label !round v u w max_words);
      incr sent_this_round;
      words_this_round := !words_this_round + w;
      if audit then begin
        incr a_sent;
        a_words := !a_words + w
      end;
      let send_round = !round in
      if tracing then
        emit (Repro_obs.Event.Send { round = send_round; src = v; dst = u; words = w });
      match faults with
      | None ->
          deliver ~send_round ~deliver_round:(send_round + 1) ~words:w ~arr:(stamp v u 0)
            ~corrupted:false u v msg
      | Some _ when link_down v u ->
          (* deterministic partition drop, decided before [plan] so
             severed sends consume no adversary randomness; the sender
             sees the dead carrier at once, so a severed send never
             stretches its SAFE point *)
          drop ~send_round ~round:send_round ~src:v ~dst:u ~words:w Severed
      | Some f -> (
          match Fault.plan f ~round:send_round ~src:v ~dst:u with
          | [] ->
              ignore (stamp v u 0);
              drop ~send_round ~round:send_round ~src:v ~dst:u ~words:w Link
          | fates ->
              let copies = List.length fates in
              if copies > 1 then begin
                Metrics.add_duplicated metrics (copies - 1);
                if audit then a_duplicated := !a_duplicated + copies - 1;
                if tracing then
                  emit (Repro_obs.Event.Duplicate { round = send_round; src = v; dst = u; copies })
              end;
              route_copies v u msg w 0 fates)
    in
    let rec send_all v = function
      | [] -> ()
      | (u, msg) :: rest ->
          send v u msg;
          send_all v rest
    in
    (* validate, charge and route [v]'s sends of this round *)
    let commit v outbox =
      Hashtbl.clear sent_to;
      send_all v outbox
    in
    let begin_round () =
      if !round >= max_rounds then
        raise (Round_limit_exceeded { label; rounds = !round; active_nodes = count_active () });
      if tracing then begin
        emit (Repro_obs.Event.Round_start { round = !round });
        match faults with
        | None -> ()
        | Some f ->
            for v = 0 to n - 1 do
              let down = Fault.crashed f ~round:!round v in
              if down <> prev_down.(v) then
                emit
                  (if down then Repro_obs.Event.Crash { round = !round; node = v }
                   else Repro_obs.Event.Restart { round = !round; node = v });
              prev_down.(v) <- down
            done;
            emit_link_transitions ()
      end;
      (match faults with
      | Some f ->
          for v = 0 to n - 1 do
            if Fault.restarted f ~round:!round v then
              states.(v) <- restart_state ~round:!round ~node:v
          done
      | None -> ());
      sent_this_round := 0;
      words_this_round := 0;
      delivered_this_round := 0;
      pulses_this_round := 0;
      straggles_this_round := 0;
      safe_this_round := 0
    in
    let lockstep_round () =
      for v = 0 to n - 1 do
        if not (down v) then commit v (step_node v)
      done
    in
    let pulse_round () =
      Array.fill stepped 0 n false;
      (* dispatch: pop this pulse's events in virtual-time order and run
         the user steps; fates wait for the commit *)
      while not (Async_engine.is_empty queue) do
        let key = Async_engine.pop_key queue in
        let vt = Async_engine.key_vt queue key and v = Async_engine.key_node queue key in
        if not (down v) then begin
          let factor =
            match faults with None -> 1 | Some f -> Fault.straggle_factor f ~round:!round v
          in
          step_end.(v) <- vt + max 1 factor;
          incr pulses_this_round;
          if factor <> 1 then begin
            incr straggles_this_round;
            if tracing then
              emit (Repro_obs.Event.Straggle { round = !round; node = v; factor; vt })
          end;
          if tracing then emit (Repro_obs.Event.Pulse { round = !round; node = v; vt });
          outboxes.(v) <- step_node v;
          stepped.(v) <- true
        end
      done;
      (* commit: canonical node order, lockstep-identical fate draws and
         accounting, then the SAFE fan-out to live neighbors (a cutter
         still receives and ignores the cuttee's SAFE — the cut is its
         local decision, invisible to the straggler) *)
      for v = 0 to n - 1 do
        if stepped.(v) then begin
          safe_vt.(v) <- step_end.(v);
          commit v outboxes.(v);
          outboxes.(v) <- [];
          Metrics.observe_virtual_time metrics safe_vt.(v);
          let vs = nbrs.(v) in
          for i = 0 to Array.length vs - 1 do
            if not (down vs.(i)) then incr safe_this_round
          done;
          if tracing then
            emit (Repro_obs.Event.Safe { round = !round; node = v; vt = safe_vt.(v) })
        end
      done
    in
    let end_round () =
      (* copies whose delay matured this round join the next inboxes *)
      if !held_count > 0 then begin
        let i = (!round + 1) mod Array.length !held in
        let matured = !held.(i) in
        !held.(i) <- [];
        deliver_held matured
      end;
      (* swap the buffers: this round's deliveries become next round's
         inboxes, and the consumed array is wiped for reuse *)
      let filled = !next_inboxes in
      next_inboxes := !inboxes;
      inboxes := filled;
      Array.fill !next_inboxes 0 n [];
      in_flight := any_filled filled 0;
      Metrics.add_messages metrics !sent_this_round;
      Metrics.add_words metrics !words_this_round;
      Metrics.add_delivered metrics !delivered_this_round;
      Metrics.add_pulses metrics !pulses_this_round;
      Metrics.add_straggles metrics !straggles_this_round;
      Metrics.add_safe_messages metrics !safe_this_round;
      if audit then audit_round_end ();
      if tracing then emit (Repro_obs.Event.Round_end { round = !round })
    in
    (* the α gate: each node starts its next pulse once its own step and
       SAFE are done, every copy addressed into that pulse has physically
       arrived, and every live uncut neighbor's SAFE for this pulse has
       reached it. Deadline pacing never shortens the wait directly; it
       watches for a neighbor whose terms ALONE hold the gate open past
       everything else the node is waiting for — a relative criterion:
       lag a neighbor merely inherits from a straggler deeper in the
       graph is shared by the rest of the gate and cancels out, so cuts
       single out the chronic bottleneck instead of cascading ring by
       ring — and cuts it after max_strikes consecutive blown allowances. *)
    let gate_round () =
      let deadline_on = !Async_engine.deadline > 0 in
      for v = 0 to n - 1 do
        let own = max step_end.(v) safe_vt.(v) in
        let gate = ref (max own next_inbox_vt.(v)) in
        if stepped.(v) then begin
          (* first pass: neighbor SAFE arrivals, tracking the top two
             (by distinct sender) for the per-neighbor runner-up term;
             [for] loops capture nothing, so these refs stay unboxed *)
          let sa_best = ref 0 and sa_best_u = ref (-1) and sa_second = ref 0 in
          let eligible = ref 0 in
          let vs = nbrs.(v) in
          for i = 0 to Array.length vs - 1 do
            let u = vs.(i) in
            if u <> v && stepped.(u) && not (is_cut ~src:u ~dst:v) then begin
              let sa =
                safe_vt.(u)
                + Async_engine.wire faults ~round:!round ~src:u ~dst:v ~leg:Async_engine.leg_safe
              in
              sa_scratch.(u) <- sa;
              incr eligible;
              if sa > !sa_best then begin
                sa_second := !sa_best;
                sa_best := sa;
                sa_best_u := u
              end
              else if sa > !sa_second then sa_second := sa;
              if sa > !gate then gate := sa
            end
          done;
          (* striking needs an independent witness: with a single
             eligible neighbor there is no reference separating the
             neighbor's own lag from lag it merely inherits, and
             cutting your only neighbor just disconnects yourself *)
          if deadline_on && !eligible >= 2 then
            for i = 0 to Array.length vs - 1 do
              let u = vs.(i) in
              if u <> v && stepped.(u) && not (is_cut ~src:u ~dst:v) then begin
                let arr_u, arr_rest =
                  if next_inbox_src.(v) = u then (next_inbox_vt.(v), next_inbox_vt2.(v))
                  else (0, next_inbox_vt.(v))
                in
                let sa_rest = if !sa_best_u = u then !sa_second else !sa_best in
                let rest = max own (max arr_rest sa_rest) in
                let u_term = max sa_scratch.(u) arr_u in
                let key = (u * n) + v in
                let s = match Hashtbl.find_opt strikes key with Some s -> s | None -> 0 in
                if u_term - rest > 2 * Async_engine.strike_allowance ~strikes:s then begin
                  let s = s + 1 in
                  if s >= !Async_engine.max_strikes then begin
                    Hashtbl.replace cut key ();
                    Hashtbl.remove strikes key;
                    if tracing then
                      emit
                        (Repro_obs.Event.Straggler_cut
                           { round = !round; node = v; peer = u; vt = u_term })
                  end
                  else Hashtbl.replace strikes key s
                end
                else Hashtbl.remove strikes key
              end
            done
        end;
        next_inbox_vt.(v) <- 0;
        next_inbox_src.(v) <- -1;
        next_inbox_vt2.(v) <- 0;
        Async_engine.push queue ~vt:!gate v
      done
    in
    (* pulse 0 starts at each node's clock-skew offset *)
    if async then
      for v = 0 to n - 1 do
        Async_engine.push queue ~vt:(match faults with None -> 0 | Some f -> Fault.skew_of f v) v
      done;
    while continue () do
      begin_round ();
      if async then pulse_round () else lockstep_round ();
      end_round ();
      if async then gate_round ();
      incr round;
      Metrics.add metrics ~label 1
    done;
    states
end
