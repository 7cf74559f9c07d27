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

module type MSG = sig
  type t

  val words : t -> int
end

module Make (M : MSG) = struct
  type inbox = (int * M.t) list
  type outbox = (int * M.t) list

  let run skeleton ~init ~step ~active ?faults ?on_restart ?corrupt ?audit
      ?(max_rounds = 10_000_000) ?(max_words = default_max_words) ~metrics ~label () =
    if Digraph.directed skeleton then
      invalid_arg "Engine.run: communication network must be undirected";
    let audit = match audit with Some b -> b | None -> !audit_enabled in
    let n = Digraph.n skeleton in
    let neighbor_sets =
      Array.init n (fun v ->
          let tbl = Hashtbl.create 8 in
          Array.iter (fun u -> Hashtbl.replace tbl u ()) (Digraph.neighbors skeleton v);
          tbl)
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
    (* copies held back by a delay fault: (deliver_round, dst, src, msg,
       words measured at send, send_round, corrupted in flight) *)
    let delayed = ref [] in
    let sink = !trace_sink in
    let tracing = sink.Repro_obs.Sink.enabled in
    let emit e = Repro_obs.Sink.emit sink e in
    (match faults with Some f -> Fault.begin_run f | None -> ());
    if tracing then begin
      emit (Repro_obs.Event.Run_start { label; faulty = Option.is_some faults });
      (* static crash/partition windows up front so replay can rebuild
         the profile *)
      match faults with
      | None -> ()
      | Some f ->
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
            (Fault.profile_of f).crashes;
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
            (Fault.profile_of f).partitions
    end;
    (* last observed up/down status per node, for crash/restart
       transition events (allocated only when tracing) *)
    let prev_down = Array.make (if tracing then n else 0) false in
    let crashed v = match faults with None -> false | Some f -> Fault.crashed f ~round:!round v in
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
         | Some f -> not (Fault.crash_stopped f ~round:!round v)
    in
    (* recursive scans instead of ref-counted loops: no per-call ref
       cells, so the quiescence check itself is allocation-free *)
    let rec count_active_from v acc =
      if v >= n then acc else count_active_from (v + 1) (if live_active v then acc + 1 else acc)
    in
    let count_active () = count_active_from 0 0 in
    let rec any_live_active v = v < n && (live_active v || any_live_active (v + 1)) in
    let continue () =
      !in_flight || !delayed <> []
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
      let in_flight_delayed = List.length !delayed in
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
    let audit_inbox_sorted v inbox =
      let rec check = function
        | (a, _) :: ((b, _) :: _ as rest) ->
            if a > b then
              violation
                (Printf.sprintf "inbox of node %d not sorted by sender: %d before %d" v a b);
            check rest
        | _ -> ()
      in
      check inbox
    in
    (* round-scoped mutable state, hoisted out of the loop so each
       round reuses the same cells/table instead of reallocating *)
    let sent_this_round = ref 0 in
    let words_this_round = ref 0 in
    let delivered_this_round = ref 0 in
    let sent_to = Hashtbl.create 8 in
    (* deliver a copy into the round-[r] inboxes, dropping it if the
       receiver is down at delivery time. [words] is the size measured
       when the copy was accepted; in audit mode the copy is re-measured
       on delivery so a sender mutating a message after handing it to the
       network is caught. *)
    let deliver ~send_round ~deliver_round ~words ?(corrupted = false) dst src msg =
      let receiver_down =
        match faults with
        | None -> false
        | Some f -> Fault.crashed f ~round:deliver_round dst
      in
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
      if receiver_down then begin
        Metrics.add_dropped metrics 1;
        if audit then incr a_dropped;
        if tracing then
          emit
            (Repro_obs.Event.Drop
               { send_round; round = deliver_round; src; dst; words; reason = Receiver_down })
      end
      else if garbled_drop then begin
        Metrics.add_dropped metrics 1;
        if audit then incr a_dropped;
        if tracing then
          emit
            (Repro_obs.Event.Drop
               { send_round; round = deliver_round; src; dst; words; reason = Garbled })
      end
      else begin
        !next_inboxes.(dst) <- (src, msg) :: !next_inboxes.(dst);
        incr delivered_this_round;
        if audit then incr a_delivered;
        if tracing then
          emit (Repro_obs.Event.Deliver { send_round; round = deliver_round; src; dst; words })
      end
    in
    while continue () do
      if !round >= max_rounds then
        raise
          (Round_limit_exceeded
             { label; rounds = !round; active_nodes = count_active () });
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
      for v = 0 to n - 1 do
        if not (crashed v) then begin
          (* contract: inboxes are presented sorted by sender id, so
             algorithms cannot depend on delivery-schedule accidents *)
          let inbox = List.sort (fun (a, _) (b, _) -> Int.compare a b) !inboxes.(v) in
          if audit then audit_inbox_sorted v inbox;
          let st, outbox = step ~round:!round ~node:v states.(v) inbox in
          states.(v) <- st;
          Hashtbl.clear sent_to;
          List.iter
            (fun (u, msg) ->
              if not (Hashtbl.mem neighbor_sets.(v) u) then
                invalid_arg
                  (Printf.sprintf "Engine.run(%s): round %d: node %d sent to non-neighbor %d"
                     label !round v u);
              if Hashtbl.mem sent_to u then
                invalid_arg
                  (Printf.sprintf
                     "Engine.run(%s): round %d: node %d sent two messages to %d in one round"
                     label !round v u);
              Hashtbl.add sent_to u ();
              let w = M.words msg in
              if audit then begin
                let w' = M.words msg in
                if w' <> w then
                  violation
                    (Printf.sprintf
                       "M.words unstable on message %d -> %d: measured %d then %d" v u w w')
              end;
              if w < 1 || w > max_words then
                invalid_arg
                  (Printf.sprintf
                     "Engine.run(%s): round %d: node %d -> %d: message of %d words (cap %d)"
                     label !round v u w max_words);
              incr sent_this_round;
              words_this_round := !words_this_round + w;
              if audit then begin
                incr a_sent;
                a_words := !a_words + w
              end;
              if tracing then
                emit (Repro_obs.Event.Send { round = !round; src = v; dst = u; words = w });
              match faults with
              | None -> deliver ~send_round:!round ~deliver_round:(!round + 1) ~words:w u v msg
              | Some _ when link_down v u ->
                  (* deterministic partition drop, decided before [plan]
                     so severed sends consume no adversary randomness *)
                  Metrics.add_dropped metrics 1;
                  if audit then incr a_dropped;
                  if tracing then
                    emit
                      (Repro_obs.Event.Drop
                         {
                           send_round = !round;
                           round = !round;
                           src = v;
                           dst = u;
                           words = w;
                           reason = Severed;
                         })
              | Some f -> (
                  match Fault.plan f ~round:!round ~src:v ~dst:u with
                  | [] ->
                      Metrics.add_dropped metrics 1;
                      if audit then incr a_dropped;
                      if tracing then
                        emit
                          (Repro_obs.Event.Drop
                             {
                               send_round = !round;
                               round = !round;
                               src = v;
                               dst = u;
                               words = w;
                               reason = Link;
                             })
                  | fates ->
                      if List.length fates > 1 then begin
                        Metrics.add_duplicated metrics (List.length fates - 1);
                        if audit then a_duplicated := !a_duplicated + List.length fates - 1;
                        if tracing then
                          emit
                            (Repro_obs.Event.Duplicate
                               { round = !round; src = v; dst = u; copies = List.length fates })
                      end;
                      List.iter
                        (fun { Fault.extra; corrupt = corrupted } ->
                          let deliver_round = !round + 1 + extra in
                          if corrupted then begin
                            Metrics.add_corrupted metrics 1;
                            if tracing then
                              emit
                                (Repro_obs.Event.Corrupt
                                   { send_round = !round; deliver_round; src = v; dst = u })
                          end;
                          if extra = 0 then
                            deliver ~send_round:!round ~deliver_round ~words:w ~corrupted u v
                              msg
                          else begin
                            delayed :=
                              (deliver_round, u, v, msg, w, !round, corrupted) :: !delayed;
                            if tracing then
                              emit
                                (Repro_obs.Event.Delay
                                   { round = !round; src = v; dst = u; deliver_round })
                          end)
                        fates))
            outbox
        end
      done;
      (* copies whose delay matured this round join the next inboxes *)
      let matured, still_held =
        List.partition (fun (dr, _, _, _, _, _, _) -> dr = !round + 1) !delayed
      in
      delayed := still_held;
      List.iter
        (fun (dr, dst, src, msg, w, sr, corrupted) ->
          deliver ~send_round:sr ~deliver_round:dr ~words:w ~corrupted dst src msg)
        matured;
      (* swap the buffers: this round's deliveries become next round's
         inboxes, and the consumed array is wiped for reuse *)
      let filled = !next_inboxes in
      next_inboxes := !inboxes;
      inboxes := filled;
      Array.fill !next_inboxes 0 n [];
      in_flight := Array.exists (fun ib -> ib <> []) filled;
      Metrics.add_messages metrics !sent_this_round;
      Metrics.add_words metrics !words_this_round;
      Metrics.add_delivered metrics !delivered_this_round;
      if audit then audit_round_end ();
      if tracing then emit (Repro_obs.Event.Round_end { round = !round });
      incr round;
      Metrics.add metrics ~label 1
    done;
    states
  [@@charge_site]
end
