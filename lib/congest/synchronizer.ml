module Digraph = Repro_graph.Digraph

module Make (M : Engine.MSG) = struct
  module E = Engine.Make (M)

  type inbox = (int * M.t) list
  type outbox = (int * M.t) list

  (* The asynchronous pulse loop. Pulses coincide with the engine's
     logical rounds; what the executor adds is a per-node virtual-time
     schedule. Control flow is round-committed: user steps for pulse p
     run in virtual-time order (popped off the event queue), but the
     adversary's per-copy fates are drawn only once every live node
     has finished p, in the engine's canonical order (node ascending,
     outbox order) — so the fate RNG stream, and with it every
     delivery, drop and duplicate, is byte-identical to the
     synchronous engine's. Timing draws are pure hashes (Fault), so
     consulting them in event order costs no stream position. *)
  let run_async skeleton ~init ~step ~active ~faults ~on_restart ~corrupt
      ~audit ~max_rounds ~max_words ~metrics ~label () =
    if Digraph.directed skeleton then
      invalid_arg "Synchronizer.run: communication network must be undirected";
    let audit = match audit with Some b -> b | None -> !Engine.audit_enabled in
    let n = Digraph.n skeleton in
    let neighbor_sets =
      Array.init n (fun v ->
          let tbl = Hashtbl.create 8 in
          Array.iter (fun u -> Hashtbl.replace tbl u ()) (Digraph.neighbors skeleton v);
          tbl)
    in
    let states = Array.init n init in
    let inboxes = ref (Array.make n []) in
    let next_inboxes = ref (Array.make n []) in
    let round = ref 0 in
    let restart_state =
      match on_restart with
      | Some f -> f
      | None -> fun ~round:_ ~node -> init node
    in
    let in_flight = ref false in
    (* delayed copies carry one extra field versus the engine: the
       physical arrival timestamp, applied to the destination's inbox
       high-water mark when the copy matures *)
    let delayed = ref [] in
    let sink = !Engine.trace_sink in
    let tracing = sink.Repro_obs.Sink.enabled in
    let emit e = Repro_obs.Sink.emit sink e in
    (match faults with Some f -> Fault.begin_run f | None -> ());
    if tracing then begin
      emit (Repro_obs.Event.Run_start { label; faulty = Option.is_some faults });
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
            (Fault.profile_of f).partitions;
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
            (Fault.profile_of f).stragglers;
          if Fault.timing_active f then begin
            emit
              (Repro_obs.Event.Timing
                 {
                   link_latency = (Fault.profile_of f).link_latency;
                   skew = (Fault.profile_of f).skew;
                   seed = Fault.seed_of f;
                 });
            for v = 0 to n - 1 do
              let offset = Fault.skew_of f v in
              if offset > 0 then emit (Repro_obs.Event.Skew { node = v; offset })
            done
          end
    end;
    let prev_down = Array.make (if tracing then n else 0) false in
    let crashed v =
      match faults with None -> false | Some f -> Fault.crashed f ~round:!round v
    in
    let stalled ~round v =
      match faults with None -> false | Some f -> Fault.stalled_forever f ~round v
    in
    (* a node inside an unbounded stall window behaves like a
       crash-stop: it neither steps nor sends, copies addressed to it
       are dropped, and it is excluded from the liveness check *)
    let down v = crashed v || stalled ~round:!round v in
    let link_down src dst =
      match faults with
      | None -> false
      | Some f -> Fault.link_down f ~round:!round ~src ~dst
    in
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
      && (match faults with
         | None -> true
         | Some f ->
             (not (Fault.crash_stopped f ~round:!round v))
             && not (Fault.stalled_forever f ~round:!round v))
    in
    let rec count_active_from v acc =
      if v >= n then acc
      else count_active_from (v + 1) (if live_active v then acc + 1 else acc)
    in
    let count_active () = count_active_from 0 0 in
    let rec any_live_active v = v < n && (live_active v || any_live_active (v + 1)) in
    let continue () =
      !in_flight || !delayed <> []
      || (match faults with
         | Some f -> Fault.amnesia_in_progress f ~round:!round
         | None -> false)
      || any_live_active 0
    in
    (* ---- audit bookkeeping: verbatim the engine's invariants ---- *)
    let a_sent = ref 0
    and a_words = ref 0
    and a_delivered = ref 0
    and a_dropped = ref 0
    and a_duplicated = ref 0 in
    let base_messages = Metrics.messages metrics
    and base_words = Metrics.words metrics
    and base_delivered = Metrics.delivered metrics
    and base_dropped = Metrics.dropped metrics
    and base_duplicated = Metrics.duplicated metrics in
    let violation detail =
      raise (Engine.Audit_violation { label; round = !round; detail })
    in
    let audit_counter name expected actual =
      if expected <> actual then
        violation
          (Printf.sprintf
             "metrics counter '%s' drifted: engine accounted %d, metrics charged %d \
              (did a step function charge traffic counters mid-run?)"
             name expected actual)
    in
    let audit_round_end () =
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
      audit_counter "duplicated" !a_duplicated
        (Metrics.duplicated metrics - base_duplicated)
    in
    let audit_inbox_sorted v inbox =
      let rec check = function
        | (a, _) :: ((b, _) :: _ as rest) ->
            if a > b then
              violation
                (Printf.sprintf "inbox of node %d not sorted by sender: %d before %d" v
                   a b);
            check rest
        | _ -> ()
      in
      check inbox
    in
    (* ---- virtual-time state ---- *)
    let start_vt = Array.make n 0 in
    let step_end = Array.make n 0 in
    let safe_vt = Array.make n 0 in
    (* high-water mark of physical arrival timestamps into the inbox
       being assembled for the next pulse, per destination — plus the
       sender holding that mark and the best mark among the *other*
       senders, so deadline pacing can judge each neighbor's arrival
       term against the rest of the gate *)
    let next_inbox_vt = Array.make n 0 in
    let next_inbox_src = Array.make n (-1) in
    let next_inbox_vt2 = Array.make n 0 in
    let sa_scratch = Array.make n 0 in
    let stepped = Array.make n false in
    let outboxes = Array.make n ([] : outbox) in
    let queue = Async_engine.create ~n in
    (* deadline pacing: consecutive blown deadlines per directed
       neighbor pair (key [u * n + v]: v waiting on u), and the set of
       pairs v has cut; only populated when the deadline dial is on *)
    let strikes = Hashtbl.create 8 in
    let cut = Hashtbl.create 8 in
    let is_cut ~src ~dst = Hashtbl.mem cut ((src * n) + dst) in
    let sent_this_round = ref 0 in
    let words_this_round = ref 0 in
    let delivered_this_round = ref 0 in
    let pulses_this_round = ref 0 in
    let straggles_this_round = ref 0 in
    let safe_this_round = ref 0 in
    let sent_to = Hashtbl.create 8 in
    let deliver ~send_round ~deliver_round ~words ~arr ?(corrupted = false) dst src msg
        =
      let receiver_down =
        match faults with
        | None -> false
        | Some f ->
            Fault.crashed f ~round:deliver_round dst
            || Fault.stalled_forever f ~round:deliver_round dst
      in
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
      else if is_cut ~src ~dst then begin
        (* the receiver cut this sender as a chronic straggler — its
           copies are discarded on arrival, like a dead receiver but
           with its own drop reason so traces and replay distinguish *)
        Metrics.add_dropped metrics 1;
        if audit then incr a_dropped;
        if tracing then
          emit
            (Repro_obs.Event.Drop
               { send_round; round = deliver_round; src; dst; words; reason = Straggler })
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
        if arr > next_inbox_vt.(dst) then begin
          if next_inbox_src.(dst) <> src && next_inbox_vt.(dst) > next_inbox_vt2.(dst)
          then next_inbox_vt2.(dst) <- next_inbox_vt.(dst);
          next_inbox_vt.(dst) <- arr;
          next_inbox_src.(dst) <- src
        end
        else if next_inbox_src.(dst) <> src && arr > next_inbox_vt2.(dst) then
          next_inbox_vt2.(dst) <- arr;
        incr delivered_this_round;
        if audit then incr a_delivered;
        if tracing then
          emit
            (Repro_obs.Event.Deliver { send_round; round = deliver_round; src; dst; words })
      end
    in
    (* pulse 0 starts at each node's clock-skew offset *)
    for v = 0 to n - 1 do
      start_vt.(v) <-
        (match faults with None -> 0 | Some f -> Fault.skew_of f v);
      Async_engine.push queue ~vt:start_vt.(v) v
    done;
    while continue () do
      if !round >= max_rounds then
        raise
          (Engine.Round_limit_exceeded
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
      pulses_this_round := 0;
      straggles_this_round := 0;
      safe_this_round := 0;
      Array.fill stepped 0 n false;
      (* phase 1: dispatch — pop this pulse's events in virtual-time
         order and run the user steps; fates wait for the commit *)
      while not (Async_engine.is_empty queue) do
        let vt, v = Async_engine.pop queue in
        if not (down v) then begin
          start_vt.(v) <- vt;
          let factor =
            match faults with
            | None -> 1
            | Some f -> Fault.straggle_factor f ~round:!round v
          in
          step_end.(v) <- vt + max 1 factor;
          incr pulses_this_round;
          if factor <> 1 then begin
            incr straggles_this_round;
            if tracing then
              emit (Repro_obs.Event.Straggle { round = !round; node = v; factor; vt })
          end;
          if tracing then emit (Repro_obs.Event.Pulse { round = !round; node = v; vt });
          let inbox = List.sort (fun (a, _) (b, _) -> Int.compare a b) !inboxes.(v) in
          if audit then audit_inbox_sorted v inbox;
          let st, outbox = step ~round:!round ~node:v states.(v) inbox in
          states.(v) <- st;
          outboxes.(v) <- outbox;
          stepped.(v) <- true
        end
      done;
      (* phase 2: commit — canonical node order, engine-identical fate
         draws and accounting; acknowledgement round trips raise the
         sender's SAFE point (drops are sender-detectable: the NACK
         arrives on the same schedule as the ack it replaces) *)
      for v = 0 to n - 1 do
        if stepped.(v) then begin
          safe_vt.(v) <- step_end.(v);
          Hashtbl.clear sent_to;
          List.iter
            (fun (u, msg) ->
              if not (Hashtbl.mem neighbor_sets.(v) u) then
                invalid_arg
                  (Printf.sprintf
                     "Synchronizer.run(%s): round %d: node %d sent to non-neighbor %d"
                     label !round v u);
              if Hashtbl.mem sent_to u then
                invalid_arg
                  (Printf.sprintf
                     "Synchronizer.run(%s): round %d: node %d sent two messages to %d \
                      in one round"
                     label !round v u);
              Hashtbl.add sent_to u ();
              let w = M.words msg in
              if audit then begin
                let w' = M.words msg in
                if w' <> w then
                  violation
                    (Printf.sprintf
                       "M.words unstable on message %d -> %d: measured %d then %d" v u
                       w w')
              end;
              if w < 1 || w > max_words then
                invalid_arg
                  (Printf.sprintf
                     "Synchronizer.run(%s): round %d: node %d -> %d: message of %d \
                      words (cap %d)"
                     label !round v u w max_words);
              incr sent_this_round;
              words_this_round := !words_this_round + w;
              if audit then begin
                incr a_sent;
                a_words := !a_words + w
              end;
              if tracing then
                emit (Repro_obs.Event.Send { round = !round; src = v; dst = u; words = w });
              let arrival k =
                step_end.(v)
                + Async_engine.wire faults ~round:!round ~src:v ~dst:u
                    ~leg:(Async_engine.leg_data k)
              in
              let acked k arr =
                let ack =
                  arr
                  + Async_engine.wire faults ~round:!round ~src:u ~dst:v
                      ~leg:(Async_engine.leg_ack k)
                in
                if ack > safe_vt.(v) then safe_vt.(v) <- ack
              in
              match faults with
              | None ->
                  let arr = arrival 0 in
                  acked 0 arr;
                  deliver ~send_round:!round ~deliver_round:(!round + 1) ~words:w ~arr
                    u v msg
              | Some _ when link_down v u ->
                  (* deterministic partition drop, decided before
                     [plan]; the sender sees the dead carrier at once,
                     so a severed send never stretches its SAFE *)
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
                      acked 0 (arrival 0);
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
                      List.iteri
                        (fun k { Fault.extra; corrupt = corrupted } ->
                          let deliver_round = !round + 1 + extra in
                          let arr = arrival k in
                          acked k arr;
                          if corrupted then begin
                            Metrics.add_corrupted metrics 1;
                            if tracing then
                              emit
                                (Repro_obs.Event.Corrupt
                                   { send_round = !round; deliver_round; src = v; dst = u })
                          end;
                          if extra = 0 then
                            deliver ~send_round:!round ~deliver_round ~words:w ~arr
                              ~corrupted u v msg
                          else begin
                            (* a delay is a logical-schedule fault: the
                               copy is acked on its physical schedule
                               but buffered until [deliver_round]'s
                               inbox *)
                            delayed :=
                              (deliver_round, u, v, msg, w, !round, corrupted, arr)
                              :: !delayed;
                            if tracing then
                              emit
                                (Repro_obs.Event.Delay
                                   { round = !round; src = v; dst = u; deliver_round })
                          end)
                        fates))
            outboxes.(v);
          outboxes.(v) <- [];
          Metrics.observe_virtual_time metrics safe_vt.(v);
          (* SAFE fan-out to live neighbors (a cutter still receives
             and ignores the cuttee's SAFE — the cut is its local
             decision, invisible to the straggler) *)
          Array.iter
            (fun u -> if not (down u) then incr safe_this_round)
            (Digraph.neighbors skeleton v);
          if tracing then
            emit (Repro_obs.Event.Safe { round = !round; node = v; vt = safe_vt.(v) })
        end
      done;
      let matured, still_held =
        List.partition (fun (dr, _, _, _, _, _, _, _) -> dr = !round + 1) !delayed
      in
      delayed := still_held;
      List.iter
        (fun (dr, dst, src, msg, w, sr, corrupted, arr) ->
          deliver ~send_round:sr ~deliver_round:dr ~words:w ~arr ~corrupted dst src msg)
        matured;
      let filled = !next_inboxes in
      next_inboxes := !inboxes;
      inboxes := filled;
      Array.fill !next_inboxes 0 n [];
      in_flight := Array.exists (fun ib -> ib <> []) filled;
      Metrics.add_messages metrics !sent_this_round;
      Metrics.add_words metrics !words_this_round;
      Metrics.add_delivered metrics !delivered_this_round;
      Metrics.add_pulses metrics !pulses_this_round;
      Metrics.add_straggles metrics !straggles_this_round;
      Metrics.add_safe_messages metrics !safe_this_round;
      if audit then audit_round_end ();
      if tracing then emit (Repro_obs.Event.Round_end { round = !round });
      (* phase 3: the α gate — each node starts its next pulse once its
         own step and SAFE are done, every copy addressed into that
         pulse has physically arrived, and every live uncut neighbor's
         SAFE for this pulse has reached it. Deadline pacing never
         shortens the wait directly; it watches for a neighbor whose
         terms ALONE hold the gate open past everything else the node
         is waiting for — a relative criterion: lag a neighbor merely
         inherits from a straggler deeper in the graph is shared by
         the rest of the gate and cancels out, so cuts single out the
         chronic bottleneck instead of cascading ring by ring — and
         cuts it after max_strikes consecutive blown allowances. *)
      let deadline_on = !Async_engine.deadline > 0 in
      for v = 0 to n - 1 do
        let own = max step_end.(v) safe_vt.(v) in
        let gate = ref (max own next_inbox_vt.(v)) in
        if stepped.(v) then begin
          (* first pass: neighbor SAFE arrivals, tracking the top two
             (by distinct sender) for the per-neighbor runner-up term *)
          let sa_best = ref 0 and sa_best_u = ref (-1) and sa_second = ref 0 in
          let eligible = ref 0 in
          Array.iter
            (fun u ->
              if u <> v && stepped.(u) && not (is_cut ~src:u ~dst:v) then begin
                let sa =
                  safe_vt.(u)
                  + Async_engine.wire faults ~round:!round ~src:u ~dst:v
                      ~leg:Async_engine.leg_safe
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
              end)
            (Digraph.neighbors skeleton v);
          (* striking needs an independent witness: with a single
             eligible neighbor there is no reference separating the
             neighbor's own lag from lag it merely inherits, and
             cutting your only neighbor just disconnects yourself *)
          if deadline_on && !eligible >= 2 then
            Array.iter
              (fun u ->
                if u <> v && stepped.(u) && not (is_cut ~src:u ~dst:v) then begin
                  let arr_u, arr_rest =
                    if next_inbox_src.(v) = u then
                      (next_inbox_vt.(v), next_inbox_vt2.(v))
                    else (0, next_inbox_vt.(v))
                  in
                  let sa_rest = if !sa_best_u = u then !sa_second else !sa_best in
                  let rest = max own (max arr_rest sa_rest) in
                  let u_term = max sa_scratch.(u) arr_u in
                  let key = (u * n) + v in
                  let s =
                    match Hashtbl.find_opt strikes key with Some s -> s | None -> 0
                  in
                  if u_term - rest > 2 * Async_engine.strike_allowance ~strikes:s
                  then begin
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
                end)
              (Digraph.neighbors skeleton v)
        end;
        start_vt.(v) <- !gate;
        next_inbox_vt.(v) <- 0;
        next_inbox_src.(v) <- -1;
        next_inbox_vt2.(v) <- 0;
        Async_engine.push queue ~vt:!gate v
      done;
      incr round;
      Metrics.add metrics ~label 1
    done;
    states
  [@@charge_site]

  let run skeleton ~init ~step ~active ?faults ?on_restart ?corrupt ?audit
      ?(max_rounds = 10_000_000) ?(max_words = Engine.default_max_words) ~metrics
      ~label () =
    let timing =
      match faults with Some f -> Fault.timing_active f | None -> false
    in
    if timing || !Async_engine.forced then
      run_async skeleton ~init ~step ~active ~faults ~on_restart ~corrupt ~audit
        ~max_rounds ~max_words ~metrics ~label ()
    else
      E.run skeleton ~init ~step ~active ?faults ?on_restart ?corrupt ?audit
        ~max_rounds ~max_words ~metrics ~label ()
end
