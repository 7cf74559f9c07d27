module Digraph = Repro_graph.Digraph

type config = { checkpoint_every : int }

module type RECOVERABLE = sig
  module Msg : Engine.MSG

  type st

  val init : int -> st
  val step : round:int -> node:int -> st -> (int * Msg.t) list -> st * (int * Msg.t) list
  val active : st -> bool
  val snapshot : st -> int array
  val restore : node:int -> int array -> st
  val resync : st -> Msg.t option
end

module Make (P : RECOVERABLE) = struct
  (* Recovery control traffic is multiplexed with user data on the same
     links: a restarted node floods Hello, neighbors answer Resync with
     their current announcement. Tags are O(1) bits and ride free; the
     payload is measured as the user message it carries. *)
  module X = struct
    type t = Data of P.Msg.t | Hello | Resync of P.Msg.t option

    let words = function
      | Data m | Resync (Some m) -> P.Msg.words m
      | Hello | Resync None -> 1
  end

  module T = Transport.Make (X)

  (* per-neighbor send slot: a later announcement supersedes an earlier
     undelivered one (the RECOVERABLE contract), so one slot suffices *)
  type cell = { mutable resync_owed : bool; mutable data : P.Msg.t option }

  (* [nbr_cells.(i)] is the cell of [nbrs.(i)]; [cells] serves lookups by
     neighbor id *)
  type rst = {
    mutable user : P.st;
    mutable hello : bool;  (* just restarted: flood Hello next step *)
    mutable resyncing : bool;  (* restart handshake not yet complete *)
    cells : (int, cell) Hashtbl.t;
    await : (int, unit) Hashtbl.t;  (* neighbors not heard from since restart *)
    nbrs : int array;
    nbr_cells : cell array;
  }

  let run skeleton ?faults ?(checkpoint_every = 0) ?rto ?max_rounds ?max_words ~metrics
      ~label () =
    if checkpoint_every < 0 then invalid_arg "Recovery.run: negative checkpoint interval";
    let sink = !Engine.trace_sink in
    let tracing = sink.Repro_obs.Sink.enabled in
    let n = Digraph.n skeleton in
    (* simulated per-node stable storage: survives amnesia restarts
       because it lives outside the engine's (volatile) node states *)
    let stable = Array.make n None in
    let fresh_rst ~hello v user =
      let nbrs = Digraph.neighbors skeleton v in
      let nbr_cells = Array.map (fun _ -> { resync_owed = false; data = None }) nbrs in
      let cells = Hashtbl.create 8 in
      Array.iteri (fun i u -> Hashtbl.replace cells u nbr_cells.(i)) nbrs;
      let await = Hashtbl.create 8 in
      if hello then Array.iter (fun u -> Hashtbl.replace await u ()) nbrs;
      { user; hello; resyncing = hello; cells; await; nbrs; nbr_cells }
    in
    let wrap_init v = fresh_rst ~hello:false v (P.init v) in
    let wrap_restart ~round:_ ~node =
      Metrics.add_recoveries metrics 1;
      let user =
        match stable.(node) with
        | Some snap -> P.restore ~node snap
        | None -> P.init node
      in
      fresh_rst ~hello:true node user
    in
    (* absorb: user payloads go to the user inbox; a Hello makes us owe
       that neighbor a Resync; any payload-bearing message from an
       awaited neighbor completes that part of the handshake. The
       per-node-round helpers are built once per run, so an idle
       node-round allocates nothing. *)
    let rec absorb st user_in = function
      | [] -> user_in
      | (u, x) :: rest ->
          (match x with
          | X.Data _ | X.Resync _ -> Hashtbl.remove st.await u
          | X.Hello -> ());
          let user_in =
            match x with
            | X.Data m | X.Resync (Some m) -> (u, m) :: user_in
            | X.Resync None -> user_in
            | X.Hello ->
                (Hashtbl.find st.cells u).resync_owed <- true;
                user_in
          in
          absorb st user_in rest
    in
    let rec fill st = function
      | [] -> ()
      | (u, m) :: rest ->
          (Hashtbl.find st.cells u).data <- Some m;
          fill st rest
    in
    (* emit at most one message per neighbor, Hello > Resync > Data; a
       deferred slot drains on a later round. Messages are consed in
       ascending neighbor order, so the last neighbor's is first. *)
    let rec emit_slots st i out =
      if i = Array.length st.nbrs then out
      else begin
        let u = st.nbrs.(i) and c = st.nbr_cells.(i) in
        let out =
          if st.hello then (u, X.Hello) :: out
          else if c.resync_owed then begin
            c.resync_owed <- false;
            (u, X.Resync (P.resync st.user)) :: out
          end
          else
            match c.data with
            | Some m ->
                c.data <- None;
                (u, X.Data m) :: out
            | None -> out
        in
        emit_slots st (i + 1) out
      end
    in
    let wrap_step ~round ~node:v st inbox =
      let user_in = Engine.sort_inbox (absorb st [] inbox) in
      let stepped, user_out = P.step ~round ~node:v st.user user_in in
      st.user <- stepped;
      fill st user_out;
      if checkpoint_every > 0 && round > 0 && round mod checkpoint_every = 0 then begin
        let snap = P.snapshot stepped in
        stable.(v) <- Some snap;
        Metrics.add_checkpoints metrics 1;
        Metrics.add_checkpoint_words metrics (Array.length snap);
        if tracing then
          Repro_obs.Sink.emit sink
            (Repro_obs.Event.Checkpoint { round; node = v; words = Array.length snap })
      end;
      let awaiting = Hashtbl.length st.await in
      if awaiting > 0 then Metrics.add_resync_rounds metrics 1
      else if st.resyncing then begin
        (* the post-restart handshake just completed: every neighbor has
           been heard from since the reboot *)
        st.resyncing <- false;
        if tracing then
          Repro_obs.Sink.emit sink (Repro_obs.Event.Recovery_resync { round; node = v })
      end;
      let out = emit_slots st 0 [] in
      st.hello <- false;
      (st, out)
    in
    let rec slots_busy cells i =
      i < Array.length cells
      && (cells.(i).resync_owed || Option.is_some cells.(i).data || slots_busy cells (i + 1))
    in
    let wrap_active st = P.active st.user || st.hello || slots_busy st.nbr_cells 0 in
    let states =
      T.run skeleton ?faults ~init:wrap_init ~step:wrap_step ~active:wrap_active
        ~on_restart:wrap_restart ?rto ?max_rounds ?max_words ~metrics ~label ()
    in
    Array.map (fun st -> st.user) states
end
