(* Cross-module integration tests and edge cases: multigraphs, self-loops,
   paper-profile runs, mode equivalences, and end-to-end pipelines. *)

module Digraph = Repro_graph.Digraph
module Traversal = Repro_graph.Traversal
module Shortest_path = Repro_graph.Shortest_path
module Generators = Repro_graph.Generators
module Matching_ref = Repro_graph.Matching_ref
module Girth_ref = Repro_graph.Girth_ref
module Metrics = Repro_congest.Metrics
module Engine = Repro_congest.Engine
module Part = Repro_shortcut.Part
module Pa = Repro_shortcut.Pa
module Decomposition = Repro_treedec.Decomposition
module Heuristic = Repro_treedec.Heuristic
module Separator = Repro_treedec.Separator
module Build = Repro_treedec.Build
module Labeling = Repro_core.Labeling
module Dl = Repro_core.Dl
module Stateful = Repro_core.Stateful
module Product = Repro_core.Product
module Cdl = Repro_core.Cdl
module Matching = Repro_core.Matching
module Girth = Repro_core.Girth

(* audit every CONGEST engine run in this suite: accounting drift raises *)
let () = Repro_congest.Engine.audit_enabled := true

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Engine edge cases *)

module E = Engine.Make (struct
  type t = int list

  let words = List.length
end)

let test_engine_rejects_oversized_message () =
  let sk = Generators.path 2 in
  let m = Metrics.create () in
  check_bool "oversize rejected" true
    (try
       ignore
         (E.run sk
            ~init:(fun v -> v = 0)
            ~step:(fun ~round:_ ~node:_ st _ ->
              if st then (false, [ (1, [ 1; 2; 3; 4; 5; 6; 7; 8 ]) ]) else (false, []))
            ~active:Fun.id ~max_words:4 ~metrics:m ~label:"t" ());
       false
     with Invalid_argument _ -> true)

(* the round budget binds on both executors: the lockstep loop and the
   asynchronous pulse loop (forced, as --async does) *)
let test_engine_max_rounds_guard ~async () =
  Repro_congest.Async_engine.forced := async;
  Fun.protect ~finally:(fun () -> Repro_congest.Async_engine.forced := false) @@ fun () ->
  let sk = Generators.path 2 in
  let m = Metrics.create () in
  check_bool "livelock detected" true
    (try
       ignore
         (E.run sk
            ~init:(fun _ -> ())
            ~step:(fun ~round:_ ~node () _ ->
              ((), if node = 0 then [ (1, [ 1 ]) ] else []))
            ~active:(fun () -> true)
            ~max_rounds:50 ~metrics:m ~label:"t" ());
       false
     with Engine.Round_limit_exceeded { label = "t"; rounds = 50; active_nodes = 2 } -> true)

let test_engine_idle_algorithm_costs_nothing () =
  let sk = Generators.path 3 in
  let m = Metrics.create () in
  let _ =
    E.run sk
      ~init:(fun _ -> ())
      ~step:(fun ~round:_ ~node:_ () _ -> ((), []))
      ~active:(fun () -> false)
      ~metrics:m ~label:"t" ()
  in
  check_int "zero rounds" 0 (Metrics.rounds m)

(* ------------------------------------------------------------------ *)
(* Multigraphs and self-loops through the whole pipeline *)

let test_dl_on_multigraph () =
  (* parallel edges with different weights: DL must pick the lighter *)
  let g =
    Digraph.create ~directed:true 3
      [ (0, 1, 9); (0, 1, 2); (1, 2, 5); (1, 2, 7); (2, 2, 3) ]
  in
  let m = Metrics.create () in
  let labels = Dl.build g (Heuristic.min_fill g) ~metrics:m in
  check_int "uses cheaper parallel edge" 2 (Labeling.decode labels.(0) labels.(1));
  check_int "composed" 7 (Labeling.decode labels.(0) labels.(2))

let test_girth_multigraph_two_cycle () =
  let g = Digraph.create ~directed:false 3 [ (0, 1, 3); (0, 1, 4); (1, 2, 1) ] in
  let m = Metrics.create () in
  let r = Girth.undirected ~mode:`PerEdge g ~metrics:m in
  check_int "parallel pair is the girth" 7 r.Repro_core.Girth.girth

let test_product_respects_multiplicity () =
  let g = Digraph.create_labeled ~directed:false 2 [ (0, 1, 1, 0); (0, 1, 1, 1) ] in
  check_int "p_max" 2 (Product.build g (Stateful.colored ~colors:2)).Product.p_max


let test_cdl_on_multigraph () =
  (* parallel edges with different labels: the constrained distance must
     consider each copy separately (p_max overhead of Theorem 3) *)
  let g =
    Digraph.create_labeled ~directed:false 3
      [ (0, 1, 4, 1); (0, 1, 9, 0); (1, 2, 1, 1) ]
  in
  let c = Stateful.count ~limit:1 in
  let m = Metrics.create () in
  let cdl = Cdl.build ~dec:(Heuristic.min_fill g) g c ~metrics:m in
  let p = Cdl.product cdl in
  (* 0 -> 2 with at most one label-1 edge: must use the heavy label-0
     copy for one hop: 9 + 1 = 10; with the light copy the count hits 2 *)
  let q1 = Stateful.state_index_count c 1 in
  check_int "oracle" (Product.constrained_distance p ~q:q1 ~src:0 ~dst:2)
    (Cdl.sdec cdl ~q:q1 ~src:0 ~dst:2);
  check_int "forced around the label budget" 10 (Cdl.sdec cdl ~q:q1 ~src:0 ~dst:2)

(* ------------------------------------------------------------------ *)
(* Paper profile end-to-end *)

let test_paper_profile_decomposition_is_valid () =
  let g = Generators.partial_k_tree ~seed:41 60 2 ~keep:0.6 in
  let m = Metrics.create () in
  let report = Build.decompose ~profile:Separator.paper_profile ~seed:41 g ~metrics:m in
  (match Decomposition.validate report.Build.decomposition with
  | Ok () -> ()
  | Error e -> Alcotest.failf "paper profile produced invalid decomposition: %s" e);
  (* with the paper constants the threshold fires: one wide bag *)
  check_bool "wide but valid" true (Decomposition.width report.Build.decomposition <= 60)

let test_paper_profile_dl_still_exact () =
  let g = Generators.bidirect ~seed:42 ~max_weight:5 (Generators.k_tree ~seed:42 24 2) in
  let m = Metrics.create () in
  let report = Build.decompose ~profile:Separator.paper_profile ~seed:42 g ~metrics:m in
  let labels = Dl.build g report.Build.decomposition ~metrics:m in
  let d = Shortest_path.dijkstra g 0 in
  for v = 0 to 23 do
    check_int "exact" d.(v) (Labeling.decode labels.(0) labels.(v))
  done

(* ------------------------------------------------------------------ *)
(* Matching mode equivalence *)

let test_matching_faithful_equals_charged () =
  let g = Generators.grid 3 4 in
  let mf = Metrics.create () and mc = Metrics.create () in
  let rf = Matching.run ~mode:`Faithful ~seed:2 g ~metrics:mf in
  let rc = Matching.run ~mode:`Charged ~seed:2 g ~metrics:mc in
  check_int "same size" rf.Matching.size rc.Matching.size;
  Alcotest.(check (array int)) "same matching" rf.Matching.mate rc.Matching.mate;
  check_bool "both exact" true
    (rf.Matching.size = Matching_ref.size (Matching_ref.hopcroft_karp g))

(* ------------------------------------------------------------------ *)
(* PA hybrid routing: a part with large internal diameter prefers the
   Steiner shortcut through the BFS tree *)

let test_pa_shortcut_beats_long_part () =
  (* comb: a path 0..k-1 (the spine) with the part being the two spine
     endpoints plus a long detour — in a cycle, a part of two antipodal
     arcs has internal diameter ~ n/2 but meets quickly through the tree *)
  let n = 64 in
  let g = Generators.cycle n in
  (* part = a long arc covering half the cycle: internal depth ~ n/2;
     the BFS tree from 0 splits the cycle so the Steiner route is ~ n/4 *)
  let arc = Array.init (n / 2) (fun i -> (i + (n / 4)) mod n) in
  let parts = Part.make g [| arc |] in
  let m = Metrics.create () in
  let _, stats =
    Pa.aggregate parts ~op:( + ) ~value:(fun ~part:_ ~vertex -> vertex) ~metrics:m
      ~label:"pa"
  in
  check_bool "bounded by ~half the arc" true
    (stats.Pa.rounds_up + stats.Pa.rounds_down <= n);
  check_bool "nonzero" true (stats.Pa.rounds_up > 0)

let test_pa_delegation_keeps_results_correct () =
  (* heavily shared hub: spider center belongs to every part; each leg is
     a 2-vertex path so the private remainders stay connected *)
  let g =
    Digraph.create ~directed:false 9
      [ (0, 1, 1); (1, 2, 1); (0, 3, 1); (3, 4, 1); (0, 5, 1); (5, 6, 1);
        (0, 7, 1); (7, 8, 1) ]
  in
  let parts =
    Part.make g [| [| 0; 1; 2 |]; [| 0; 3; 4 |]; [| 0; 5; 6 |]; [| 0; 7; 8 |] |]
  in
  check_bool "near disjoint" true (Part.is_near_disjoint parts);
  let m = Metrics.create () in
  let results, _ =
    Pa.aggregate parts ~op:( + ) ~value:(fun ~part:_ ~vertex -> vertex) ~metrics:m
      ~label:"pa"
  in
  Alcotest.(check (array int)) "sums include the shared hub" [| 3; 7; 11; 15 |] results

(* ------------------------------------------------------------------ *)
(* End-to-end: file -> decomposition -> labels -> queries *)

let test_pipeline_from_file () =
  let g0 = Generators.random_weights ~seed:43 ~max_weight:9 (Generators.k_tree ~seed:43 20 2) in
  let path = Filename.temp_file "repro" ".graph" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Repro_graph.Io.save path g0;
      let g = Repro_graph.Io.load path in
      let m = Metrics.create () in
      let report = Build.decompose ~seed:43 g ~metrics:m in
      let labels = Dl.build g report.Build.decomposition ~metrics:m in
      let apsp = Shortest_path.apsp g in
      for u = 0 to 19 do
        for v = 0 to 19 do
          check_int "exact end to end" apsp.(u).(v) (Labeling.decode labels.(u) labels.(v))
        done
      done)

(* ------------------------------------------------------------------ *)
(* Girth charged mode upper-bound guarantee under adversarial repeats *)

let test_girth_charged_never_underestimates () =
  for seed = 0 to 8 do
    let g = Generators.random_weights ~seed ~max_weight:9 (Generators.ring_of_rings ~rings:4 ~ring_size:4) in
    let m = Metrics.create () in
    let r = Girth.undirected ~mode:`Charged ~repeats:1 ~seed g ~metrics:m in
    check_bool "lower-bounded by true girth" true
      (r.Repro_core.Girth.girth >= Girth_ref.girth g)
  done

let () =
  Alcotest.run "repro_integration"
    [
      ( "engine",
        [
          Alcotest.test_case "oversize message" `Quick test_engine_rejects_oversized_message;
          Alcotest.test_case "max rounds" `Quick (test_engine_max_rounds_guard ~async:false);
          Alcotest.test_case "max rounds (async)" `Quick (test_engine_max_rounds_guard ~async:true);
          Alcotest.test_case "idle costs nothing" `Quick test_engine_idle_algorithm_costs_nothing;
        ] );
      ( "multigraphs",
        [
          Alcotest.test_case "DL parallel edges" `Quick test_dl_on_multigraph;
          Alcotest.test_case "girth 2-cycle" `Quick test_girth_multigraph_two_cycle;
          Alcotest.test_case "product multiplicity" `Quick test_product_respects_multiplicity;
          Alcotest.test_case "CDL multigraph" `Quick test_cdl_on_multigraph;
        ] );
      ( "paper profile",
        [
          Alcotest.test_case "valid decomposition" `Quick test_paper_profile_decomposition_is_valid;
          Alcotest.test_case "DL exact" `Quick test_paper_profile_dl_still_exact;
        ] );
      ( "matching modes",
        [ Alcotest.test_case "faithful = charged" `Slow test_matching_faithful_equals_charged ] );
      ( "pa hybrid",
        [
          Alcotest.test_case "long part" `Quick test_pa_shortcut_beats_long_part;
          Alcotest.test_case "delegation" `Quick test_pa_delegation_keeps_results_correct;
        ] );
      ("pipeline", [ Alcotest.test_case "from file" `Quick test_pipeline_from_file ]);
      ( "girth guarantees",
        [ Alcotest.test_case "never underestimates" `Quick test_girth_charged_never_underestimates ]
      );
    ]
