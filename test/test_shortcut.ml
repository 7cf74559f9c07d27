module Digraph = Repro_graph.Digraph
module Traversal = Repro_graph.Traversal
module Generators = Repro_graph.Generators
module Metrics = Repro_congest.Metrics
module Bfs_tree = Repro_congest.Bfs_tree
module Part = Repro_shortcut.Part
module Pa = Repro_shortcut.Pa
module Mvc = Repro_shortcut.Mvc
module Primitives = Repro_shortcut.Primitives

(* audit every CONGEST engine run in this suite: accounting drift raises *)
let () = Repro_congest.Engine.audit_enabled := true

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Part *)

let test_part_of_labels () =
  let g = Generators.path 6 in
  let parts = Part.of_labels g [| 0; 0; -1; 1; 1; 1 |] in
  check_int "two parts" 2 (Part.count parts);
  check_bool "disjoint" true (Part.is_vertex_disjoint parts)

let test_part_rejects_disconnected () =
  let g = Generators.path 6 in
  check_bool "raises" true
    (try
       ignore (Part.make g [| [| 0; 5 |] |]);
       false
     with Invalid_argument _ -> true)

let test_part_near_disjoint () =
  (* star: center 0 shared by two parts, each part otherwise private *)
  let g = Generators.path 5 in
  (* parts {0,1,2} and {2,3,4} share vertex 2 *)
  let parts = Part.make g [| [| 0; 1; 2 |]; [| 2; 3; 4 |] |] in
  check_bool "not vertex disjoint" false (Part.is_vertex_disjoint parts);
  check_bool "near disjoint" true (Part.is_near_disjoint parts)

let test_part_not_near_disjoint () =
  let g = Generators.path 4 in
  (* parts {0,1,2} and {1,2,3}: edge (1,2) has both endpoints shared *)
  let parts = Part.make g [| [| 0; 1; 2 |]; [| 1; 2; 3 |] |] in
  check_bool "violates condition 1" false (Part.is_near_disjoint parts)

(* ------------------------------------------------------------------ *)
(* PA *)

let sum_aggregate g members =
  let m = Metrics.create () in
  let parts = Part.make g members in
  let results, stats =
    Pa.aggregate parts ~op:( + ) ~value:(fun ~part:_ ~vertex -> vertex) ~metrics:m ~label:"pa"
  in
  (results, stats, m)

let test_pa_sum_path () =
  let g = Generators.path 8 in
  let results, _, _ = sum_aggregate g [| [| 0; 1; 2; 3 |]; [| 4; 5; 6; 7 |] |] in
  Alcotest.(check (array int)) "sums" [| 6; 22 |] results

let test_pa_single_vertex_parts () =
  let g = Generators.path 4 in
  let results, _, _ = sum_aggregate g [| [| 0 |]; [| 2 |]; [| 3 |] |] in
  Alcotest.(check (array int)) "sums" [| 0; 2; 3 |] results

let test_pa_min_aggregate () =
  let g = Generators.grid 4 4 in
  let m = Metrics.create () in
  let parts = Part.make g [| Array.init 16 Fun.id |] in
  let results, _ =
    Pa.aggregate parts ~op:min
      ~value:(fun ~part:_ ~vertex -> 100 - vertex)
      ~metrics:m ~label:"pa"
  in
  check_int "min over all" 85 results.(0)

let test_pa_stats_measured () =
  let g = Generators.path 9 in
  let _, stats, m = sum_aggregate g [| [| 0; 1; 2 |]; [| 3; 4; 5 |]; [| 6; 7; 8 |] |] in
  check_int "depth of path tree" 8 stats.Pa.depth;
  check_bool "rounds were charged" true (Metrics.rounds m > 0);
  check_bool "congestion at least 1" true (stats.Pa.max_load >= 1);
  (* Steiner-trimmed aggregation: each part meets within its own span, so
     the up phase is bounded by the largest part span, not the depth *)
  check_bool "up rounds local" true (stats.Pa.rounds_up <= 4);
  check_bool "down rounds local" true (stats.Pa.rounds_down <= 4)

let prop_pa_matches_direct_fold =
  QCheck.Test.make ~name:"PA aggregate = direct fold" ~count:40
    QCheck.(pair (int_range 0 500) (int_range 8 40))
    (fun (seed, n) ->
      let g = Generators.gnp_connected ~seed n 0.1 in
      (* parts = components after removing ~ n/4 vertices *)
      let rng = Random.State.make [| seed |] in
      let mask = Array.init n (fun _ -> Random.State.float rng 1.0 > 0.25) in
      let labels, count = Traversal.components_mask g mask in
      count = 0
      ||
      let parts = Part.of_labels g labels in
      let m = Metrics.create () in
      let results, _ =
        Pa.aggregate parts ~op:( + ) ~value:(fun ~part:_ ~vertex -> vertex) ~metrics:m
          ~label:"pa"
      in
      Array.for_all Fun.id
        (Array.mapi
           (fun p vs -> results.(p) = Array.fold_left ( + ) 0 vs)
           parts.Part.members))

(* ------------------------------------------------------------------ *)
(* Part and PA against O(n) references *)

(* the connectivity test Part.make made before it became O(|part|) *)
let ref_connected g vs =
  Array.length vs > 0
  &&
  let mask = Array.make (Digraph.n g) false in
  Array.iter (fun v -> mask.(v) <- true) vs;
  let labels, _ = Traversal.components_mask g mask in
  Array.for_all (fun v -> labels.(v) = labels.(vs.(0))) vs

let make_error g members =
  try
    ignore (Part.make g members);
    None
  with Invalid_argument msg -> Some msg

let prop_part_make_rejects =
  QCheck.Test.make ~name:"Part.make rejects exactly empty and disconnected parts" ~count:100
    QCheck.(pair (int_range 0 1000) (int_range 6 40))
    (fun (seed, n) ->
      let g =
        if seed mod 2 = 0 then Generators.gnp_connected ~seed n 0.12
        else Generators.partial_k_tree ~seed n 2 ~keep:0.4
      in
      let rng = Random.State.make [| seed; 0x9a7 |] in
      (* a random subset, sometimes empty, sometimes with a repeat *)
      let vs = List.filter (fun _ -> Random.State.int rng 4 = 0) (List.init n Fun.id) in
      let vs = if seed mod 7 = 0 then [] else if seed mod 5 = 0 then vs @ vs else vs in
      let vs = Array.of_list vs in
      let expected =
        if ref_connected g vs then None
        else Some "Part.make: part 1 is empty or disconnected"
      in
      make_error g [| [| 0 |]; vs |] = expected
      && make_error g [| [| 0; n |] |]
         = Some (Printf.sprintf "Part.make: vertex %d out of range" n))

(* Pa.loads from first principles with n-sized arrays: Lemma 7 delegation,
   then per part the Steiner tree of its members in the BFS tree (every
   member's path up to their lowest common ancestor, which carries
   nothing up), raced against the parts' own spanning trees *)
let ref_delegate g members =
  let n = Digraph.n g in
  let count = Array.make n 0 in
  Array.iter (Array.iter (fun v -> count.(v) <- count.(v) + 1)) members;
  if Array.for_all (fun c -> c <= 1) count then (members, false)
  else
    ( Array.map
        (fun ms ->
          let private_ = Array.make n false in
          Array.iter (fun v -> if count.(v) = 1 then private_.(v) <- true) ms;
          let kept =
            List.filter
              (fun v ->
                count.(v) = 1
                || not (Array.exists (fun u -> private_.(u)) (Digraph.neighbors g v)))
              (Array.to_list ms)
          in
          if kept = [] then ms else Array.of_list kept)
        members,
      true )

let ref_steiner_load (tree : Bfs_tree.tree) members =
  let n = Array.length tree.Bfs_tree.parent in
  let load = Array.make n 0 in
  let up v = tree.Bfs_tree.parent.(v) and depth v = tree.Bfs_tree.dist.(v) in
  let rec lca a b =
    if a = b then a else if depth a >= depth b then lca (up a) b else lca a (up b)
  in
  Array.iter
    (fun ms ->
      let apex = Array.fold_left lca ms.(0) ms in
      let on_path = Array.make n false in
      Array.iter
        (fun u ->
          let v = ref u in
          while !v <> apex do
            on_path.(!v) <- true;
            v := up !v
          done)
        ms;
      Array.iteri (fun v b -> if b then load.(v) <- load.(v) + 1) on_path)
    members;
  Array.fold_left max 0 load

let ref_intra_depth g members =
  let n = Digraph.n g in
  Array.fold_left
    (fun acc ms ->
      match acc with
      | None -> None
      | Some worst ->
          let inside = Array.make n false in
          Array.iter (fun v -> inside.(v) <- true) ms;
          let dist = Array.make n (-1) in
          dist.(ms.(0)) <- 0;
          let queue = Queue.create () in
          Queue.add ms.(0) queue;
          let seen = ref 1 and far = ref 0 in
          while not (Queue.is_empty queue) do
            let v = Queue.pop queue in
            far := max !far dist.(v);
            Array.iter
              (fun u ->
                if inside.(u) && dist.(u) < 0 then begin
                  dist.(u) <- dist.(v) + 1;
                  incr seen;
                  Queue.add u queue
                end)
              (Digraph.neighbors g v)
          done;
          if !seen < Array.length ms then None else Some (max worst !far))
    (Some 0) members

let ref_loads tree g members =
  let members, _ = ref_delegate g members in
  let steiner = ref_steiner_load tree members in
  match ref_intra_depth g members with
  | Some d when d + 1 < tree.Bfs_tree.depth + steiner -> (d, 1)
  | _ -> (tree.Bfs_tree.depth, steiner)

(* disjoint components of a random vertex subset, or the same components
   each joined by every dropped vertex next to it (shared boundaries) *)
let random_collection seed =
  let n = 12 + (seed mod 40) in
  let g =
    match seed mod 3 with
    | 0 -> Generators.gnp_connected ~seed n 0.12
    | 1 -> Generators.partial_k_tree ~seed n 2 ~keep:0.5
    | _ -> Generators.grid 4 (3 + (n / 6))
  in
  let n = Digraph.n g in
  let rng = Random.State.make [| seed; 0x9a |] in
  let labels, count =
    Traversal.components_mask g (Array.init n (fun _ -> Random.State.int rng 10 >= 3))
  in
  let comps = Array.make count [] in
  for v = n - 1 downto 0 do
    if labels.(v) >= 0 then comps.(labels.(v)) <- v :: comps.(labels.(v))
  done;
  if seed mod 2 = 0 then (g, Array.map Array.of_list comps)
  else begin
    let extra = Array.make count [] in
    for v = 0 to n - 1 do
      if labels.(v) < 0 then
        Array.iter
          (fun u ->
            let c = labels.(u) in
            if c >= 0 && not (List.mem v extra.(c)) then extra.(c) <- v :: extra.(c))
          (Digraph.neighbors g v)
    done;
    (g, Array.mapi (fun c vs -> Array.of_list (vs @ List.rev extra.(c))) comps)
  end

let prop_pa_matches_reference =
  QCheck.Test.make ~name:"Pa.loads and Pa.aggregate = O(n) reference" ~count:80
    QCheck.(int_range 0 2000)
    (fun seed ->
      let g, members = random_collection seed in
      Array.length members = 0
      ||
      let parts = Part.make g members in
      let tree = Primitives.bfs_tree g in
      let st = Pa.loads tree parts in
      let depth, max_load = ref_loads tree g members in
      let m = Metrics.create () in
      let results, ast =
        Pa.aggregate ~tree parts ~op:( + )
          ~value:(fun ~part ~vertex -> (7 * part) + vertex)
          ~metrics:m ~label:"pa"
      in
      let delegated_parts, delegated = ref_delegate g members in
      st.Pa.depth = depth && st.Pa.max_load = max_load
      && results
         = Array.mapi (fun p ms -> Array.fold_left (fun acc v -> acc + (7 * p) + v) 0 ms) members
      && ast.Pa.depth = tree.Bfs_tree.depth
      && ast.Pa.max_load = ref_steiner_load tree delegated_parts
      && Metrics.rounds m
         = ast.Pa.rounds_up + ast.Pa.rounds_down + if delegated then 2 else 0)

(* ------------------------------------------------------------------ *)
(* MVC *)

let full_mask g = Array.make (Digraph.n g) true

let test_mvc_path_cut () =
  let g = Generators.path 5 in
  match Mvc.min_cut g ~mask:(full_mask g) ~sources:[ 0 ] ~sinks:[ 4 ] ~limit:3 with
  | Some cut -> check_int "single cut vertex" 1 (List.length cut)
  | None -> Alcotest.fail "expected a cut"

let test_mvc_respects_limit () =
  (* source 0 and sink 4 joined through the 3 middle vertices 1,2,3 *)
  let g =
    Digraph.create ~directed:false 5
      [ (0, 1, 1); (0, 2, 1); (0, 3, 1); (1, 4, 1); (2, 4, 1); (3, 4, 1) ]
  in
  check_bool "limit 2 fails" true
    (Mvc.min_cut g ~mask:(full_mask g) ~sources:[ 0 ] ~sinks:[ 4 ] ~limit:2 = None);
  match Mvc.min_cut g ~mask:(full_mask g) ~sources:[ 0 ] ~sinks:[ 4 ] ~limit:3 with
  | Some cut -> Alcotest.(check (list int)) "cut of 3" [ 1; 2; 3 ] (List.sort compare cut)
  | None -> Alcotest.fail "expected a cut"

let test_mvc_adjacent_is_infinite () =
  let g = Generators.path 3 in
  check_bool "adjacent source/sink" true
    (Mvc.min_cut g ~mask:(full_mask g) ~sources:[ 0 ] ~sinks:[ 1 ] ~limit:10 = None)

let test_mvc_disconnected_empty_cut () =
  let g = Digraph.create ~directed:false 4 [ (0, 1, 1); (2, 3, 1) ] in
  match Mvc.min_cut g ~mask:(full_mask g) ~sources:[ 0 ] ~sinks:[ 3 ] ~limit:5 with
  | Some [] -> ()
  | _ -> Alcotest.fail "expected empty cut"

let test_mvc_cut_separates () =
  let g = Generators.grid 4 4 in
  match Mvc.min_cut g ~mask:(full_mask g) ~sources:[ 0 ] ~sinks:[ 15 ] ~limit:8 with
  | None -> Alcotest.fail "expected a cut"
  | Some cut ->
      let mask = full_mask g in
      List.iter (fun v -> mask.(v) <- false) cut;
      let labels, _ = Traversal.components_mask g mask in
      check_bool "separated" true (labels.(0) <> labels.(15))

let prop_mvc_cut_separates_and_is_minimal =
  QCheck.Test.make ~name:"MVC cut separates sources from sinks" ~count:40
    QCheck.(pair (int_range 0 500) (int_range 8 25))
    (fun (seed, n) ->
      let g = Generators.gnp_connected ~seed n 0.15 in
      let s = seed mod n and t = (seed + (n / 2)) mod n in
      if s = t then true
      else
        match Mvc.min_cut g ~mask:(full_mask g) ~sources:[ s ] ~sinks:[ t ] ~limit:n with
        | None -> true (* adjacent *)
        | Some cut ->
            let mask = full_mask g in
            List.iter (fun v -> mask.(v) <- false) cut;
            let labels, _ = Traversal.components_mask g mask in
            labels.(s) <> labels.(t))

(* ------------------------------------------------------------------ *)
(* Primitives *)

let test_ceil_log2 () =
  check_int "1" 1 (Primitives.ceil_log2 1);
  check_int "2" 1 (Primitives.ceil_log2 2);
  check_int "3" 2 (Primitives.ceil_log2 3);
  check_int "1024" 10 (Primitives.ceil_log2 1024);
  check_int "1025" 11 (Primitives.ceil_log2 1025)

let test_schedule_combines () =
  check_int "dilation max + congestion sum" 25
    (Primitives.schedule [ (10, 3); (7, 5); (4, 7) ])

let test_elect_per_part () =
  let g = Generators.path 6 in
  let parts = Part.make g [| [| 0; 1; 2 |]; [| 3; 4; 5 |] |] in
  let m = Metrics.create () in
  let leaders = Primitives.elect parts ~candidate:(fun v -> v mod 2 = 1) ~metrics:m ~label:"sle" in
  Alcotest.(check (array int)) "smallest odd ids" [| 1; 3 |] leaders

let test_components_charges () =
  let g = Generators.grid 3 3 in
  let mask = Array.make 9 true in
  mask.(4) <- false;
  let m = Metrics.create () in
  let _, count = Primitives.components g ~mask ~metrics:m ~label:"ccd" in
  check_int "still connected around center" 1 count;
  check_bool "charged rounds" true (Metrics.rounds m > 0)


(* ------------------------------------------------------------------ *)
(* MST *)

module Mst = Repro_shortcut.Mst

let test_mst_matches_kruskal () =
  let g = Generators.random_weights ~seed:4 ~max_weight:20 (Generators.k_tree ~seed:4 40 3) in
  let m = Metrics.create () in
  let r = Mst.run g ~metrics:m in
  let k = Mst.kruskal g in
  Alcotest.(check (list int)) "same edges" k.Mst.edges r.Mst.edges;
  check_int "same weight" k.Mst.weight r.Mst.weight;
  check_int "spanning" (Digraph.n g - 1) (List.length r.Mst.edges);
  check_bool "logarithmic phases" true (r.Mst.phases <= 8);
  check_bool "rounds charged" true (Metrics.rounds m > 0)

let test_mst_on_tree_is_identity () =
  let g = Generators.random_weights ~seed:5 ~max_weight:9 (Generators.binary_tree 4) in
  let m = Metrics.create () in
  let r = Mst.run g ~metrics:m in
  check_int "all edges kept" (Digraph.m g) (List.length r.Mst.edges)

let test_mst_rejects_disconnected () =
  let g = Digraph.create ~directed:false 4 [ (0, 1, 1); (2, 3, 1) ] in
  let m = Metrics.create () in
  check_bool "raises" true
    (try
       ignore (Mst.run g ~metrics:m);
       false
     with Invalid_argument _ -> true)

let prop_mst_matches_kruskal =
  QCheck.Test.make ~name:"Boruvka-over-PA = Kruskal" ~count:30
    QCheck.(pair (int_range 0 1000) (int_range 6 40))
    (fun (seed, n) ->
      let seed = abs seed and n = max 6 (min 40 n) in
      let g =
        Generators.random_weights ~seed ~max_weight:15 (Generators.gnp_connected ~seed n 0.15)
      in
      let m = Metrics.create () in
      (Mst.run g ~metrics:m).Mst.edges = (Mst.kruskal g).Mst.edges)

let () =
  let qsuite =
    List.map QCheck_alcotest.to_alcotest
      [
        prop_pa_matches_direct_fold;
        prop_part_make_rejects;
        prop_pa_matches_reference;
        prop_mvc_cut_separates_and_is_minimal;
        prop_mst_matches_kruskal;
      ]
  in
  Alcotest.run "repro_shortcut"
    [
      ( "part",
        [
          Alcotest.test_case "of_labels" `Quick test_part_of_labels;
          Alcotest.test_case "rejects disconnected" `Quick test_part_rejects_disconnected;
          Alcotest.test_case "near disjoint" `Quick test_part_near_disjoint;
          Alcotest.test_case "not near disjoint" `Quick test_part_not_near_disjoint;
        ] );
      ( "pa",
        [
          Alcotest.test_case "sum on path" `Quick test_pa_sum_path;
          Alcotest.test_case "singleton parts" `Quick test_pa_single_vertex_parts;
          Alcotest.test_case "min aggregate" `Quick test_pa_min_aggregate;
          Alcotest.test_case "measured stats" `Quick test_pa_stats_measured;
        ] );
      ( "mvc",
        [
          Alcotest.test_case "path" `Quick test_mvc_path_cut;
          Alcotest.test_case "limit" `Quick test_mvc_respects_limit;
          Alcotest.test_case "adjacent infinite" `Quick test_mvc_adjacent_is_infinite;
          Alcotest.test_case "disconnected" `Quick test_mvc_disconnected_empty_cut;
          Alcotest.test_case "cut separates" `Quick test_mvc_cut_separates;
        ] );
      ( "primitives",
        [
          Alcotest.test_case "ceil_log2" `Quick test_ceil_log2;
          Alcotest.test_case "schedule" `Quick test_schedule_combines;
          Alcotest.test_case "elect" `Quick test_elect_per_part;
          Alcotest.test_case "components" `Quick test_components_charges;
        ] );
      ( "mst",
        [
          Alcotest.test_case "matches kruskal" `Quick test_mst_matches_kruskal;
          Alcotest.test_case "tree identity" `Quick test_mst_on_tree_is_identity;
          Alcotest.test_case "disconnected rejected" `Quick test_mst_rejects_disconnected;
        ] );
      ("properties", qsuite);
    ]
