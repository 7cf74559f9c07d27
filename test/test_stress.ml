(* Randomized stress suite: wider sweeps than the per-module property
   tests, mixing families, orientations, multi-edges and self-loops.
   Everything is validated against a centralized oracle. *)

module Digraph = Repro_graph.Digraph
module Traversal = Repro_graph.Traversal
module Shortest_path = Repro_graph.Shortest_path
module Generators = Repro_graph.Generators
module Matching_ref = Repro_graph.Matching_ref
module Girth_ref = Repro_graph.Girth_ref
module Metrics = Repro_congest.Metrics
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

(* a zoo of weighted instances, some directed, some with parallel edges
   and self-loops *)
let instance seed =
  let rng = Random.State.make [| seed; 0xabcd |] in
  let base =
    match seed mod 5 with
    | 0 -> Generators.partial_k_tree ~seed (40 + (3 * (seed mod 30))) 2 ~keep:0.5
    | 1 -> Generators.partial_k_tree ~seed (40 + (2 * (seed mod 25))) 3 ~keep:0.6
    | 2 -> Generators.series_parallel ~seed (30 + (2 * (seed mod 20)))
    | 3 -> Generators.grid (3 + (seed mod 3)) (4 + (seed mod 4))
    | _ -> Generators.gnp_connected ~seed (14 + (seed mod 12)) 0.2
  in
  let weighted = Generators.random_weights ~seed ~max_weight:11 base in
  if seed mod 3 = 0 then Generators.bidirect ~seed ~max_weight:11 weighted
  else if seed mod 7 = 1 then begin
    (* sprinkle parallel edges *)
    let extra =
      Array.to_list (Digraph.edges weighted)
      |> List.filter (fun _ -> Random.State.float rng 1.0 < 0.15)
      |> List.map (fun e ->
             (e.Digraph.src, e.Digraph.dst, 1 + Random.State.int rng 11))
    in
    Digraph.create ~directed:false (Digraph.n weighted)
      (extra
      @ (Array.to_list (Digraph.edges weighted)
        |> List.map (fun e -> (e.Digraph.src, e.Digraph.dst, e.Digraph.weight))))
  end
  else weighted

let test_dl_stress () =
  for seed = 0 to 29 do
    let g = instance seed in
    let m = Metrics.create () in
    let report = Build.decompose ~seed g ~metrics:m in
    (match Decomposition.validate report.Build.decomposition with
    | Ok () -> ()
    | Error e -> Alcotest.failf "seed %d: invalid decomposition: %s" seed e);
    let labels = Dl.build g report.Build.decomposition ~metrics:m in
    let n = Digraph.n g in
    let rng = Random.State.make [| seed; 0x5117 |] in
    for _ = 1 to 40 do
      let u = Random.State.int rng n in
      let v = Random.State.int rng n in
      check_int
        (Printf.sprintf "seed %d d(%d,%d)" seed u v)
        (Shortest_path.dijkstra g u).(v)
        (Labeling.decode labels.(u) labels.(v))
    done
  done

let test_matching_stress () =
  for seed = 0 to 14 do
    let g = Generators.subdivide (Generators.partial_k_tree ~seed (18 + (2 * seed)) 2 ~keep:0.5) in
    let m = Metrics.create () in
    let r = Matching.run ~seed g ~metrics:m in
    if not (Matching_ref.is_matching (Digraph.skeleton g) r.Matching.mate) then
      Alcotest.failf "seed %d: invalid matching" seed;
    check_int
      (Printf.sprintf "seed %d matching size" seed)
      (Matching_ref.size (Matching_ref.hopcroft_karp (Digraph.skeleton g)))
      r.Matching.size
  done

let test_girth_stress () =
  for seed = 0 to 19 do
    let g = instance seed in
    let m = Metrics.create () in
    let r =
      if Digraph.directed g then Girth.directed ~seed g ~metrics:m
      else Girth.undirected ~mode:`PerEdge ~seed g ~metrics:m
    in
    check_int (Printf.sprintf "seed %d girth" seed) (Girth_ref.girth g) r.Girth.girth
  done

let test_cdl_stress () =
  for seed = 0 to 7 do
    let rng = Random.State.make [| seed; 0xfeed |] in
    let g0 = Generators.partial_k_tree ~seed 14 2 ~keep:0.6 in
    let g =
      Digraph.with_labels
        (Generators.random_weights ~seed ~max_weight:6 g0)
        (fun _ -> Random.State.int rng 3)
    in
    let spec =
      if seed mod 2 = 0 then Stateful.colored ~colors:3 else Stateful.count ~limit:2
    in
    let m = Metrics.create () in
    let cdl = Cdl.build ~dec:(Heuristic.min_fill g0) ~seed g spec ~metrics:m in
    let p = Cdl.product cdl in
    for src = 0 to 13 do
      for dst = 0 to 13 do
        for q = 2 to spec.Stateful.q_size - 1 do
          check_int
            (Printf.sprintf "seed %d q=%d %d->%d" seed q src dst)
            (Product.constrained_distance p ~q ~src ~dst)
            (Cdl.sdec cdl ~q ~src ~dst)
        done
      done
    done
  done

let test_separator_profiles_stress () =
  List.iter
    (fun profile ->
      for seed = 0 to 9 do
        let g = instance seed in
        let sk = Digraph.skeleton g in
        let mask = Array.make (Digraph.n sk) true in
        let cost = Repro_shortcut.Primitives.cost_zero () in
        let sep, _ = Separator.find_separator ~profile ~seed sk ~mask ~x_mask:mask ~cost in
        if not (Separator.is_balanced sk ~mask ~x_mask:mask ~profile sep) then
          Alcotest.failf "profile %s seed %d: unbalanced separator"
            profile.Separator.name seed
      done)
    [ Separator.paper_profile; Separator.practical_profile ]


let test_scale_1024 () =
  (* end-to-end at n=1024: decomposition valid, labels exact on a sample *)
  let g =
    Generators.bidirect ~seed:1024 ~max_weight:9
      (Generators.partial_k_tree ~seed:1024 1024 3 ~keep:0.6)
  in
  let m = Metrics.create () in
  let report = Build.decompose ~seed:2 g ~metrics:m in
  (match Decomposition.validate report.Build.decomposition with
  | Ok () -> ()
  | Error e -> Alcotest.failf "n=1024: %s" e);
  let labels = Dl.build g report.Build.decomposition ~metrics:m in
  let rng = Random.State.make [| 1024 |] in
  for _ = 1 to 15 do
    let u = Random.State.int rng 1024 in
    let d = Shortest_path.dijkstra g u in
    let v = Random.State.int rng 1024 in
    check_int (Printf.sprintf "d(%d,%d)" u v) d.(v) (Labeling.decode labels.(u) labels.(v))
  done

let test_scale_4096 () =
  (* the decomposition at n=4096: valid, width and charged rounds pinned,
     labels exact on a sample *)
  let g = Generators.partial_k_tree ~seed:1 4096 3 ~keep:0.6 in
  let m = Metrics.create () in
  let report = Build.decompose ~seed:1 g ~metrics:m in
  let dec = report.Build.decomposition in
  (match Decomposition.validate dec with
  | Ok () -> ()
  | Error e -> Alcotest.failf "n=4096: %s" e);
  check_int "width" 17 (Decomposition.width dec);
  check_int "rounds" 18263 (Metrics.rounds m);
  let labels = Dl.build g dec ~metrics:(Metrics.create ()) in
  let rng = Random.State.make [| 4096 |] in
  for _ = 1 to 16 do
    let u = Random.State.int rng 4096 and v = Random.State.int rng 4096 in
    check_int (Printf.sprintf "d(%d,%d)" u v)
      (Shortest_path.dijkstra g u).(v)
      (Labeling.decode labels.(u) labels.(v))
  done

(* ------------------------------------------------------------------ *)
(* Golden gate: digests of the decomposition simulator's output, pinned
   before its host-cost refactor. Bags, the charged rounds and the SEP
   parameters must stay byte-identical; a digest here is never
   regenerated to make a change pass. *)

module Mask = Repro_graph.Mask
module Part = Repro_shortcut.Part
module Pa = Repro_shortcut.Pa
module Primitives = Repro_shortcut.Primitives

let ints l = String.concat "," (List.map string_of_int l)

let add_metrics b m =
  Printf.bprintf b "r=%d m=%d [" (Metrics.rounds m) (Metrics.messages m);
  List.iter (fun (l, r) -> Printf.bprintf b "%s=%d;" l r) (Metrics.breakdown m);
  Buffer.add_string b "]\n"

let add_decompose b ?profile ~seed g =
  let m = Metrics.create () in
  let r = Build.decompose ?profile ~seed g ~metrics:m in
  let dec = r.Build.decomposition in
  List.iter
    (fun (k, bag) -> Printf.bprintf b "%s:%s\n" (ints k) (ints (Array.to_list bag)))
    (List.sort compare (List.map (fun k -> (k, Decomposition.bag dec k)) (Decomposition.keys dec)));
  Printf.bprintf b "max_t=%d levels=%d " r.Build.max_t r.Build.levels;
  add_metrics b m

let digest f =
  let b = Buffer.create 4096 in
  f b;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* the pipeline_ptk3 benchmark's generator at n = 512 *)
let ptk3 ~seed n =
  Generators.bidirect ~seed ~max_weight:9 (Generators.partial_k_tree ~seed n 3 ~keep:0.6)

let test_golden_ptk3 () =
  Alcotest.(check string) "ptk3 n=512, 8 seeds" "0000d12cc16b6453fe8996585b382f2a"
    (digest (fun b ->
         for seed = 1 to 8 do
           add_decompose b ~seed (ptk3 ~seed 512)
         done))

let test_golden_zoo () =
  Alcotest.(check string) "stress zoo" "98a1d8121a81f596cda9d68269375aa2"
    (digest (fun b ->
         for seed = 0 to 29 do
           add_decompose b ~seed (instance seed)
         done))

let test_golden_paper () =
  Alcotest.(check string) "paper profile" "da209a62ae8fbe4cf8a969248ab56498"
    (digest (fun b ->
         let profile = Separator.paper_profile in
         add_decompose b ~profile ~seed:1 (Generators.partial_k_tree ~seed:3 60 2 ~keep:0.5);
         add_decompose b ~profile ~seed:2 (Generators.grid 30 30)))

(* Matching.run's top-down separator recursion, replayed through the
   public API: every (separator, t, cost), then the run itself *)
let add_matching b ~seed g =
  let gs = Digraph.skeleton g in
  let queue = Queue.create () in
  Queue.add (Array.make (Digraph.n gs) true, 0) queue;
  while not (Queue.is_empty queue) do
    let mask, level = Queue.pop queue in
    if Mask.size mask > 16 (* Matching's leaf threshold *) then begin
      let cost = Primitives.cost_zero () in
      let sep, t =
        Separator.find_separator ~seed:(seed + level) gs ~mask ~x_mask:mask ~cost
      in
      Printf.bprintf b "%d:%s t=%d d=%d c=%d\n" level (ints sep) t
        cost.Primitives.dilation cost.Primitives.congestion;
      let labels, count = Traversal.components_mask gs (Mask.without mask sep) in
      for c = 0 to count - 1 do
        Queue.add (Array.map (fun l -> l = c) labels, level + 1) queue
      done
    end
  done;
  let m = Metrics.create () in
  let r = Matching.run ~seed g ~metrics:m in
  Printf.bprintf b "size=%d aug=%d levels=%d " r.Matching.size r.Matching.augmentations
    r.Matching.levels;
  add_metrics b m

let test_golden_matching () =
  Alcotest.(check string) "matching separators" "5f02db213e1fdd865b77421d04124907"
    (digest (fun b ->
         add_matching b ~seed:1 (Generators.subdivide (Generators.k_tree ~seed:1 40 2));
         add_matching b ~seed:2
           (Generators.subdivide (Generators.partial_k_tree ~seed:2 60 3 ~keep:0.5))))

(* part-wise aggregation and its charge basis on vertex-disjoint and on
   shared-boundary collections *)
let pa_collections seed =
  let n = 20 + (seed mod 40) in
  let g = Generators.gnp_connected ~seed n 0.12 in
  let rng = Random.State.make [| seed; 0x9a |] in
  let mask = Array.init n (fun _ -> Random.State.float rng 1.0 > 0.3) in
  let labels, count = Traversal.components_mask g mask in
  let comps = Array.make count [] in
  for v = n - 1 downto 0 do
    if labels.(v) >= 0 then comps.(labels.(v)) <- v :: comps.(labels.(v))
  done;
  (* every removed vertex joins each component it touches *)
  let shared = Array.map (fun c -> ref c) comps in
  for v = 0 to n - 1 do
    if labels.(v) < 0 then
      List.iter
        (fun c -> if not (List.mem v !(shared.(c))) then shared.(c) := !(shared.(c)) @ [ v ])
        (List.sort_uniq compare
           (List.filter_map
              (fun u -> if labels.(u) >= 0 then Some labels.(u) else None)
              (Array.to_list (Digraph.neighbors g v))))
  done;
  ( g,
    [
      Array.map Array.of_list comps;
      Array.map (fun r -> Array.of_list !r) shared;
    ] )

let test_golden_pa () =
  Alcotest.(check string) "part-wise aggregation" "b79a5eac446fe1d045a6e53c541c91a5"
    (digest (fun b ->
         for seed = 0 to 19 do
           let g, collections = pa_collections seed in
           List.iter
             (fun members ->
               if Array.length members > 0 then begin
                 let parts = Part.make g members in
                 let m = Metrics.create () in
                 let results, st =
                   Pa.aggregate parts ~op:( + )
                     ~value:(fun ~part ~vertex -> (31 * part) + vertex)
                     ~metrics:m ~label:"pa"
                 in
                 Printf.bprintf b "%s d=%d l=%d u=%d w=%d " (ints (Array.to_list results))
                   st.Pa.depth st.Pa.max_load st.Pa.rounds_up st.Pa.rounds_down;
                 add_metrics b m;
                 let m = Metrics.create () in
                 let basis = Primitives.basis parts ~metrics:m in
                 Printf.bprintf b "basis d=%d l=%d n=%d " basis.Primitives.depth
                   basis.Primitives.max_load basis.Primitives.n;
                 add_metrics b m
               end)
             collections
         done))

let () =
  Alcotest.run "repro_stress"
    [
      ( "stress",
        [
          Alcotest.test_case "distance labeling zoo" `Slow test_dl_stress;
          Alcotest.test_case "matching zoo" `Slow test_matching_stress;
          Alcotest.test_case "girth zoo" `Slow test_girth_stress;
          Alcotest.test_case "cdl zoo" `Slow test_cdl_stress;
          Alcotest.test_case "separator profiles" `Slow test_separator_profiles_stress;
          Alcotest.test_case "scale n=1024" `Slow test_scale_1024;
          Alcotest.test_case "scale n=4096" `Slow test_scale_4096;
        ] );
      ( "golden",
        [
          Alcotest.test_case "decompose ptk3 n=512" `Quick test_golden_ptk3;
          Alcotest.test_case "decompose stress zoo" `Quick test_golden_zoo;
          Alcotest.test_case "decompose paper profile" `Quick test_golden_paper;
          Alcotest.test_case "matching separators" `Quick test_golden_matching;
          Alcotest.test_case "part-wise aggregation" `Quick test_golden_pa;
        ] );
    ]
