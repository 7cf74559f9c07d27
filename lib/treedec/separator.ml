module Digraph = Repro_graph.Digraph
module Mask = Repro_graph.Mask
module Traversal = Repro_graph.Traversal
module Metrics = Repro_congest.Metrics
module Bfs_tree = Repro_congest.Bfs_tree
module Part = Repro_shortcut.Part
module Mvc = Repro_shortcut.Mvc
module Primitives = Repro_shortcut.Primitives

type profile = {
  name : string;
  threshold_factor : int;
  iter_num : int;
  iter_den : int;
  pairs : int;
  balance_num : int;
  balance_den : int;
  split_lo_den : int;
  split_hi_den : int;
  trials : int;
  centralized_base : bool;
}

let paper_profile =
  {
    name = "paper";
    threshold_factor = 200;
    iter_num = 301;
    iter_den = 300;
    pairs = 95;
    balance_num = 14399;
    balance_den = 14400;
    split_lo_den = 12;
    split_hi_den = 4;
    trials = 16;
    centralized_base = false;
  }

let practical_profile =
  {
    name = "practical";
    threshold_factor = 4;
    iter_num = 3;
    iter_den = 2;
    pairs = 24;
    balance_num = 3;
    balance_den = 4;
    split_lo_den = 12;
    split_hi_den = 4;
    trials = 6;
    centralized_base = true;
  }

let mu_of ~mask ~x_mask v = if mask.(v) && x_mask.(v) then 1 else 0

let weight_of_mask g ~mask ~x_mask =
  let total = ref 0 in
  for v = 0 to Digraph.n g - 1 do
    total := !total + mu_of ~mask ~x_mask v
  done;
  !total

let is_balanced g ~mask ~x_mask ~profile sep =
  let total = weight_of_mask g ~mask ~x_mask in
  let mask' = Array.copy mask in
  List.iter (fun v -> mask'.(v) <- false) sep;
  let labels, count = Traversal.components_mask g mask' in
  let weights = Array.make (max 1 count) 0 in
  Array.iteri
    (fun v l -> if l >= 0 then weights.(l) <- weights.(l) + mu_of ~mask:mask' ~x_mask v)
    labels;
  Array.for_all (fun w -> profile.balance_den * w <= profile.balance_num * total) weights

let masked_vertices = Mask.vertices

(* BFS spanning tree of the masked subgraph, as tree adjacency lists *)
let spanning_tree_adj g ~mask ~root =
  let n = Digraph.n g in
  let adj = Array.make n [] in
  let visited = Array.make n false in
  visited.(root) <- true;
  let queue = Queue.create () in
  Queue.add root queue;
  while not (Queue.is_empty queue) do
    let v = Queue.pop queue in
    let scan ei =
      let e = Digraph.edge g ei in
      let grab u =
        if u <> v && mask.(u) && not visited.(u) then begin
          visited.(u) <- true;
          adj.(v) <- u :: adj.(v);
          adj.(u) <- v :: adj.(u);
          Queue.add u queue
        end
      in
      grab e.Digraph.src;
      grab e.Digraph.dst
    in
    Array.iter scan (Digraph.out_edges g v);
    if Digraph.directed g then Array.iter scan (Digraph.in_edges g v)
  done;
  adj

let heaviest_component g ~mask ~x_mask =
  let labels, count = Traversal.components_mask g mask in
  if count = 0 then None
  else begin
    let weights = Array.make count 0 in
    Array.iteri
      (fun v l -> if l >= 0 then weights.(l) <- weights.(l) + mu_of ~mask ~x_mask v)
      labels;
    let best = ref 0 in
    Array.iteri (fun c w -> if w > weights.(!best) then best := c) weights;
    Some (Array.map (fun l -> l = !best) labels)
  end


(* Centralized base case: the subgraph [g] is small enough to gather at
   one node (charged as a broadcast); a bag of its min-fill decomposition
   is a balanced separator of width-sized cost. *)
let centralized_base_separator g ~x_mask ~profile =
  let n = Digraph.n g in
  if n = 0 then []
  else begin
    (* min-fill gives the best bags but costs ~n^3 locally; fall back to
       min-degree beyond 150 vertices (local computation is free in the
       CONGEST model, but keep the simulator fast) *)
    let dec =
      if n <= 150 then Heuristic.min_fill g
      else Heuristic.of_order g (Heuristic.min_degree_order g)
    in
    let total = Mask.size x_mask in
    let evaluate bag =
      let rest = Array.make n true in
      Array.iter (fun v -> rest.(v) <- false) bag;
      let labels, count = Traversal.components_mask g rest in
      let weights = Array.make (max 1 count) 0 in
      Array.iteri
        (fun v l -> if l >= 0 && x_mask.(v) then weights.(l) <- weights.(l) + 1)
        labels;
      Array.fold_left max 0 weights
    in
    let best = ref None in
    List.iter
      (fun key ->
        let bag = Decomposition.bag dec key in
        let worst = evaluate bag in
        match !best with
        | Some (w, _) when w <= worst -> ()
        | _ -> best := Some (worst, bag))
      (Decomposition.keys dec);
    match !best with
    | Some (worst, bag) when profile.balance_den * worst <= profile.balance_num * total ->
        Array.to_list bag
    | _ -> List.filter (fun v -> x_mask.(v)) (List.init n Fun.id)
  end

(* The subgraph one SEP call works on, relabeled: [sub] is the
   communication graph [g] induced on [global] (ascending), vertex [i] of
   [sub] standing for [global.(i)]. The relabeling keeps every vertex and
   edge order, so the search runs on [sub] in O(|sub|) host time and
   takes the same steps as on [g]. Only the charges need [g]: parts go
   back to its ids to be priced on its BFS tree. *)
type region = {
  g : Digraph.t;
  tree : Bfs_tree.tree;
  scratch : Metrics.t;  (* [Primitives.basis] wants one; a given tree charges nothing *)
  sub : Digraph.t;
  global : int array;
  local : (int, int) Hashtbl.t;  (* inverse of [global] *)
  x_mask : bool array;  (* X, over [sub] *)
  central : int list Lazy.t;  (* centralized_base_separator of [sub] *)
}

let region ~profile ?tree g ~sub ~global ~x_mask =
  let local = Hashtbl.create (Array.length global) in
  Array.iteri (fun i v -> Hashtbl.replace local v i) global;
  {
    g;
    tree = (match tree with Some t -> t | None -> Primitives.bfs_tree g);
    scratch = Metrics.create ();
    sub;
    global;
    local;
    x_mask;
    central = lazy (centralized_base_separator sub ~x_mask ~profile);
  }

let of_mask ~profile ?tree g ~mask ~x_mask =
  let global = Array.of_list (masked_vertices mask) in
  region ~profile ?tree g ~sub:(Digraph.induced_sorted g global) ~global
    ~x_mask:(Array.map (fun v -> x_mask.(v)) global)

let to_global r vs = List.map (fun v -> r.global.(v)) vs

let basis_of r parts = Primitives.basis ~tree:r.tree parts ~metrics:r.scratch

(* the connected part [vs] (in [sub] ids), priced as a part of [g] *)
let whole r vs = Part.make r.g [| Array.of_list (to_global r vs) |]

(* one SEP attempt on all of [r.sub]; the separator is in [sub] ids *)
let sep_in ~profile ~rng r ~t ~cost =
  let g = r.sub and x_mask = r.x_mask in
  let mask = Array.make (Digraph.n g) true in
  let mu_total = Mask.size x_mask in
  let all = List.init (Digraph.n g) Fun.id in
  if all = [] then Some []
  else if mu_total <= profile.threshold_factor * t * t then begin
    (* step 1: the subgraph is small; either output X itself (paper) or a
       centrally computed balanced bag (practical profile) *)
    let b = basis_of r (whole r all) in
    if profile.centralized_base then begin
      Primitives.cost_bct cost b ~h:(Digraph.m g);
      Some (List.sort compare (Lazy.force r.central))
    end
    else begin
      Primitives.cost_lemma8 cost b;
      Some (List.filter (fun v -> x_mask.(v)) all)
    end
  end
  else begin
    let iterations =
      max 1 (((profile.iter_num * t) + profile.iter_den - 1) / profile.iter_den)
    in
    let lo = max 1 (mu_total / (profile.split_lo_den * t)) in
    let hi = max (3 * lo) (mu_total / (profile.split_hi_den * t)) in
    let local v = Hashtbl.find r.local v in
    (* split trees are parts of [g]: SPLIT runs on [g]'s ids *)
    let tree_parts trees =
      Part.make r.g
        (Array.of_list (List.map (fun st -> Array.of_list st.Split.vertices) trees))
    in
    let r_star = ref [] in
    let saved = ref [] (* (mask_i, split trees) per iteration *) in
    let current = ref mask in
    let result = ref None in
    (try
       for _i = 1 to iterations do
         let mask_i = !current in
         let members = masked_vertices mask_i in
         if members = [] then raise Exit;
         (* step 2: spanning tree + SPLIT *)
         let root = List.hd members in
         let tree_adj = spanning_tree_adj g ~mask:mask_i ~root in
         Primitives.cost_lemma8 cost (basis_of r (whole r members));
         let trees =
           Split.run
             ~tree_adj:(fun v -> to_global r tree_adj.(local v))
             (* descending ids: the order of SPLIT's output lists, which
                prices its parts, follows the order they go in *)
             ~vertices:(List.rev (to_global r members))
             ~root:r.global.(root)
             ~mu:(fun v -> mu_of ~mask:mask_i ~x_mask (local v))
             ~lo ~hi
         in
         let split_basis = basis_of r (tree_parts trees) in
         Primitives.cost_pa cost split_basis
           ~inv:(Primitives.ceil_log2 (max 2 t) * Primitives.ceil_log2 (Digraph.n r.g));
         saved := (mask_i, trees) :: !saved;
         (* step 3: accumulate roots, test balance *)
         let roots = List.map (fun st -> local st.Split.root) trees in
         r_star := List.sort_uniq compare (roots @ !r_star);
         Primitives.cost_lemma8 cost split_basis;
         if is_balanced g ~mask ~x_mask ~profile !r_star then begin
           result := Some !r_star;
           raise Exit
         end;
         (* next graph: heaviest component of G_i - R_i *)
         let mask' = Array.copy mask_i in
         List.iter (fun v -> mask'.(v) <- false) roots;
         match heaviest_component g ~mask:mask' ~x_mask with
         | None -> raise Exit
         | Some comp -> current := comp
       done
     with Exit -> ());
    match !result with
    | Some s -> Some (List.sort compare s)
    | None ->
        (* step 4: sampled pairwise vertex cuts *)
        let z = ref !r_star in
        List.iter
          (fun (mask_i, trees) ->
            let arr = Array.of_list trees in
            let nt = Array.length arr in
            if nt >= 2 then begin
              Primitives.cost_mvc cost (basis_of r (tree_parts trees)) ~h:profile.pairs
                ~t:(t + 1);
              for _p = 1 to profile.pairs do
                let a = Random.State.int rng nt and b = Random.State.int rng nt in
                if a <> b then begin
                  let t1 = arr.(a) and t2 = arr.(b) in
                  match
                    Mvc.min_cut g ~mask:mask_i
                      ~sources:(List.map local t1.Split.vertices)
                      ~sinks:(List.map local t2.Split.vertices) ~limit:t
                  with
                  | Some cut -> z := cut @ !z
                  | None -> ()
                end
              done
            end)
          !saved;
        let z = List.sort_uniq compare !z in
        if is_balanced g ~mask ~x_mask ~profile z then Some z else None
  end

let sep ?(profile = practical_profile) ?tree ~rng g ~mask ~x_mask ~t ~cost =
  let r = of_mask ~profile ?tree g ~mask ~x_mask in
  Option.map (to_global r) (sep_in ~profile ~rng r ~t ~cost)

let find_in ~profile ~seed r ~cost =
  let rng = Random.State.make [| seed; Digraph.n r.g; 0x5e9 |] in
  let rec try_t t =
    let rec attempts k =
      if k = 0 then None
      else
        match sep_in ~profile ~rng r ~t ~cost with
        | Some s -> Some s
        | None -> attempts (k - 1)
    in
    match attempts profile.trials with
    | Some s -> (s, t)
    | None -> try_t (2 * t)
  in
  let s, t = try_t 2 in
  (* Practical-profile fallback: SEP separators have Theta(t^2) size by
     design; when one swallows more than a quarter of a small subgraph
     (useless for the decomposition recursion), gather the subgraph and
     take a min-fill bag instead — charged as the broadcast it costs. The
     bag is computed once per call, so a step-1 result is reused here. *)
  let size = Digraph.n r.sub in
  if profile.centralized_base && size <= 512 && 4 * List.length s > size then begin
    Primitives.cost_bct cost (basis_of r (whole r (List.init size Fun.id)))
      ~h:(Digraph.m r.sub);
    let central = Lazy.force r.central in
    if List.length central < List.length s then (List.sort compare central, t) else (s, t)
  end
  else (s, t)

let find_separator ?(profile = practical_profile) ?(seed = 0) ?tree g ~mask ~x_mask ~cost =
  let r = of_mask ~profile ?tree g ~mask ~x_mask in
  let s, t = find_in ~profile ~seed r ~cost in
  (to_global r s, t)

let find_separator_induced ?(profile = practical_profile) ?(seed = 0) ?tree g ~sub ~global
    ~cost =
  let x_mask = Array.make (Digraph.n sub) true in
  find_in ~profile ~seed (region ~profile ?tree g ~sub ~global ~x_mask) ~cost
