module Digraph = Repro_graph.Digraph
module Traversal = Repro_graph.Traversal
module Metrics = Repro_congest.Metrics
module Part = Repro_shortcut.Part
module Primitives = Repro_shortcut.Primitives

type report = { decomposition : Decomposition.t; max_t : int; levels : int }

(* A recursion node holds O(|G_x|) words: no array is n-sized. *)
type node = {
  key : Decomposition.key;
  members : int array;  (* V(G_x), ascending *)
  inherited : int array;  (* B_p(x) cap V(G_x), ascending *)
}

(* [a] without [b]; both ascending, [b] a subset of [a] *)
let diff a b =
  let j = ref 0 in
  let out = ref [] in
  Array.iter
    (fun v ->
      if !j < Array.length b && b.(!j) = v then incr j else out := v :: !out)
    a;
  Array.of_list (List.rev !out)

let decompose ?(profile = Separator.practical_profile) ?(seed = 0) ?tree g ~metrics =
  let skeleton = if Digraph.directed g then Digraph.skeleton g else g in
  let n = Digraph.n skeleton in
  if n = 0 then invalid_arg "Build.decompose: empty graph";
  if not (Traversal.is_connected skeleton) then
    invalid_arg "Build.decompose: graph must be connected";
  let tree = match tree with Some t -> t | None -> Primitives.bfs_tree skeleton in
  let bags = ref [] in
  let max_t = ref 0 in
  let levels = ref 0 in
  let level = ref [ { key = []; members = Array.init n Fun.id; inherited = [||] } ] in
  while !level <> [] do
    incr levels;
    let next = ref [] in
    let level_costs = ref [] in
    List.iter
      (fun node ->
        let size = Array.length node.members in
        (* G'_x = G_x minus the inherited bag, relabeled: vertex i of [sub]
           is gprime.(i) *)
        let gprime = diff node.members node.inherited in
        if Array.length gprime = 0 then
          (* the bag is the inherited one, i.e. the whole subgraph *)
          bags := (node.key, node.members) :: !bags
        else begin
          let sub = Digraph.induced_sorted skeleton gprime in
          let cost = Primitives.cost_zero () in
          let s, t_used =
            Separator.find_separator_induced ~profile
              ~seed:(seed + (17 * List.length node.key) + List.fold_left ( + ) 0 node.key)
              ~tree skeleton ~sub ~global:gprime ~cost
          in
          level_costs := cost :: !level_costs;
          if t_used > !max_t then max_t := t_used;
          let bag =
            Array.of_list
              (List.sort_uniq compare
                 (List.map (fun v -> gprime.(v)) s @ Array.to_list node.inherited))
          in
          if size <= max 4 (2 * Array.length bag) then
            (* leaf: the bag is the whole subgraph *)
            bags := (node.key, node.members) :: !bags
          else begin
            bags := (node.key, bag) :: !bags;
            (* children: components of G_x - B_x = G'_x - S'_x, each with
               its adjacent B_x vertices *)
            let residual = Array.make (Digraph.n sub) true in
            List.iter (fun v -> residual.(v) <- false) s;
            let labels, count = Traversal.components_mask sub residual in
            let comps = Array.make count [] in
            for v = Digraph.n sub - 1 downto 0 do
              let l = labels.(v) in
              if l >= 0 then comps.(l) <- gprime.(v) :: comps.(l)
            done;
            (* a component's bag neighbours, read off its own vertices'
               edges: one pass over the edges leaving G'_x - S'_x *)
            let in_bag = Hashtbl.create (Array.length bag) in
            Array.iter (fun b -> Hashtbl.replace in_bag b ()) bag;
            let touched = Array.make count [] in
            Array.iteri
              (fun v l ->
                if l >= 0 then
                  let u = gprime.(v) in
                  Array.iter
                    (fun ei ->
                      let w = Digraph.dst_of skeleton (Digraph.edge skeleton ei) u in
                      if Hashtbl.mem in_bag w then touched.(l) <- w :: touched.(l))
                    (Digraph.out_edges skeleton u))
              labels;
            Array.iteri
              (fun idx comp ->
                let inherited = Array.of_list (List.sort_uniq compare touched.(idx)) in
                let members = Array.of_list (List.merge compare comp (Array.to_list inherited)) in
                let key = node.key @ [ idx ] in
                if Array.length members >= size then
                  (* no shrink: close off as a leaf to guarantee termination *)
                  bags := (key, members) :: !bags
                else next := { key; members; inherited } :: !next)
              comps;
            if count > 0 then begin
              let ccd_parts = Part.make skeleton (Array.map Array.of_list comps) in
              let b = Primitives.basis ~tree ccd_parts ~metrics:(Metrics.create ()) in
              Metrics.add metrics ~label:"treedec/ccd" (Primitives.lemma8_rounds b)
            end
          end
        end)
      !level;
    if !level_costs <> [] then
      Metrics.add metrics ~label:"treedec/level" (Primitives.schedule_disjoint !level_costs);
    level := !next
  done;
  let decomposition = Decomposition.create g !bags in
  { decomposition; max_t = !max_t; levels = !levels }
