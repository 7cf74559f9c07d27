(** Distributed tree-decomposition construction (Section 3.4, Theorem 1).

    Recursively: at tree node [x] with subgraph G_x and inherited bag
    B_p(x), compute a balanced separator S'_x of G'_x = G_x - B_p(x)
    (all the G'_x of one level are vertex-disjoint, so their SEP
    instances run in parallel and are priced with Theorem 6), set
    B_x = (B_p(x) cap V(G_x)) cup S'_x, and recurse on the connected
    components of G_x - B_x, each extended with its adjacent B_x
    vertices. Recursion bottoms out when the subgraph is at most twice
    the bag size (the bag then becomes the whole subgraph). *)

type report = {
  decomposition : Decomposition.t;
  max_t : int;  (** largest SEP parameter used by any separator call *)
  levels : int;  (** recursion depth *)
}

(** [decompose ?profile ?seed ?tree g ~metrics] builds a tree
    decomposition of the connected graph [g] (its skeleton when
    directed). Rounds are charged per recursion level under
    ["treedec/level"] (separators) and ["treedec/ccd"] (component
    detection).

    Every charge is measured on one BFS tree of the skeleton, built once
    per call without charge unless given as [tree], which must then be
    [Primitives.bfs_tree] of the same skeleton (rooted at 0). Passing it
    never changes a charge. Each recursion node runs on its subgraph
    relabeled, so its host cost is O(|G_x|) plus the degrees of its
    vertices, not O(n). *)
val decompose :
  ?profile:Separator.profile ->
  ?seed:int ->
  ?tree:Repro_congest.Bfs_tree.tree ->
  Repro_graph.Digraph.t ->
  metrics:Repro_congest.Metrics.t ->
  report
