(** The SPLIT procedure of Section 3.3 (step 2): decompose a spanning
    tree into split subtrees of weight in [lo, hi], pairwise
    vertex-disjoint except possibly at their roots.

    The weight of a subtree is the sum of [mu v] over its vertices
    ([mu_X] in the paper: 1 if the vertex is in the target set X).
    Repeatedly: find the weighted center, detach heavy child subtrees,
    regroup the light remainder around the center (Fig. 1 of the paper);
    recurse on pieces still heavier than [hi]. *)

type subtree = { root : int; vertices : int list }

(** [run ~tree_adj ~vertices ~root ~mu ~lo ~hi] splits the tree on
    [vertices] whose tree edges are [tree_adj v] (the tree neighbours of
    [v]). Requires [1 <= lo] and [3 * lo <= hi]. Every returned subtree
    has weight at most [hi]; subtrees of weight below [lo] can only arise
    when the whole input tree is that light. The union of the returned
    vertex sets covers the input tree. The order of [vertices] fixes the
    order of the returned vertex lists. *)
val run :
  tree_adj:(int -> int list) ->
  vertices:int list ->
  root:int ->
  mu:(int -> int) ->
  lo:int ->
  hi:int ->
  subtree list
