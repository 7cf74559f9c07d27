type subtree = { root : int; vertices : int list }

(* A working tree: a root plus the set of its vertices; adjacency comes
   from [tree_adj] filtered to the member set. *)
type work = { wroot : int; members : (int, unit) Hashtbl.t }

let work_of_list root vs =
  let members = Hashtbl.create (List.length vs) in
  List.iter (fun v -> Hashtbl.replace members v ()) vs;
  { wroot = root; members }

let vertices w = Hashtbl.fold (fun v () acc -> v :: acc) w.members []

let weight mu w = Hashtbl.fold (fun v () acc -> acc + mu v) w.members 0

(* children adjacency of [w] when rooted at [r] *)
let rooted_children tree_adj w r =
  let parent = Hashtbl.create (Hashtbl.length w.members) in
  let children = Hashtbl.create (Hashtbl.length w.members) in
  let add_child p c =
    match Hashtbl.find_opt children p with
    | Some l -> l := c :: !l
    | None -> Hashtbl.add children p (ref [ c ])
  in
  let queue = Queue.create () in
  Hashtbl.replace parent r r;
  Queue.add r queue;
  while not (Queue.is_empty queue) do
    let v = Queue.pop queue in
    List.iter
      (fun u ->
        if Hashtbl.mem w.members u && not (Hashtbl.mem parent u) then begin
          Hashtbl.replace parent u v;
          add_child v u;
          Queue.add u queue
        end)
      (tree_adj v)
  done;
  let child_list v =
    match Hashtbl.find_opt children v with Some l -> !l | None -> []
  in
  child_list

(* weight of each subtree when rooted at r *)
let subtree_weights tree_adj mu w r =
  let child_list = rooted_children tree_adj w r in
  let weights = Hashtbl.create (Hashtbl.length w.members) in
  let rec go v =
    let total =
      List.fold_left (fun acc c -> acc + go c) (mu v) (child_list v)
    in
    Hashtbl.replace weights v total;
    total
  in
  ignore (go r);
  (child_list, weights)

(* weighted center: start at the root and descend into any child whose
   subtree weighs more than half the total *)
let center tree_adj mu w =
  let child_list, weights = subtree_weights tree_adj mu w w.wroot in
  let total = Hashtbl.find weights w.wroot in
  let rec descend v =
    match
      List.find_opt (fun c -> 2 * Hashtbl.find weights c > total) (child_list v)
    with
    | Some c -> descend c
    | None -> v
  in
  descend w.wroot

let collect_subtree child_list v =
  let acc = ref [] in
  let rec go u =
    acc := u :: !acc;
    List.iter go (child_list u)
  in
  go v;
  !acc

let run ~tree_adj ~vertices:all ~root ~mu ~lo ~hi =
  if lo < 1 then invalid_arg "Split.run: lo must be >= 1";
  if hi < 3 * lo then invalid_arg "Split.run: need hi >= 3 * lo";
  let final = ref [] in
  let rec process w =
    let total = weight mu w in
    if total <= hi then final := { root = w.wroot; vertices = vertices w } :: !final
    else begin
      let c = center tree_adj mu w in
      let child_list, weights = subtree_weights tree_adj mu w c in
      let heavy, light =
        List.partition (fun v -> Hashtbl.find weights v >= lo) (child_list c)
      in
      let heavy_trees =
        List.map (fun v -> work_of_list v (collect_subtree child_list v)) heavy
      in
      let light_weight =
        mu c + List.fold_left (fun acc v -> acc + Hashtbl.find weights v) 0 light
      in
      let remainder_vertices =
        c :: List.concat_map (fun v -> collect_subtree child_list v) light
      in
      if light_weight < lo then begin
        (* merge the light remainder into one heavy subtree through c *)
        match heavy_trees with
        | [] -> assert false (* total > hi >= lo yet everything light *)
        | first :: rest ->
            let merged =
              work_of_list c (remainder_vertices @ vertices first)
            in
            List.iter process (merged :: rest)
      end
      else begin
        (* group the light children into consecutive chunks of weight in
           [lo, 2 lo), sharing c as their root (Fig. 1(b)) *)
        let groups = ref [] and current = ref [] and current_w = ref 0 in
        List.iter
          (fun y ->
            current := y :: !current;
            current_w := !current_w + Hashtbl.find weights y;
            if !current_w >= lo then begin
              groups := !current :: !groups;
              current := [];
              current_w := 0
            end)
            light;
        (match (!current, !groups) with
        | [], _ -> ()
        | leftover, g :: rest -> groups := (leftover @ g) :: rest
        | leftover, [] -> groups := [ leftover ]);
        let group_trees =
          match !groups with
          | [] -> [ work_of_list c [ c ] ] (* no light children: c alone *)
          | groups ->
              List.map
                (fun ys ->
                  work_of_list c
                    (c :: List.concat_map (fun y -> collect_subtree child_list y) ys))
                groups
        in
        List.iter process (heavy_trees @ group_trees)
      end
    end
  in
  process (work_of_list root all);
  !final
