(* The step callback writes State.total through State.record: a
   node-locality violation through a direct mutator call. *)
let run graph =
  let init _node = 0 in
  let step node st _inbox = State.record node; st in
  My_engine.run graph ~init ~step ~active:(fun _ _ -> true)
