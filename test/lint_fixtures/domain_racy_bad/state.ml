(* A module-level ref with a named mutator: every node's step closure
   writes the same cell, sharing state outside the charged messages. *)
let total = ref 0
let record k = total := !total + k
let read () = !total
