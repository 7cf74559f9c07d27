(** Deterministic hash-table iteration (the shared fix for the
    [hashtbl-order] lint rule).

    [Hashtbl] iteration order is nondeterministic across insertion
    histories; these helpers sort bindings by a caller-supplied key
    comparison. This module is the single audited place in
    [lib/congest] that touches raw [Hashtbl.fold]. *)

(** All bindings, sorted by key under [compare]. *)
val bindings : ('k, 'v) Hashtbl.t -> compare:('k -> 'k -> int) -> ('k * 'v) list

val iter_sorted : ('k, 'v) Hashtbl.t -> compare:('k -> 'k -> int) -> ('k -> 'v -> unit) -> unit

val fold_sorted :
  ('k, 'v) Hashtbl.t -> compare:('k -> 'k -> int) -> ('k -> 'v -> 'acc -> 'acc) -> 'acc -> 'acc
