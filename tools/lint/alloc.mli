(** Allocation-discipline pass over [@@hot] functions (stage 3 of the
    interprocedural analysis, DESIGN.md §3f).

    Statically flags every allocation site reachable in the body of a
    [[@@hot]]-annotated binding — closures, tuple/record/variant/array
    boxing, float boxing, partial application, and allocating callees
    resolved through the call graph — turning the dynamic EObs
    [Gc.minor_words = 0] assertion into a per-site static guarantee.
    Branches guarded by the [tracing]/[audit] flags are excluded (the
    runtime guarantee is conditional on tracing being off), as are a
    binding's leading parameters (the top-level closure is built once
    at module initialization). *)

type kind =
  | Closure  (** [fun]/[function]/local function/[lazy] *)
  | Tuple
  | Record
  | Variant  (** non-constant constructor or polymorphic variant *)
  | Array_lit
  | Float_box  (** [+.]-family operator application *)
  | Partial_app  (** under-applied unlabelled in-repo callee *)
  | Alloc_call  (** deny-listed external or in-repo [may_allocate] callee *)
  | Unknown_call  (** unresolved external / computed function: assumed allocating *)

val kind_name : kind -> string

type site = { a_kind : kind; a_line : int; a_col : int; a_what : string }

type hot_report = { h_sym : Callgraph.sym; h_line : int; h_sites : site list }

(** [may_allocate cg] — the transitive "calling this binding may
    allocate" predicate, closed over the call graph by fixpoint.
    Mutable-value bindings and preallocated constructor/tuple/record/
    constant values are never propagated through (their allocation
    happened at module initialization). *)
val may_allocate : Callgraph.t -> Callgraph.sym -> bool

(** One report per [@@hot] binding, in deterministic (file, source)
    order, with its allocation sites in source order. *)
val analyze : Callgraph.t -> hot_report list

(** [hot-alloc] findings: one per allocation site in a [@@hot] body. *)
val findings : Callgraph.t -> Lint_core.finding list

val findings_of_reports : hot_report list -> Lint_core.finding list

(** The machine-readable report ([_build/default/analysis/alloc.json]). *)
val to_json : hot_report list -> string
