(** Bandwidth-soundness rule (DESIGN.md §3i). [findings ~file structure]
    reports, in source order, every message module of one parsed file
    (a submodule or functor-argument structure declaring [type t] and
    [let words]) whose [words] may undercharge the content bound derived
    from [t], charges more than one payload, or has an underivable
    bound. [file] names the findings and the modules ([Apsp.E]). *)
val findings : file:string -> Parsetree.structure -> Lint_core.finding list
