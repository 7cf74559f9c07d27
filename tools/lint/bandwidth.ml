(* Bandwidth-soundness rule (DESIGN.md §3i), run per file beside the
   single-file rules. A message module's content gets an upper bound
   [c + p*payload] from the field types of its [type t]: [int] is one
   word, [bool]/[unit]/[char] ride in the header, tuples and records
   sum, variants take the max over constructors (the tag is O(1) bits),
   and a foreign [.t] is one opaque payload. The [words] body's maximum
   charge is computed in the same form. Whether the engines charge what
   [words] returns is held at run time by the engine auditor. Purely
   syntactic: types are matched by name, so a type alias hiding an
   unbounded payload behind [int] is invisible. *)

module P = Parsetree

type lin = { c : int; p : int }

let zero = { c = 0; p = 0 }
let lin_add a b = { c = a.c + b.c; p = a.p + b.p }
let lin_max a b = { c = max a.c b.c; p = max a.p b.p }

let lin_str l =
  match (l.c, l.p) with
  | c, 0 -> string_of_int c
  | 0, 1 -> "payload"
  | 0, p -> Printf.sprintf "%d*payload" p
  | c, 1 -> Printf.sprintf "%d + payload" c
  | c, p -> Printf.sprintf "%d + %d*payload" c p

(* fold a bound over a list: [None] as soon as one element has none *)
let fold op bound l =
  List.fold_left
    (fun acc x -> match (acc, bound x) with Some a, Some b -> Some (op a b) | _ -> None)
    (Some zero) l

let rec flat (l : Longident.t) =
  match l with Lident s -> [ s ] | Ldot (q, s) -> flat q @ [ s ] | Lapply _ -> []

(* ------------------------------------------------------------------ *)
(* Content bound from the declaration of [type t] *)

let rec type_cost (ct : P.core_type) =
  match ct.ptyp_desc with
  | Ptyp_tuple l -> fold lin_add type_cost l
  | Ptyp_constr ({ txt; _ }, args) -> (
      match ((match flat txt with "Stdlib" :: rest -> rest | path -> path), args) with
      | [ "int" ], [] -> Some { c = 1; p = 0 }
      | ([ "bool" ] | [ "unit" ] | [ "char" ]), [] -> Some zero
      | [ "option" ], [ a ] -> type_cost a (* bound by the Some case *)
      | path, [] when (match List.rev path with "t" :: _ :: _ -> true | _ -> false) ->
          (* a foreign message type ([M.t], [P.Msg.t]): one opaque payload *)
          Some { c = 0; p = 1 }
      | _ -> None)
  | _ -> None

let fields_cost ls = fold lin_add (fun (l : P.label_declaration) -> type_cost l.pld_type) ls

let decl_cost (d : P.type_declaration) =
  match (d.ptype_kind, d.ptype_manifest) with
  | Ptype_abstract, Some m -> type_cost m
  | Ptype_record ls, _ -> fields_cost ls
  | Ptype_variant cs, _ ->
      fold lin_max
        (fun (c : P.constructor_declaration) ->
          match c.pcd_args with
          | Pcstr_tuple cts -> fold lin_add type_cost cts
          | Pcstr_record ls -> fields_cost ls)
        cs
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Maximum charge of the [words] body *)

let int_const (e : P.expression) =
  match e.pexp_desc with
  | Pexp_constant (Pconst_integer (s, None)) -> int_of_string_opt s
  | _ -> None

let scale k = function
  | Some l when k >= 0 -> Some { c = k * l.c; p = k * l.p }
  | _ -> None

let rec charge (e : P.expression) =
  match (int_const e, e.pexp_desc) with
  | Some n, _ -> if n >= 0 then Some { c = n; p = 0 } else None
  | None, Pexp_constraint (x, _) -> charge x
  | None, Pexp_ifthenelse (_, t, Some el) -> fold lin_max charge [ t; el ]
  | None, Pexp_ifthenelse (_, t, None) -> charge t
  | None, (Pexp_match (_, cases) | Pexp_function cases) ->
      fold lin_max (fun (c : P.case) -> charge c.pc_rhs) cases
  | None, Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, args) -> (
      match (flat txt, args) with
      | [ "+" ], [ (_, a); (_, b) ] -> fold lin_add charge [ a; b ]
      | [ "*" ], [ (_, a); (_, b) ] -> (
          match (int_const a, int_const b) with
          | Some k, _ -> scale k (charge b)
          | _, Some k -> scale k (charge a)
          | _ -> None)
      | path, _ :: _ when (match List.rev path with "words" :: _ :: _ -> true | _ -> false)
        ->
          (* [M.words m]: exactly one opaque payload *)
          Some { c = 0; p = 1 }
      | _ -> None)
  | _ -> None

let rec strip_params (e : P.expression) =
  match e.pexp_desc with
  | Pexp_fun (_, _, _, body) | Pexp_constraint (body, _) | Pexp_newtype (_, body) ->
      strip_params body
  | _ -> e

(* ------------------------------------------------------------------ *)
(* Message modules of one file *)

let findings ~file (structure : P.structure) =
  let out = ref [] in
  let modname = String.capitalize_ascii (Filename.remove_extension (Filename.basename file)) in
  let check prefix items =
    let is_t (d : P.type_declaration) = d.ptype_name.txt = "t" in
    let is_words (vb : P.value_binding) =
      match vb.pvb_pat.ppat_desc with Ppat_var { txt = "words"; _ } -> true | _ -> false
    in
    let find f = List.find_map (fun (it : P.structure_item) -> f it.pstr_desc) items in
    let decl = find (function P.Pstr_type (_, ds) -> List.find_opt is_t ds | _ -> None)
    and words = find (function P.Pstr_value (_, vbs) -> List.find_opt is_words vbs | _ -> None) in
    match (decl, words) with
    | Some d, Some vb -> (
        let name = String.concat "." (modname :: List.rev prefix) in
        let flag fmt =
          Printf.ksprintf
            (fun message ->
              let line = vb.pvb_loc.loc_start.pos_lnum in
              out := { Lint_core.rule = "bandwidth-sound"; file; line; col = 0; message } :: !out)
            fmt
        in
        match (decl_cost d, charge (strip_params vb.pvb_expr)) with
        | None, _ ->
            flag
              "message module `%s`: cannot derive a static size bound from its `type t` \
               (unknown field type); bound the type or justify in the baseline"
              name
        | _, None ->
            flag
              "message module `%s`: cannot derive a static charging bound from its `words` \
               body; keep it a constant/match/sum over `M.words`"
              name
        | Some content, Some charged ->
            if charged.c < content.c || charged.p < content.p then
              flag
                "message module `%s` may undercharge: static content bound is %s word(s) but \
                 `words` charges at most %s — every accepted word must be accounted"
                name (lin_str content) (lin_str charged);
            if charged.p > 1 then
              flag
                "message wrapper `%s` charges %d payloads per message; the CONGEST envelope \
                 must carry one payload plus O(1) header words"
                name charged.p)
    | _ -> ()
  in
  (* only submodules and functor arguments: a file's top level is the
     module's public surface, not a message envelope (Metrics has a
     top-level [words] accessor) *)
  let rec scan_items prefix items =
    List.iter
      (fun (it : P.structure_item) ->
        let bind (mb : P.module_binding) =
          scan_mod (Option.value mb.pmb_name.txt ~default:"_" :: prefix) mb.pmb_expr
        in
        match it.pstr_desc with
        | Pstr_module mb -> bind mb
        | Pstr_recmodule mbs -> List.iter bind mbs
        | _ -> ())
      items
  and scan_mod prefix (me : P.module_expr) =
    match me.pmod_desc with
    | Pmod_structure items ->
        check prefix items;
        scan_items prefix items
    | Pmod_functor (_, body) | Pmod_constraint (body, _) -> scan_mod prefix body
    | Pmod_apply (f, arg) ->
        scan_mod prefix f;
        scan_mod prefix arg
    | _ -> ()
  in
  scan_items [] structure;
  List.rev !out
