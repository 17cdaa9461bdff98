(* Qualified interface scan.

   Every value a [lib/**/*.mli] exports must be reached, by its resolved
   path, from an implementation outside its own module under [lib/],
   [bin/], [bench/], [perfbench/] or [examples/]. The scan reads the typed
   trees that [dune build @check] leaves in [_build/default], so a
   reference counts only where the compiler resolved it to that value:
   comments, strings, shadowing locals and same-named values of other
   modules never count, and every spelling of the path does
   ([Core.Serve_checkpoint.v], [Obs.Store.v], [open M], [M.( ... )],
   nested [Engine.Stepper.v]). A module passed whole to a functor or
   packed as a first-class value counts as reached; [include M] re-exports
   [M]'s values under the including module's path.

   Every optional parameter [?l] of such a value must likewise be
   supplied ([~l:x] or [?l:x]) by an application outside the value's own
   module under those directories; an argument the compiler fills in for
   an omitted one does not count. A value alias ([let f = M.f]) passes
   the labels its callers supply on to its target.

   A value with no such caller, or a parameter with no such setter, fails
   the scan unless the allowlist [tools/iface_scan.allow] names it with a
   reason ([M.v] for a value, [M.v?l] for a parameter). An allowlist entry
   without a reason, naming no exported value or parameter, or naming one
   that now has a production caller or setter fails too, so the list
   cannot rot.

   Run it at the repository root through [tools/iface_scan.sh], which
   builds the typed trees first. Exit 0: clean; 1: a finding; 2: no
   typed trees. *)

open Typedtree

let build_root = "_build/default"
let allow_file = "tools/iface_scan.allow"
let caller_dirs = [ "lib"; "bin"; "bench"; "perfbench"; "examples" ]

let rec files_under dir acc =
  match Sys.readdir dir with
  | exception Sys_error _ -> acc
  | names ->
      Array.fold_left
        (fun acc name ->
          let path = Filename.concat dir name in
          if Sys.is_directory path then files_under path acc else path :: acc)
        acc names

let top_dir source =
  match String.index_opt source '/' with
  | Some i -> String.sub source 0 i
  | None -> source

(* Every typed tree with extension [ext] whose source lives under [dirs],
   paired with its source path. *)
let typed_trees ext dirs =
  List.concat_map
    (fun dir ->
      files_under (Filename.concat build_root dir) []
      |> List.filter (fun f -> Filename.check_suffix f ext)
      |> List.filter_map (fun f ->
             let cmt = Cmt_format.read_cmt f in
             match cmt.Cmt_format.cmt_sourcefile with
             | Some src when List.mem (top_dir src) dirs -> Some (src, cmt)
             | _ -> None))
    dirs
  |> List.sort_uniq (fun (a, _) (b, _) -> String.compare a b)

(* Module paths are strings "Unit.M.N"; [aliases] maps an alias to the
   path it names, [includes] a module to each module it includes and
   [value_aliases] a value bound as [let v = M.w] to [M.w]'s path. *)
let aliases : (string, string) Hashtbl.t = Hashtbl.create 256
let includes : (string, string) Hashtbl.t = Hashtbl.create 16
let value_aliases : (string, string) Hashtbl.t = Hashtbl.create 16

let rec resolve_whole depth s =
  match Hashtbl.find_opt aliases s with
  | Some target when depth < 64 -> resolve (depth + 1) target
  | _ -> s

(* Resolve every prefix, so an alias reached through another alias
   ([Core.Obs.Store] via [Core.Obs = Nu_obs]) lands on the unit. *)
and resolve depth s =
  String.split_on_char '.' s
  |> List.fold_left
       (fun acc seg ->
         resolve_whole depth (if acc = "" then seg else acc ^ "." ^ seg))
       ""

let unit_of s =
  match String.index_opt s '.' with Some i -> String.sub s 0 i | None -> s

(* [locals] maps a module identifier bound in this file to its path. *)
let rec raw_path locals (p : Path.t) =
  match p with
  | Pident id when Ident.persistent id -> Some (Ident.name id)
  | Pident id -> Hashtbl.find_opt locals (Ident.unique_name id)
  | Pdot (p, s) -> Option.map (fun q -> q ^ "." ^ s) (raw_path locals p)
  | Papply _ | Pextra_ty _ -> None

let rec ident_of me =
  match me.mod_desc with
  | Tmod_ident (p, _) -> Some p
  | Tmod_constraint (me, _, _, _) -> ident_of me
  | _ -> None

let rec structure_of me =
  match me.mod_desc with
  | Tmod_structure s -> Some s
  | Tmod_constraint (me, _, _, _) -> structure_of me
  | _ -> None

(* Pass 1: record the module aliases, includes and value aliases of one
   implementation and return its table of local module identifiers. *)
let collect_aliases (cmt : Cmt_format.cmt_infos) =
  let locals = Hashtbl.create 16 in
  let rec structure prefix str =
    List.iter
      (fun item ->
        match item.str_desc with
        | Tstr_module mb -> binding prefix mb
        | Tstr_recmodule mbs -> List.iter (binding prefix) mbs
        | Tstr_include { incl_mod; _ } ->
            Option.bind (ident_of incl_mod) (raw_path locals)
            |> Option.iter (Hashtbl.add includes prefix)
        | Tstr_value (_, vbs) ->
            List.iter
              (fun vb ->
                match (vb.vb_pat.pat_desc, vb.vb_expr.exp_desc) with
                | Tpat_var (id, _), Texp_ident (p, _, _) ->
                    raw_path locals p
                    |> Option.iter
                         (Hashtbl.replace value_aliases
                            (prefix ^ "." ^ Ident.name id))
                | _ -> ())
              vbs
        | _ -> ())
      str.str_items
  and binding prefix mb =
    match mb.mb_id with
    | None -> ()
    | Some id -> (
        let path = prefix ^ "." ^ Ident.name id in
        Hashtbl.replace locals (Ident.unique_name id) path;
        match ident_of mb.mb_expr with
        | Some p ->
            Option.iter (Hashtbl.replace aliases path) (raw_path locals p)
        | None -> Option.iter (structure path) (structure_of mb.mb_expr))
  in
  (match cmt.cmt_annots with
  | Implementation str -> structure cmt.cmt_modname str
  | _ -> ());
  locals

(* The values and whole modules the callers reach, and the optional
   parameters they supply, as "Unit.M.v?l". *)
type reach = {
  values : (string, unit) Hashtbl.t;
  modules : (string, unit) Hashtbl.t;
  labels : (string, unit) Hashtbl.t;
}

let split_last s =
  match String.rindex_opt s '.' with
  | None -> None
  | Some i ->
      Some (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))

(* The values [s] stands for in the modules its module includes. *)
let included s =
  match split_last s with
  | None -> []
  | Some (m, v) ->
      List.map (fun inc -> resolve 0 inc ^ "." ^ v) (Hashtbl.find_all includes m)

let rec mark_value r s =
  if not (Hashtbl.mem r.values s) then begin
    Hashtbl.replace r.values s ();
    List.iter (mark_value r) (included s)
  end

(* A label supplied to [s] is supplied to whatever [s] includes or
   aliases, too. *)
let rec mark_label r s l =
  let k = s ^ "?" ^ l in
  if not (Hashtbl.mem r.labels k) then begin
    Hashtbl.replace r.labels k ();
    let aliased = Hashtbl.find_opt value_aliases s in
    List.iter
      (fun s -> mark_label r s l)
      (included s @ Option.to_list (Option.map (resolve 0) aliased))
  end

let rec mark_module r s =
  if not (Hashtbl.mem r.modules s) then begin
    Hashtbl.replace r.modules s ();
    List.iter
      (fun inc -> mark_module r (resolve 0 inc))
      (Hashtbl.find_all includes s)
  end

(* Pass 2: everything one implementation reaches outside its own unit. *)
let collect_reach r (cmt : Cmt_format.cmt_infos) locals =
  let own = cmt.cmt_modname in
  let target p =
    match raw_path locals p with
    | Some s ->
        let s = resolve 0 s in
        if unit_of s = own then None else Some s
    | None -> None
  in
  let open Tast_iterator in
  let it =
    {
      default_iterator with
      expr =
        (fun sub e ->
          (match e.exp_desc with
          | Texp_ident (p, _, _) -> Option.iter (mark_value r) (target p)
          | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, args) ->
              Option.iter
                (fun s ->
                  List.iter
                    (function
                      | Asttypes.Optional l, Some a
                        when a.exp_loc <> Location.none ->
                          mark_label r s l
                      | _ -> ())
                    args)
                (target p)
          | _ -> ());
          default_iterator.expr sub e);
      binding_op =
        (fun sub b ->
          Option.iter (mark_value r) (target b.bop_op_path);
          default_iterator.binding_op sub b);
      (* An alias, an [open M] or an [include M] names a module without
         reaching all of it; any other module path (a functor argument,
         a packed module) does. *)
      module_binding =
        (fun sub mb ->
          if ident_of mb.mb_expr = None then
            default_iterator.module_binding sub mb);
      open_declaration =
        (fun sub od ->
          if ident_of od.open_expr = None then
            default_iterator.open_declaration sub od);
      structure_item =
        (fun sub item ->
          match item.str_desc with
          | Tstr_include { incl_mod; _ } when ident_of incl_mod <> None -> ()
          | _ -> default_iterator.structure_item sub item);
      module_expr =
        (fun sub me ->
          (match me.mod_desc with
          | Tmod_ident (p, _) -> Option.iter (mark_module r) (target p)
          | _ -> ());
          default_iterator.module_expr sub me);
    }
  in
  match cmt.cmt_annots with
  | Implementation str -> it.structure it str
  | _ -> ()

let rec module_reached r s =
  Hashtbl.mem r.modules s
  || match split_last s with Some (m, _) -> module_reached r m | None -> false

let reached r path = Hashtbl.mem r.values path || module_reached r path

(* A module reached whole may supply any label of its values. *)
let supplied r path l =
  Hashtbl.mem r.labels (path ^ "?" ^ l) || module_reached r path

(* An exported value: its resolved path, its interface file, its name
   below the unit ([M.v] inside a nested module), its line and its
   optional parameters. *)
type export = {
  path : string;
  mli : string;
  name : string;
  line : int;
  params : string list;
}

(* The allowlist's name for a value: "lib/dir/m.mli:M.v"; one of its
   parameters appends "?l". *)
let key e = e.mli ^ ":" ^ e.name

(* A value or one of its optional parameters, by its allowlist key. *)
type item = {
  id : string;
  export : export;
  label : string option;
  ok : bool;  (* a production caller reaches or supplies it *)
}

let rec optional_labels ty =
  match Types.get_desc ty with
  | Tarrow (Optional l, _, rest, _) -> l :: optional_labels rest
  | Tarrow (_, _, rest, _) -> optional_labels rest
  | _ -> []

let exports (src, (cmt : Cmt_format.cmt_infos)) =
  let rec signature prefix local sg =
    List.concat_map
      (fun item ->
        match item.sig_desc with
        | Tsig_value vd ->
            let v = vd.val_name.txt in
            [
              {
                path = prefix ^ "." ^ v;
                mli = src;
                name = local ^ v;
                line = vd.val_loc.loc_start.pos_lnum;
                params = optional_labels vd.val_val.val_type;
              };
            ]
        | Tsig_module
            {
              md_id = Some id;
              md_type = { mty_desc = Tmty_signature sg; _ };
              _;
            } ->
            let m = Ident.name id in
            signature (prefix ^ "." ^ m) (local ^ m ^ ".") sg
        | _ -> [])
      sg.sig_items
  in
  match cmt.cmt_annots with
  | Interface sg -> signature cmt.cmt_modname "" sg
  | _ -> []

(* Allowlist lines: "lib/dir/m.mli:M.v  reason"; '#' starts a comment.
   Each entry comes back as (line number, key, reason). *)
let read_allowlist file =
  In_channel.with_open_text file In_channel.input_all
  |> String.split_on_char '\n'
  |> List.mapi (fun i l -> (i + 1, String.trim l))
  |> List.filter (fun (_, l) -> l <> "" && l.[0] <> '#')
  |> List.map (fun (n, l) ->
         let l = String.map (fun c -> if c = '\t' then ' ' else c) l in
         match String.index_opt l ' ' with
         | Some i ->
             let rest = String.sub l i (String.length l - i) in
             (n, String.sub l 0 i, String.trim rest)
         | None -> (n, l, ""))

let () =
  if not (Sys.file_exists build_root) then begin
    prerr_endline "iface_scan: no _build/default; run dune build @check first";
    exit 2
  end;
  let impls = typed_trees ".cmt" caller_dirs in
  (* Every alias must be known before any path is resolved. *)
  let locals = List.map (fun (_, cmt) -> collect_aliases cmt) impls in
  let prod =
    { values = Hashtbl.create 4096; modules = Hashtbl.create 64;
      labels = Hashtbl.create 256 }
  in
  List.iter2 (fun (_, cmt) locals -> collect_reach prod cmt locals) impls locals;
  let vals = List.concat_map exports (typed_trees ".cmti" [ "lib" ]) in
  let allow = read_allowlist allow_file in
  let fail = ref false in
  let error fmt =
    fail := true;
    Printf.printf fmt
  in
  (* One item per value and per optional parameter, by its allowlist
     key, with whether a production caller reaches or supplies it. *)
  let items =
    List.concat_map
      (fun e ->
        { id = key e; export = e; label = None; ok = reached prod e.path }
        :: List.map
             (fun l ->
               {
                 id = key e ^ "?" ^ l;
                 export = e;
                 label = Some l;
                 ok = supplied prod e.path l;
               })
             e.params)
      (List.sort compare vals)
  in
  let allowed = Hashtbl.create 16 in
  List.iter
    (fun (n, k, reason) ->
      match List.find_opt (fun it -> it.id = k) items with
      | _ when reason = "" ->
          error "%s:%d: allowlist entry %s gives no reason\n" allow_file n k
      | None ->
          error
            "%s:%d: stale allowlist entry %s: no such interface value or \
             parameter\n"
            allow_file n k
      | Some { ok = true; label; _ } ->
          error "%s:%d: stale allowlist entry %s: it has a production %s\n"
            allow_file n k
            (if label = None then "caller" else "setter")
      | Some _ -> Hashtbl.replace allowed k reason)
    allow;
  (* Allowlisted and flagged counts of [items]. *)
  let report items =
    List.fold_left
      (fun (a, f) it ->
        if it.ok then (a, f)
        else
          match (Hashtbl.find_opt allowed it.id, it.label) with
          | Some reason, _ ->
              Printf.printf "allowed: %s  %s\n" it.id reason;
              (a + 1, f)
          | None, None ->
              error "%s:%d: val %s has no caller outside its own module\n"
                it.export.mli it.export.line it.export.name;
              (a, f + 1)
          | None, Some l ->
              error
                "%s:%d: val %s: ?%s is set by no caller outside its own \
                 module\n"
                it.export.mli it.export.line it.export.name l;
              (a, f + 1))
      (0, 0) items
  in
  let values, params = List.partition (fun it -> it.label = None) items in
  let av, fv = report values in
  let ap, fp = report params in
  Printf.printf "%d interface values, %d allowlisted, %d without a caller\n"
    (List.length values) av fv;
  Printf.printf "%d optional parameters, %d allowlisted, %d without a setter\n"
    (List.length params) ap fp;
  exit (if !fail then 1 else 0)
