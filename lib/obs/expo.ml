(* OpenMetrics/Prometheus text exposition. Rendering walks the counter
   registry, histogram snapshots, the fairness tracker and the watchdog
   into one self-terminated text document, published through Store so
   scrapers never observe a torn snapshot; [validate] is the parser the
   CI smoke job runs against the file. *)

(* Metric naming scheme: internal names ("serve.admission_wait_s") are
   mangled to [a-z0-9_], prefixed "nu_", and a trailing "_s" becomes
   the conventional "_seconds" unit suffix; counters additionally get
   "_total". *)
let metric_name raw =
  let b = Buffer.create (String.length raw + 8) in
  String.iter
    (fun c ->
      match c with
      | 'a' .. 'z' | '0' .. '9' | '_' -> Buffer.add_char b c
      | 'A' .. 'Z' -> Buffer.add_char b (Char.lowercase_ascii c)
      | _ -> Buffer.add_char b '_')
    raw;
  let s = Buffer.contents b in
  let s =
    if String.length s > 2 && String.sub s (String.length s - 2) 2 = "_s" then
      String.sub s 0 (String.length s - 2) ^ "_seconds"
    else s
  in
  "nu_" ^ s

let escape_label v =
  let b = Buffer.create (String.length v) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string b "\\\\"
      | '"' -> Buffer.add_string b "\\\""
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    v;
  Buffer.contents b

let fstr v =
  if Float.is_nan v then "NaN"
  else if v = infinity then "+Inf"
  else if v = neg_infinity then "-Inf"
  else if Float.is_integer v && Float.abs v < 1e15 then
    Printf.sprintf "%.0f" v
  else Printf.sprintf "%.12g" v

let labels_str = function
  | [] -> ""
  | ls ->
      "{"
      ^ String.concat ","
          (List.map (fun (k, v) -> Printf.sprintf "%s=\"%s\"" k (escape_label v)) ls)
      ^ "}"

let sample buf name labels v =
  Buffer.add_string buf name;
  Buffer.add_string buf (labels_str labels);
  Buffer.add_char buf ' ';
  Buffer.add_string buf (fstr v);
  Buffer.add_char buf '\n'

let family buf name kind =
  Buffer.add_string buf (Printf.sprintf "# TYPE %s %s\n" name kind)

(* One histogram as the conventional cumulative-[le] series. *)
let histogram_family buf name h =
  family buf name "histogram";
  let cum = ref 0 in
  List.iter
    (fun (_, hi, c) ->
      cum := !cum + c;
      sample buf (name ^ "_bucket") [ ("le", fstr hi) ] (float_of_int !cum))
    (Histogram.buckets h);
  sample buf (name ^ "_bucket") [ ("le", "+Inf") ]
    (float_of_int (Histogram.count h));
  sample buf (name ^ "_sum") [] (Histogram.sum h);
  sample buf (name ^ "_count") [] (float_of_int (Histogram.count h))

let render_counters buf snap =
  List.iter
    (fun (raw, v) ->
      let name = metric_name raw ^ "_total" in
      family buf name "counter";
      sample buf name [] (float_of_int v))
    (Counters.to_alist snap)

let render_histograms buf hs =
  List.iter (fun (raw, h) -> histogram_family buf (metric_name raw) h) hs

let render_fairness buf f =
  let views = Fairness.view f in
  if views <> [] then begin
    let ect = "nu_tenant_ect_seconds" in
    family buf ect "summary";
    List.iter
      (fun (v : Fairness.tenant_view) ->
        match Fairness.ect_histogram f v.Fairness.v_tenant with
        | Some h when not (Histogram.is_empty h) ->
            let tenant = ("tenant", v.Fairness.v_tenant) in
            sample buf ect [ tenant; ("quantile", "0.5") ] (Histogram.p50 h);
            sample buf ect [ tenant; ("quantile", "0.99") ] (Histogram.p99 h);
            sample buf (ect ^ "_sum") [ tenant ] (Histogram.sum h);
            sample buf (ect ^ "_count") [ tenant ]
              (float_of_int (Histogram.count h))
        | Some _ | None -> ())
      views;
    let tenant_counter field name =
      let name = "nu_tenant_" ^ name ^ "_total" in
      family buf name "counter";
      List.iter
        (fun (v : Fairness.tenant_view) ->
          sample buf name
            [ ("tenant", v.Fairness.v_tenant) ]
            (float_of_int (field v)))
        views
    in
    tenant_counter (fun v -> v.Fairness.v_admitted) "admitted";
    tenant_counter (fun v -> v.Fairness.v_drained) "drained";
    tenant_counter (fun v -> v.Fairness.v_completed) "completed";
    tenant_counter (fun v -> v.Fairness.v_degraded) "degraded"
  end;
  match Fairness.jain_index f with
  | Some j ->
      family buf "nu_fairness_jain_index" "gauge";
      sample buf "nu_fairness_jain_index" [] j
  | None -> ()

let render_watch buf w =
  family buf "nu_alerts_total" "counter";
  List.iter
    (fun sev ->
      let v =
        Option.value ~default:0 (List.assoc_opt sev (Watch.by_severity w))
      in
      sample buf "nu_alerts_total" [ ("severity", sev) ] (float_of_int v))
    [ "info"; "warning"; "critical" ];
  let dets = Watch.by_detector w in
  if dets <> [] then begin
    family buf "nu_alerts_detector_total" "counter";
    List.iter
      (fun (det, v) ->
        sample buf "nu_alerts_detector_total"
          [ ("detector", det) ]
          (float_of_int v))
      dets
  end;
  family buf "nu_alerts_dropped_total" "counter";
  sample buf "nu_alerts_dropped_total" [] (float_of_int (Watch.dropped w));
  family buf "nu_health_state" "gauge";
  sample buf "nu_health_state"
    [ ("scope", "global") ]
    (float_of_int (Health.state_rank (Watch.global_state w)));
  let tenants = Watch.tenant_states w in
  if tenants <> [] then begin
    family buf "nu_tenant_health_state" "gauge";
    List.iter
      (fun (tenant, st) ->
        sample buf "nu_tenant_health_state"
          [ ("tenant", tenant) ]
          (float_of_int (Health.state_rank st)))
      tenants
  end

let render ?counters ?(histograms = []) ?fairness ?watch () =
  let buf = Buffer.create 4096 in
  (match counters with Some snap -> render_counters buf snap | None -> ());
  render_histograms buf histograms;
  (match fairness with Some f -> render_fairness buf f | None -> ());
  (match watch with Some w -> render_watch buf w | None -> ());
  Buffer.add_string buf "# EOF\n";
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Validation: the tiny OpenMetrics parser used by the CI smoke job.   *)

let is_name_start c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_' || c = ':'

let is_name_char c = is_name_start c || (c >= '0' && c <= '9')

let parse_name line pos =
  let n = String.length line in
  if pos >= n || not (is_name_start line.[pos]) then None
  else begin
    let j = ref pos in
    while !j < n && is_name_char line.[!j] do
      incr j
    done;
    Some (String.sub line pos (!j - pos), !j)
  end

let parse_labels line pos =
  (* Called with line.[pos] = '{'. Returns the position after '}'. *)
  let n = String.length line in
  let rec label pos =
    match parse_name line pos with
    | None -> Error "bad label name"
    | Some (_, pos) ->
        if pos + 1 >= n || line.[pos] <> '=' || line.[pos + 1] <> '"' then
          Error "label value must be quoted"
        else begin
          let j = ref (pos + 2) in
          let closed = ref false in
          while (not !closed) && !j < n do
            if line.[!j] = '\\' then j := !j + 2
            else if line.[!j] = '"' then closed := true
            else incr j
          done;
          if not !closed then Error "unterminated label value"
          else begin
            let pos = !j + 1 in
            if pos < n && line.[pos] = ',' then label (pos + 1)
            else if pos < n && line.[pos] = '}' then Ok (pos + 1)
            else Error "expected ',' or '}' after label"
          end
        end
  in
  label (pos + 1)

let parse_value s =
  match s with
  | "+Inf" | "-Inf" | "NaN" -> true
  | _ -> ( match float_of_string_opt s with Some _ -> true | None -> false)

(* A sample's metric family: the name minus a histogram/summary/counter
   series suffix. *)
let family_of name =
  let strip suffix =
    let ls = String.length suffix and ln = String.length name in
    if ln > ls && String.sub name (ln - ls) ls = suffix then
      Some (String.sub name 0 (ln - ls))
    else None
  in
  List.filter_map strip [ "_total"; "_bucket"; "_sum"; "_count" ]

let validate text =
  let ( let* ) = Result.bind in
  let lines = String.split_on_char '\n' text in
  let declared = Hashtbl.create 32 in
  let rec go lineno saw_eof = function
    | [] ->
        if saw_eof then Ok ()
        else Error "missing terminating \"# EOF\" line"
    | line :: rest ->
        let err fmt =
          Printf.ksprintf (fun m -> Error (Printf.sprintf "line %d: %s" lineno m)) fmt
        in
        if saw_eof then
          if line = "" && rest = [] then Ok ()
          else err "content after \"# EOF\""
        else if line = "" then go (lineno + 1) saw_eof rest
        else if line = "# EOF" then go (lineno + 1) true rest
        else if String.length line > 0 && line.[0] = '#' then begin
          match String.split_on_char ' ' line with
          | "#" :: "TYPE" :: name :: [ kind ] ->
              if
                not
                  (List.mem kind
                     [ "counter"; "gauge"; "histogram"; "summary"; "unknown" ])
              then err "unknown metric type %S" kind
              else begin
                Hashtbl.replace declared name ();
                go (lineno + 1) saw_eof rest
              end
          | "#" :: ("HELP" | "UNIT") :: name :: _ when name <> "" ->
              go (lineno + 1) saw_eof rest
          | _ -> err "malformed comment line %S" line
        end
        else begin
          match parse_name line 0 with
          | None -> err "expected metric name"
          | Some (name, pos) ->
              let* pos =
                if pos < String.length line && line.[pos] = '{' then
                  Result.map_error
                    (fun m -> Printf.sprintf "line %d: %s" lineno m)
                    (parse_labels line pos)
                else Ok pos
              in
              let value =
                if pos < String.length line && line.[pos] = ' ' then
                  (* Value, optionally followed by a timestamp. *)
                  match
                    String.split_on_char ' '
                      (String.sub line (pos + 1) (String.length line - pos - 1))
                  with
                  | [ v ] | [ v; _ ] -> Some v
                  | _ -> None
                else None
              in
              let* () =
                match value with
                | Some v when parse_value v -> Ok ()
                | Some v ->
                    err "metric %s: unparseable value %S" name v
                | None -> err "metric %s: missing value" name
              in
              let known =
                Hashtbl.mem declared name
                || List.exists (Hashtbl.mem declared) (family_of name)
              in
              if not known then
                err "metric %s has no preceding # TYPE declaration" name
              else go (lineno + 1) saw_eof rest
        end
  in
  go 1 false lines
