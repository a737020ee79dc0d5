(* OpenMetrics / Prometheus text exposition over a [Metrics] registry.

   The registry's dotted names are mechanically mapped to metric
   families with labels: the per-subject suffix of a known prefix
   becomes a label value ("engine.firings.FFT" ->
   tpdf_engine_firings_total{actor="FFT"}), so a scraper sees one
   family per subsystem rather than one per actor.  Unknown names fall
   back to a sanitized family of their own.  Counters render as
   counters ("_total" sample suffix), gauges as gauges, histograms as
   summaries (quantile series + _sum/_count).  Output is sorted, so a
   given registry state renders to one canonical string. *)

let sanitize name =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> c
      | _ -> '_')
    name

let escape_label s =
  let buf = Buffer.create (String.length s + 4) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* (family, labels) for a registry name.  Injective: distinct registry
   names always map to distinct series. *)
let family_of name =
  let strip p = if String.starts_with ~prefix:p name then
      Some (String.sub name (String.length p) (String.length name - String.length p))
    else None
  in
  let try_actor p fam =
    match strip p with
    | Some rest when rest <> "" -> Some (fam, [ ("actor", rest) ])
    | _ -> None
  in
  let try_channel () =
    (* channel.e<N>.occupancy / channel.e<N>.dropped *)
    match strip "channel." with
    | Some rest -> (
        match String.index_opt rest '.' with
        | Some i ->
            let ch = String.sub rest 0 i in
            let what = String.sub rest (i + 1) (String.length rest - i - 1) in
            if ch <> "" && (what = "occupancy" || what = "dropped") then
              Some ("tpdf_channel_" ^ what, [ ("channel", ch) ])
            else None
        | None -> None)
    | None -> None
  in
  let try_supervisor () =
    (* supervisor.<what>.<actor> with a dot-free <what> *)
    match strip "supervisor." with
    | Some rest -> (
        match String.index_opt rest '.' with
        | Some i ->
            let what = String.sub rest 0 i in
            let actor = String.sub rest (i + 1) (String.length rest - i - 1) in
            if what <> "" && actor <> "" then
              Some ("tpdf_supervisor_" ^ sanitize what, [ ("actor", actor) ])
            else None
        | None -> None)
    | None -> None
  in
  let try_backend () =
    (* engine.backend.<name>: which execution backend ran (0/1 gauges) *)
    match strip "engine.backend." with
    | Some rest when rest <> "" && not (String.contains rest '.') ->
        Some ("tpdf_engine_backend", [ ("backend", rest) ])
    | _ -> None
  in
  let try_serve () =
    (* serve.tenant.<what>.<name> with a dot-free <what>; tenant names
       are dot-free by the serve daemon's naming rule *)
    match strip "serve.tenant." with
    | Some rest -> (
        match String.index_opt rest '.' with
        | Some i ->
            let what = String.sub rest 0 i in
            let tenant = String.sub rest (i + 1) (String.length rest - i - 1) in
            if what <> "" && tenant <> "" then
              Some ("tpdf_serve_tenant_" ^ sanitize what, [ ("tenant", tenant) ])
            else None
        | None -> None)
    | None -> None
  in
  let ( <|> ) a b = match a with Some _ -> a | None -> b () in
  let mapped =
    try_actor "engine.firings." "tpdf_engine_firings"
    <|> fun () ->
    try_actor "engine.firing_ms." "tpdf_engine_firing_ms"
    <|> fun () ->
    try_actor "engine.busy_ms." "tpdf_engine_busy_ms"
    <|> fun () ->
    try_actor "engine.ctrl_reads." "tpdf_engine_ctrl_reads"
    <|> fun () ->
    try_actor "engine.ticks." "tpdf_engine_ticks"
    <|> fun () ->
    try_backend ()
    <|> fun () -> try_channel ()
    <|> fun () -> try_supervisor () <|> fun () -> try_serve ()
  in
  match mapped with
  | Some fl -> fl
  | None -> ("tpdf_" ^ sanitize name, [])

let render_labels = function
  | [] -> ""
  | labels ->
      "{"
      ^ String.concat ","
          (List.map
             (fun (k, v) -> k ^ "=\"" ^ escape_label v ^ "\"")
             labels)
      ^ "}"

let fmt_float f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else Printf.sprintf "%.9g" f

type kind = Counter | Gauge | Summary

let kind_name = function
  | Counter -> "counter"
  | Gauge -> "gauge"
  | Summary -> "summary"

let render_with ~gauges metrics =
  (* family -> (kind, sample lines) *)
  let families : (string, kind * string list ref) Hashtbl.t =
    Hashtbl.create 64
  in
  let add fam kind lines =
    match Hashtbl.find_opt families fam with
    | Some (k, acc) ->
        (* A kind clash would make the exposition invalid; distinct
           kinds get distinct family names by construction, but guard
           against a registry using one dotted name both ways. *)
        if k = kind then acc := lines @ !acc
    | None -> Hashtbl.replace families fam (kind, ref lines)
  in
  List.iter
    (fun (name, v) ->
      let fam, labels = family_of name in
      add fam Counter
        [ Printf.sprintf "%s_total%s %d" fam (render_labels labels) v ])
    (Metrics.counters metrics);
  List.iter
    (fun (name, v) ->
      let fam, labels = family_of name in
      add fam Gauge
        [ Printf.sprintf "%s%s %s" fam (render_labels labels) (fmt_float v) ])
    (Metrics.gauges metrics @ gauges);
  List.iter
    (fun (name, (s : Metrics.histogram_stats)) ->
      let fam, labels = family_of name in
      let q v =
        render_labels (labels @ [ ("quantile", v) ])
      in
      add fam Summary
        [
          Printf.sprintf "%s%s %s" fam (q "0.5") (fmt_float s.Metrics.p50);
          Printf.sprintf "%s%s %s" fam (q "0.95") (fmt_float s.Metrics.p95);
          Printf.sprintf "%s_sum%s %s" fam (render_labels labels)
            (fmt_float s.Metrics.sum);
          Printf.sprintf "%s_count%s %d" fam (render_labels labels)
            s.Metrics.count;
        ])
    (Metrics.histograms metrics);
  let buf = Buffer.create 4096 in
  Hashtbl.fold (fun fam (kind, lines) acc -> (fam, kind, !lines) :: acc)
    families []
  |> List.sort compare
  |> List.iter (fun (fam, kind, lines) ->
         Buffer.add_string buf
           (Printf.sprintf "# TYPE %s %s\n" fam (kind_name kind));
         List.iter
           (fun l ->
             Buffer.add_string buf l;
             Buffer.add_char buf '\n')
           (List.sort compare lines));
  Buffer.add_string buf "# EOF\n";
  Buffer.contents buf

let render metrics = render_with ~gauges:[] metrics

(* Periodic snapshot export: rewrite [path] atomically (temp + fsync +
   rename, shared with the checkpoint layer) at most once per
   [interval_ms].  Readers always see a complete exposition. *)
module Exporter = struct
  type t = {
    path : string;
    interval_ms : float;
    metrics : Metrics.t;
    mutable last_ms : float;
  }

  let create ~path ?(interval_ms = 1000.0) metrics =
    { path; interval_ms; metrics; last_ms = neg_infinity }

  let flush t = Tpdf_util.Atomic_file.write t.path (render t.metrics)

  let tick t =
    let now = Unix.gettimeofday () *. 1000.0 in
    if now -. t.last_ms >= t.interval_ms then begin
      t.last_ms <- now;
      flush t
    end
end
