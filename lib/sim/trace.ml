module Ev = Tpdf_obs.Event

(* Both renderers run over firing records, rebuilt from the
   observability event stream: the ["firing"] spans and ["clock"] tick
   instants the engine emits.  The engine keeps no trace of its own. *)

let actors_in_order records =
  let seen = Hashtbl.create 8 in
  List.filter_map
    (fun (r : Engine.firing_record) ->
      if Hashtbl.mem seen r.Engine.actor then None
      else begin
        Hashtbl.replace seen r.Engine.actor ();
        Some r.Engine.actor
      end)
    records

let end_of_records records =
  List.fold_left
    (fun acc (r : Engine.firing_record) -> Float.max acc r.Engine.finish_ms)
    0.0 records

let gantt_of_records ?(width = 72) records =
  let buf = Buffer.create 256 in
  let end_ms = end_of_records records in
  let span = Float.max end_ms 1e-9 in
  let col t =
    min (width - 1) (int_of_float (float_of_int (width - 1) *. t /. span))
  in
  List.iter
    (fun actor ->
      let row = Bytes.make width '.' in
      List.iter
        (fun (r : Engine.firing_record) ->
          if r.Engine.actor = actor then
            if r.Engine.finish_ms <= r.Engine.start_ms then
              Bytes.set row (col r.Engine.start_ms) '|'
            else
              for i = col r.Engine.start_ms to max (col r.Engine.start_ms)
                                                  (col r.Engine.finish_ms - 1) do
                Bytes.set row i '#'
              done)
        records;
      Buffer.add_string buf (Printf.sprintf "%-12s |%s|\n" actor (Bytes.to_string row)))
    (actors_in_order records);
  Buffer.add_string buf (Printf.sprintf "%-12s  0 ms %*s %.3f ms\n" "" (width - 12) "" end_ms);
  Buffer.contents buf

let csv_of_records records =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "actor,index,phase,mode,start_ms,finish_ms\n";
  List.iter
    (fun (r : Engine.firing_record) ->
      Buffer.add_string buf
        (Printf.sprintf "%s,%d,%d,%s,%.6f,%.6f\n" r.Engine.actor r.Engine.index
           r.Engine.phase r.Engine.mode r.Engine.start_ms r.Engine.finish_ms))
    records;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Event-stream front end                                              *)
(* ------------------------------------------------------------------ *)

let int_arg args name =
  match List.assoc_opt name args with Some (Ev.Int i) -> Some i | _ -> None

let str_arg args name =
  match List.assoc_opt name args with Some (Ev.Str s) -> Some s | _ -> None

let records_of_events events =
  let records =
    List.filter_map
      (fun (ev : Ev.t) ->
        let record mode finish_ms =
          match (int_arg ev.args "index", int_arg ev.args "phase") with
          | Some index, Some phase ->
              Some
                {
                  Engine.actor = ev.track;
                  index;
                  phase;
                  mode;
                  start_ms = ev.ts_ms;
                  finish_ms;
                }
          | _ -> None
        in
        match (ev.cat, ev.payload) with
        | "firing", Ev.Span dur ->
            let mode =
              match str_arg ev.args "mode" with Some m -> m | None -> ev.name
            in
            record mode (ev.ts_ms +. dur)
        | "clock", Ev.Instant -> record "tick" ev.ts_ms
        | _ -> None)
      events
  in
  (* Presentation order: start time, then finish time.  The engine emits
     firing events in completion order; the sort is stable, so firings
     that start and finish together keep that order. *)
  List.stable_sort
    (fun (a : Engine.firing_record) (b : Engine.firing_record) ->
      compare (a.Engine.start_ms, a.Engine.finish_ms)
        (b.Engine.start_ms, b.Engine.finish_ms))
    records

let gantt_of_events ?width events = gantt_of_records ?width (records_of_events events)

let csv_of_events events = csv_of_records (records_of_events events)
