(* Chrome trace-event JSON (the "JSON Object Format" with a traceEvents
   array), loadable by chrome://tracing and by Perfetto.  Virtual-time
   events go to pid 1, wall-clock events to pid 2; each track becomes a
   named thread.  Timestamps are microseconds. *)

let escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let json_float f =
  if not (Float.is_finite f) then "0"
  else if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else Printf.sprintf "%.6g" f

let json_of_arg = function
  | Event.Str s -> "\"" ^ escape s ^ "\""
  | Event.Int i -> string_of_int i
  | Event.Float f -> json_float f

let json_of_args args =
  "{"
  ^ String.concat ","
      (List.map (fun (k, v) -> "\"" ^ escape k ^ "\":" ^ json_of_arg v) args)
  ^ "}"

let pid_of = function Event.Virtual -> 1 | Event.Wall -> 2

(* Microsecond timestamps with sub-microsecond precision preserved. *)
let us ms = Printf.sprintf "%.4f" (ms *. 1000.0)

let add_meta buf ~pid ~tid ~what ~name =
  Buffer.add_string buf
    (Printf.sprintf
       "{\"ph\":\"M\",\"pid\":%d%s,\"name\":\"%s\",\"args\":{\"name\":\"%s\"}}"
       pid
       (match tid with None -> "" | Some tid -> Printf.sprintf ",\"tid\":%d" tid)
       what (escape name))

let json_of_events ?(process_names = ("simulation (virtual time)", "analyses (wall clock)")) events =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  let first = ref true in
  let sep () =
    if !first then first := false else Buffer.add_string buf ",\n"
  in
  (* Stable thread ids per (pid, track), in order of first appearance. *)
  let tids = Hashtbl.create 16 in
  let next_tid = ref 0 in
  let tid_of pid track =
    let key = (pid, track) in
    match Hashtbl.find_opt tids key with
    | Some tid -> tid
    | None ->
        incr next_tid;
        let tid = !next_tid in
        Hashtbl.replace tids key tid;
        sep ();
        add_meta buf ~pid ~tid:(Some tid) ~what:"thread_name" ~name:track;
        tid
  in
  let seen_pids = Hashtbl.create 2 in
  let pid_of_event clock =
    let pid = pid_of clock in
    if not (Hashtbl.mem seen_pids pid) then begin
      Hashtbl.replace seen_pids pid ();
      sep ();
      let vname, wname = process_names in
      add_meta buf ~pid ~tid:None ~what:"process_name"
        ~name:(match clock with Event.Virtual -> vname | Event.Wall -> wname)
    end;
    pid
  in
  List.iter
    (fun (ev : Event.t) ->
      let pid = pid_of_event ev.clock in
      let tid = tid_of pid ev.track in
      let common =
        Printf.sprintf
          "\"name\":\"%s\",\"cat\":\"%s\",\"pid\":%d,\"tid\":%d,\"ts\":%s"
          (escape ev.name) (escape ev.cat) pid tid (us ev.ts_ms)
      in
      let args = json_of_args ev.args in
      sep ();
      (match ev.payload with
      | Event.Span dur ->
          Buffer.add_string buf
            (Printf.sprintf "{\"ph\":\"X\",%s,\"dur\":%s,\"args\":%s}" common
               (us dur) args)
      | Event.Instant ->
          Buffer.add_string buf
            (Printf.sprintf "{\"ph\":\"i\",\"s\":\"t\",%s,\"args\":%s}" common
               args)
      | Event.Counter v ->
          (* Counter series take their value from args; keep any extra args
             out of the series to avoid one lane per argument. *)
          Buffer.add_string buf
            (Printf.sprintf "{\"ph\":\"C\",%s,\"args\":{\"value\":%s}}" common
               (json_float v))))
    events;
  Buffer.add_string buf "]}";
  Buffer.contents buf

let write_file path events =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (json_of_events events))
