(* Crash-consistent checkpoints.

   A checkpoint is a self-contained, line-oriented text file: a version
   header, a kind tag, free-form metadata, the full graph source (so a
   resume needs no other input), the valuation, an optional engine
   snapshot, and a trailing FNV-1a checksum over everything before it.
   Writes go through a temp file + fsync + rename, so a crash at any
   byte offset leaves either the previous checkpoint or a file the
   reader rejects — never a silently divergent resume.  [Store] manages
   a directory of numbered checkpoints and falls back past torn or
   corrupt files to the newest one that still verifies.  A file that
   verifies but names another format version is never skipped as torn:
   it is an error, because falling back past it would silently resume
   from older state (or from none). *)

module Snapshot = Tpdf_sim.Snapshot

let version_line = "tpdf-ckpt 2"

type t = {
  kind : string;
  meta : (string * string) list;
  graph_src : string;
  valuation : (string * int) list;
  snapshot : Snapshot.t option;
}

let meta t key = List.assoc_opt key t.meta

(* ---------- FNV-1a (64-bit) ---------- *)

let fnv_offset = 0xcbf29ce484222325L
let fnv_prime = 0x100000001b3L

let fnv1a64 s =
  let h = ref fnv_offset in
  String.iter
    (fun c ->
      h := Int64.logxor !h (Int64.of_int (Char.code c));
      h := Int64.mul !h fnv_prime)
    s;
  !h

(* ---------- printing ---------- *)

(* Strings are emitted OCaml-escaped in double quotes (newlines and
   quotes stay on one line); floats in hexadecimal so every bit round
   trips; everything else as bare atoms separated by single spaces. *)

let pr_str b s =
  Buffer.add_char b '"';
  Buffer.add_string b (String.escaped s);
  Buffer.add_char b '"'

let pr_float b f = Buffer.add_string b (Printf.sprintf "%h" f)

let pr_token b = function
  | Snapshot.Data s ->
      Buffer.add_string b "tok d ";
      pr_str b s;
      Buffer.add_char b '\n'
  | Snapshot.Ctrl s ->
      Buffer.add_string b "tok c ";
      pr_str b s;
      Buffer.add_char b '\n'

let pr_record b (f : Snapshot.firing) =
  Buffer.add_string b "record ";
  pr_str b f.f_actor;
  Buffer.add_string b (Printf.sprintf " %d %d " f.f_index f.f_phase);
  pr_str b f.f_mode;
  Buffer.add_char b ' ';
  pr_float b f.f_start_ms;
  Buffer.add_char b ' ';
  pr_float b f.f_finish_ms;
  Buffer.add_char b '\n'

let pr_snapshot b (s : Snapshot.t) =
  Buffer.add_string b "now ";
  pr_float b s.now;
  Buffer.add_char b '\n';
  Buffer.add_string b
    (Printf.sprintf "armed %d\nheapseq %d\n"
       (if s.armed then 1 else 0)
       s.heap_seq);
  Buffer.add_string b (Printf.sprintf "actors %d\n" (List.length s.actors));
  List.iter
    (fun (a : Snapshot.actor_state) ->
      Buffer.add_string b "actor ";
      pr_str b a.a_name;
      Buffer.add_string b
        (Printf.sprintf " %d %d %d " a.a_count a.a_completed
           (if a.a_busy then 1 else 0));
      pr_str b a.a_last_mode;
      Buffer.add_char b '\n')
    s.actors;
  Buffer.add_string b (Printf.sprintf "channels %d\n" (List.length s.channels));
  List.iter
    (fun (c : Snapshot.channel_state) ->
      Buffer.add_string b
        (Printf.sprintf "channel %d %d %d %d %d\n" c.c_id
           (List.length c.c_tokens) c.c_debt c.c_dropped c.c_max_occ);
      List.iter (pr_token b) c.c_tokens)
    s.channels;
  Buffer.add_string b (Printf.sprintf "events %d\n" (List.length s.heap));
  List.iter
    (fun (e : Snapshot.heap_entry) ->
      Buffer.add_string b "event ";
      pr_float b e.h_time;
      Buffer.add_string b (Printf.sprintf " %d " e.h_seq);
      match e.h_event with
      | Snapshot.Tick actor ->
          Buffer.add_string b "tick ";
          pr_str b actor;
          Buffer.add_char b '\n'
      | Snapshot.Complete { c_actor; c_outputs; c_record } ->
          Buffer.add_string b "complete ";
          pr_str b c_actor;
          Buffer.add_string b
            (Printf.sprintf " %d\n" (List.length c_outputs));
          List.iter
            (fun (port, toks) ->
              Buffer.add_string b
                (Printf.sprintf "out %d %d\n" port (List.length toks));
              List.iter (pr_token b) toks)
            c_outputs;
          pr_record b c_record)
    s.heap

let valid_atom s =
  s <> "" && String.for_all (fun c -> c > ' ' && c <> '"' && c <> '\\') s

let to_string t =
  if not (valid_atom t.kind) then
    invalid_arg "Ckpt.to_string: kind must be a non-empty bare atom";
  let b = Buffer.create 4096 in
  Buffer.add_string b version_line;
  Buffer.add_char b '\n';
  Buffer.add_string b ("kind " ^ t.kind ^ "\n");
  List.iter
    (fun (k, v) ->
      if not (valid_atom k) then
        invalid_arg "Ckpt.to_string: meta key must be a bare atom";
      Buffer.add_string b ("meta " ^ k ^ " ");
      pr_str b v;
      Buffer.add_char b '\n')
    t.meta;
  let graph_lines = String.split_on_char '\n' t.graph_src in
  (* a trailing newline yields a final empty element; drop it so the
     reconstruction (join + "\n") is stable *)
  let graph_lines =
    match List.rev graph_lines with
    | "" :: rev -> List.rev rev
    | _ -> graph_lines
  in
  Buffer.add_string b (Printf.sprintf "graph %d\n" (List.length graph_lines));
  List.iter
    (fun ln ->
      Buffer.add_string b ln;
      Buffer.add_char b '\n')
    graph_lines;
  Buffer.add_string b
    (Printf.sprintf "valuation %d\n" (List.length t.valuation));
  List.iter
    (fun (name, v) ->
      if not (valid_atom name) then
        invalid_arg "Ckpt.to_string: parameter name must be a bare atom";
      Buffer.add_string b (Printf.sprintf "bind %s %d\n" name v))
    t.valuation;
  (match t.snapshot with
  | None -> Buffer.add_string b "snapshot 0\n"
  | Some s ->
      Buffer.add_string b "snapshot 1\n";
      pr_snapshot b s);
  Buffer.add_string b "end\n";
  let body = Buffer.contents b in
  body ^ Printf.sprintf "checksum %016Lx\n" (fnv1a64 body)

(* ---------- parsing ---------- *)

exception Parse of string

let fail fmt = Printf.ksprintf (fun m -> raise (Parse m)) fmt

(* Split a line into fields: bare atoms and double-quoted,
   OCaml-escaped strings, separated by spaces. *)
let split_fields ln =
  let n = String.length ln in
  let rec go i acc =
    if i >= n then List.rev acc
    else if ln.[i] = ' ' then go (i + 1) acc
    else if ln.[i] = '"' then begin
      let fin = ref (-1) in
      let esc = ref false in
      let j = ref (i + 1) in
      while !fin < 0 && !j < n do
        (if !esc then esc := false
         else if ln.[!j] = '\\' then esc := true
         else if ln.[!j] = '"' then fin := !j);
        incr j
      done;
      if !fin < 0 then fail "unterminated string";
      let raw = String.sub ln (i + 1) (!fin - i - 1) in
      let v =
        try Scanf.unescaped raw
        with Scanf.Scan_failure _ | Failure _ -> fail "bad string escape"
      in
      go (!fin + 1) (v :: acc)
    end
    else begin
      let j = ref i in
      while !j < n && ln.[!j] <> ' ' do
        incr j
      done;
      go !j (String.sub ln i (!j - i) :: acc)
    end
  in
  go 0 []

type cursor = { lines : string array; mutable pos : int }

let next_line cur =
  if cur.pos >= Array.length cur.lines then fail "unexpected end of file"
  else begin
    let ln = cur.lines.(cur.pos) in
    cur.pos <- cur.pos + 1;
    ln
  end

let next_fields cur = split_fields (next_line cur)

let int_of s = try int_of_string s with _ -> fail "expected integer, got %S" s

let float_of s =
  try float_of_string s with _ -> fail "expected float, got %S" s

let bool_of s =
  match s with
  | "0" -> false
  | "1" -> true
  | _ -> fail "expected 0 or 1, got %S" s

let expect_count cur key =
  match next_fields cur with
  | [ k; n ] when k = key ->
      let n = int_of n in
      if n < 0 then fail "negative %s count" key else n
  | _ -> fail "expected %S line" key

let rec times n f acc = if n = 0 then List.rev acc else times (n - 1) f (f () :: acc)

let parse_token cur =
  match next_fields cur with
  | [ "tok"; "d"; s ] -> Snapshot.Data s
  | [ "tok"; "c"; s ] -> Snapshot.Ctrl s
  | _ -> fail "expected token line"

let parse_record cur : Snapshot.firing =
  match next_fields cur with
  | [ "record"; actor; index; phase; mode; start_ms; finish_ms ] ->
      {
        f_actor = actor;
        f_index = int_of index;
        f_phase = int_of phase;
        f_mode = mode;
        f_start_ms = float_of start_ms;
        f_finish_ms = float_of finish_ms;
      }
  | _ -> fail "expected \"record\" line"

let parse_snapshot cur : Snapshot.t =
  let now =
    match next_fields cur with
    | [ "now"; f ] -> float_of f
    | _ -> fail "expected \"now\" line"
  in
  let armed =
    match next_fields cur with
    | [ "armed"; b ] -> bool_of b
    | _ -> fail "expected \"armed\" line"
  in
  let heap_seq =
    match next_fields cur with
    | [ "heapseq"; n ] -> int_of n
    | _ -> fail "expected \"heapseq\" line"
  in
  let n_actors = expect_count cur "actors" in
  let actors =
    times n_actors
      (fun () : Snapshot.actor_state ->
        match next_fields cur with
        | [ "actor"; name; count; completed; busy; last_mode ] ->
            {
              a_name = name;
              a_count = int_of count;
              a_completed = int_of completed;
              a_busy = bool_of busy;
              a_last_mode = last_mode;
            }
        | _ -> fail "expected \"actor\" line")
      []
  in
  let n_channels = expect_count cur "channels" in
  let channels =
    times n_channels
      (fun () : Snapshot.channel_state ->
        match next_fields cur with
        | [ "channel"; id; n_tokens; debt; dropped; max_occ ] ->
            let n_tokens = int_of n_tokens in
            if n_tokens < 0 then fail "negative token count";
            let tokens = times n_tokens (fun () -> parse_token cur) [] in
            {
              c_id = int_of id;
              c_tokens = tokens;
              c_debt = int_of debt;
              c_dropped = int_of dropped;
              c_max_occ = int_of max_occ;
            }
        | _ -> fail "expected \"channel\" line")
      []
  in
  let n_events = expect_count cur "events" in
  let heap =
    times n_events
      (fun () : Snapshot.heap_entry ->
        match next_fields cur with
        | [ "event"; time; seq; "tick"; actor ] ->
            {
              h_time = float_of time;
              h_seq = int_of seq;
              h_event = Snapshot.Tick actor;
            }
        | [ "event"; time; seq; "complete"; actor; n_out ] ->
            let n_out = int_of n_out in
            if n_out < 0 then fail "negative output count";
            let outputs =
              times n_out
                (fun () ->
                  match next_fields cur with
                  | [ "out"; port; n_toks ] ->
                      let n_toks = int_of n_toks in
                      if n_toks < 0 then fail "negative token count";
                      (int_of port, times n_toks (fun () -> parse_token cur) [])
                  | _ -> fail "expected \"out\" line")
                []
            in
            let record = parse_record cur in
            {
              h_time = float_of time;
              h_seq = int_of seq;
              h_event =
                Snapshot.Complete { c_actor = actor; c_outputs = outputs; c_record = record };
            }
        | _ -> fail "expected \"event\" line")
      []
  in
  { now; armed; heap_seq; actors; channels; heap }

(* A file whose checksum verifies but whose header is not
   [version_line]: written whole, by another format version. *)
exception Foreign of string

let foreign_message header =
  Printf.sprintf
    "checkpoint format %S, this build reads %S only (no migration)" header
    version_line

let parse s =
  try
    (* Locate and verify the trailing checksum first: everything up to
       and including the newline before the checksum line is the body it
       covers.  A torn write truncates the file, so either the marker is
       missing or the digest no longer matches — both rejected here. *)
    let marker = "\nchecksum " in
    let mpos =
      let rec last_from i best =
        match String.index_from_opt s i '\n' with
        | None -> best
        | Some j ->
            let best =
              if
                j + String.length marker <= String.length s
                && String.sub s j (String.length marker) = marker
              then Some j
              else best
            in
            last_from (j + 1) best
      in
      match last_from 0 None with
      | Some j -> j
      | None -> fail "missing checksum line"
    in
    let body = String.sub s 0 (mpos + 1) in
    let rest = String.sub s (mpos + 1) (String.length s - mpos - 1) in
    (* the terminating newline is part of the format: a write torn one
       byte before the end must not verify *)
    if String.length rest = 0 || rest.[String.length rest - 1] <> '\n' then
      fail "checkpoint not newline-terminated";
    let digest =
      match split_fields (String.trim rest) with
      | [ "checksum"; hex ] -> (
          if String.length hex <> 16 then fail "malformed checksum digest";
          try Int64.of_string ("0x" ^ hex)
          with _ -> fail "malformed checksum digest")
      | _ -> fail "malformed checksum line"
    in
    if
      String.exists (fun c -> c = '\n') (String.trim rest)
      || not (String.for_all (fun c -> c <> '\000') rest)
    then fail "trailing garbage after checksum";
    if fnv1a64 body <> digest then fail "checksum mismatch";
    let lines =
      match String.split_on_char '\n' body with
      | ls -> (
          match List.rev ls with
          | "" :: rev -> Array.of_list (List.rev rev)
          | _ -> Array.of_list ls)
    in
    let cur = { lines; pos = 0 } in
    (match next_line cur with
    | l when l = version_line -> ()
    | l -> raise (Foreign l));
    let kind =
      match next_fields cur with
      | [ "kind"; k ] -> k
      | _ -> fail "expected \"kind\" line"
    in
    let rec metas acc =
      match split_fields cur.lines.(cur.pos) with
      | "meta" :: _ -> (
          match next_fields cur with
          | [ "meta"; k; v ] -> metas ((k, v) :: acc)
          | _ -> fail "malformed \"meta\" line")
      | _ -> List.rev acc
      | exception Invalid_argument _ -> fail "unexpected end of file"
    in
    let meta = metas [] in
    let n_graph = expect_count cur "graph" in
    let graph_lines = times n_graph (fun () -> next_line cur) [] in
    let graph_src = String.concat "\n" graph_lines ^ "\n" in
    let n_bind = expect_count cur "valuation" in
    let valuation =
      times n_bind
        (fun () ->
          match next_fields cur with
          | [ "bind"; name; v ] -> (name, int_of v)
          | _ -> fail "expected \"bind\" line")
        []
    in
    let snapshot =
      match next_fields cur with
      | [ "snapshot"; "0" ] -> None
      | [ "snapshot"; "1" ] -> Some (parse_snapshot cur)
      | _ -> fail "expected \"snapshot\" line"
    in
    (match next_line cur with
    | "end" -> ()
    | _ -> fail "expected \"end\" line");
    if cur.pos <> Array.length cur.lines then fail "trailing lines before checksum";
    Ok { kind; meta; graph_src; valuation; snapshot }
  with
  | Parse m -> Error (`Corrupt ("checkpoint: " ^ m))
  | Foreign header -> Error (`Foreign header)

let message = function
  | `Corrupt m -> m
  | `Foreign header -> "checkpoint: " ^ foreign_message header

let of_string s = Result.map_error message (parse s)

(* ---------- crash-consistent IO ---------- *)

(* The temp-file + fsync + rename protocol lives in [Tpdf_util.Atomic_file]
   (shared with the obs-layer metric exporter); a crash at any point leaves
   either the previous or the new complete checkpoint. *)
let write_string path data = Tpdf_util.Atomic_file.write path data

let write path t = write_string path (to_string t)

(* An unreadable file is as good as a torn one. *)
let read_parsed path =
  match In_channel.with_open_bin path In_channel.input_all with
  | s -> parse s
  | exception Sys_error m -> Error (`Corrupt ("checkpoint: " ^ m))

let read path = Result.map_error message (read_parsed path)

(* ---------- checkpoint directories ---------- *)

module Store = struct
  type ckpt = t
  type nonrec t = { dir : string }

  let rec mkdir_p dir =
    if not (Sys.file_exists dir) then begin
      let parent = Filename.dirname dir in
      if parent <> dir then mkdir_p parent;
      try Unix.mkdir dir 0o755
      with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
    end

  let open_dir dir =
    mkdir_p dir;
    { dir }

  let dir t = t.dir
  let path t seq = Filename.concat t.dir (Printf.sprintf "ckpt-%08d.tpdfckpt" seq)

  let save t ~seq ckpt =
    let p = path t seq in
    write p ckpt;
    p

  let seqs t =
    Sys.readdir t.dir |> Array.to_list
    |> List.filter_map (fun name ->
           match Scanf.sscanf_opt name "ckpt-%8d.tpdfckpt%!" (fun n -> n) with
           | Some n when path t n = Filename.concat t.dir name -> Some n
           | _ -> None)
    |> List.sort compare

  let latest t =
    let rec pick = function
      | [] -> Ok None
      | seq :: older -> (
          let p = path t seq in
          match read_parsed p with
          | Ok c -> Ok (Some (seq, p, c))
          | Error (`Corrupt _) -> pick older
          | Error (`Foreign header) ->
              Error (p ^ ": " ^ foreign_message header))
    in
    pick (List.rev (seqs t))
end
