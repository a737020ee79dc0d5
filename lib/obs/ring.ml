(* Flight recorder: a fixed-capacity ring over the collector's event
   stream.  The ring sits behind [Obs]'s deliver path (an [add_sink]
   consumer), so it observes events in the exact deterministic order the
   collector delivers them — including staged captures, which reach it
   only when spliced.  Retention is therefore a pure function of the
   delivered stream: same stream, same retained events. *)

type config = {
  capacity : int;
  span_every : int;
  counter_every : int;
  keep_wall : bool;
  keep_cats : string list;
}

let default_config =
  {
    capacity = 8192;
    span_every = 1;
    counter_every = 1;
    keep_wall = false;
    keep_cats = [ "reconfig"; "txn"; "supervisor"; "fault"; "ckpt" ];
  }

let sampled_config =
  {
    default_config with
    span_every = 16;
    counter_every = 64;
  }

type t = {
  config : config;
  buf : Event.t array;
  mutable head : int; (* next write slot *)
  mutable size : int; (* retained count, <= capacity *)
  mutable seen : int;
  mutable kept : int;
  mutable spans_seen : int;
  mutable counters_seen : int;
}

let dummy : Event.t =
  {
    Event.name = "";
    cat = "";
    track = "";
    clock = Event.Virtual;
    ts_ms = 0.0;
    payload = Event.Instant;
    args = [];
  }

let create ?(config = default_config) () =
  if config.capacity < 1 then invalid_arg "Ring.create: capacity must be >= 1";
  {
    config;
    buf = Array.make config.capacity dummy;
    head = 0;
    size = 0;
    seen = 0;
    kept = 0;
    spans_seen = 0;
    counters_seen = 0;
  }

let push t ev =
  t.buf.(t.head) <- ev;
  t.head <- (t.head + 1) mod t.config.capacity;
  if t.size < t.config.capacity then t.size <- t.size + 1;
  t.kept <- t.kept + 1

(* Counter-based (not randomized) sampling: the decision for the k-th
   span is [(k - 1) mod span_every = 0], a pure function of the stream
   position, so retention is reproducible run to run. *)
let offer t (ev : Event.t) =
  t.seen <- t.seen + 1;
  if ev.Event.clock <> Event.Wall || t.config.keep_wall then begin
    let keep_kind =
      match ev.Event.payload with
      | Event.Span _ ->
          let k = t.spans_seen in
          t.spans_seen <- k + 1;
          t.config.span_every > 0 && k mod t.config.span_every = 0
      | Event.Counter _ ->
          let k = t.counters_seen in
          t.counters_seen <- k + 1;
          t.config.counter_every > 0 && k mod t.config.counter_every = 0
      | Event.Instant -> true
    in
    if keep_kind || List.mem ev.Event.cat t.config.keep_cats then push t ev
  end

let sink t ev = offer t ev
let attach ?config obs =
  let t = create ?config () in
  Obs.add_sink obs (sink t);
  t

let events t =
  let rec collect i acc =
    if i < 0 then acc
    else
      let slot =
        (t.head - 1 - i + (2 * t.config.capacity)) mod t.config.capacity
      in
      collect (i - 1) (t.buf.(slot) :: acc)
  in
  (* oldest first: walk back [size] slots from the write head *)
  List.rev (collect (t.size - 1) [])

let capacity t = t.config.capacity
let retained t = t.size
let seen t = t.seen
let kept t = t.kept
let evicted t = t.kept - t.size
let config t = t.config
