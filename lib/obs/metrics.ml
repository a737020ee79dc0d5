(* Count, sum, min and max are exact over every observation; the
   percentiles are taken over the most recent [window_cap] samples, kept
   in a flat ring, so a long-lived histogram (a daemon's request
   latencies) holds bounded memory. *)
let window_cap = 65_536

type histogram = {
  mutable ring : float array; (* grows by doubling up to [window_cap] *)
  mutable h_count : int; (* sample [i] lives at [ring.(i mod window_cap)] *)
  mutable h_sum : float;
  mutable h_min : float;
  mutable h_max : float;
}

type t = {
  counters : (string, int ref) Hashtbl.t;
  gauges : (string, float ref) Hashtbl.t;
  histograms : (string, histogram) Hashtbl.t;
}

let create () =
  {
    counters = Hashtbl.create 32;
    gauges = Hashtbl.create 32;
    histograms = Hashtbl.create 32;
  }

(* Domain-local capture: while a registry is being captured on the
   current domain, its updates are recorded into a buffer instead of
   being applied, and {!replay} applies them later in recorded order —
   or the buffer is dropped, when a transaction rolls back.  Registries
   are not otherwise synchronized — uncaptured updates must stay on the
   owning domain. *)
type op =
  | Op_incr of string * int
  | Op_gauge of string * float
  | Op_observe of string * float

type capture = { cap_target : t; mutable rev_ops : op list }

(* Captures nest as a per-domain stack: the innermost (most recent)
   capture targeting a registry receives its updates, so a supervised
   iteration's capture composes with an enclosing reconfiguration
   transaction's capture staging the same iteration. *)
let capture_slot : capture list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let captured t =
  let rec find = function
    | [] -> None
    | buf :: rest -> if buf.cap_target == t then Some buf else find rest
  in
  find !(Domain.DLS.get capture_slot)

let capture_begin t =
  let slot = Domain.DLS.get capture_slot in
  let buf = { cap_target = t; rev_ops = [] } in
  slot := buf :: !slot;
  buf

let capture_end buf =
  let slot = Domain.DLS.get capture_slot in
  match !slot with
  | b :: rest when b == buf -> slot := rest
  | _ -> invalid_arg "Metrics.capture_end: capture not innermost on this domain"

let apply_incr t name by =
  match Hashtbl.find_opt t.counters name with
  | Some r -> r := !r + by
  | None -> Hashtbl.replace t.counters name (ref by)

let apply_gauge t name v =
  match Hashtbl.find_opt t.gauges name with
  | Some r -> r := v
  | None -> Hashtbl.replace t.gauges name (ref v)

let apply_observe t name v =
  match Hashtbl.find_opt t.histograms name with
  | Some h ->
      let len = Array.length h.ring in
      if h.h_count = len && len < window_cap then begin
        let ring = Array.make (min window_cap (2 * len)) 0.0 in
        Array.blit h.ring 0 ring 0 len;
        h.ring <- ring
      end;
      h.ring.(h.h_count land (window_cap - 1)) <- v;
      h.h_count <- h.h_count + 1;
      h.h_sum <- h.h_sum +. v;
      if v < h.h_min then h.h_min <- v;
      if v > h.h_max then h.h_max <- v
  | None ->
      Hashtbl.replace t.histograms name
        {
          ring = Array.make 8 v;
          h_count = 1;
          h_sum = v;
          h_min = v;
          h_max = v;
        }

let replay t buf =
  if not (buf.cap_target == t) then
    invalid_arg "Metrics.replay: buffer belongs to another registry";
  (* Route through any capture still active on this domain, so a replay
     inside an enclosing (e.g. transaction) capture stays staged and can
     be rolled back with it. *)
  match captured t with
  | Some outer -> outer.rev_ops <- buf.rev_ops @ outer.rev_ops
  | None ->
      List.iter
        (function
          | Op_incr (name, by) -> apply_incr t name by
          | Op_gauge (name, v) -> apply_gauge t name v
          | Op_observe (name, v) -> apply_observe t name v)
        (List.rev buf.rev_ops)

let incr ?(by = 1) t name =
  if by < 0 then invalid_arg "Metrics.incr: counters are monotonic";
  match captured t with
  | Some buf -> buf.rev_ops <- Op_incr (name, by) :: buf.rev_ops
  | None -> apply_incr t name by

let set_gauge t name v =
  match captured t with
  | Some buf -> buf.rev_ops <- Op_gauge (name, v) :: buf.rev_ops
  | None -> apply_gauge t name v

let observe t name v =
  match captured t with
  | Some buf -> buf.rev_ops <- Op_observe (name, v) :: buf.rev_ops
  | None -> apply_observe t name v

let counter t name =
  match Hashtbl.find_opt t.counters name with Some r -> !r | None -> 0

let gauge t name =
  match Hashtbl.find_opt t.gauges name with Some r -> Some !r | None -> None

type histogram_stats = {
  count : int;
  window : int;
  sum : float;
  min : float;
  max : float;
  p50 : float;
  p95 : float;
}

(* Interpolated nearest-rank percentile (Hyndman–Fan type 7, the R /
   NumPy default) over the sorted samples.  Plain nearest-rank
   degenerates on small counts — the 95th percentile of anything under
   20 observations is just the max; interpolating between the two
   straddling order statistics keeps small-sample estimates usable. *)
let percentile sorted n p =
  if n = 1 then sorted.(0)
  else begin
    let h = p /. 100.0 *. float_of_int (n - 1) in
    let h = Float.max 0.0 (Float.min (float_of_int (n - 1)) h) in
    let lo = int_of_float (Float.floor h) in
    let hi = Stdlib.min (n - 1) (lo + 1) in
    sorted.(lo) +. ((h -. float_of_int lo) *. (sorted.(hi) -. sorted.(lo)))
  end

let stats_of h =
  let n = min h.h_count window_cap in
  let sorted = Array.sub h.ring 0 n in
  Array.sort compare sorted;
  {
    count = h.h_count;
    window = n;
    sum = h.h_sum;
    min = h.h_min;
    max = h.h_max;
    p50 = percentile sorted n 50.0;
    p95 = percentile sorted n 95.0;
  }

let histogram t name =
  match Hashtbl.find_opt t.histograms name with
  | Some h -> Some (stats_of h)
  | None -> None

let sorted_bindings tbl f =
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, f v) :: acc) tbl [])

let counters t = sorted_bindings t.counters (fun r -> !r)
let gauges t = sorted_bindings t.gauges (fun r -> !r)
let histograms t = sorted_bindings t.histograms stats_of

let is_empty t =
  Hashtbl.length t.counters = 0
  && Hashtbl.length t.gauges = 0
  && Hashtbl.length t.histograms = 0
