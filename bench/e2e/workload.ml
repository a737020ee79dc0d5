(* The four traffic mixes and their seeded request streams.

   A workload is a daemon configuration, a fleet of tenants submitted at
   set-up, and an endless request stream drawn from a seeded generator.
   The socket run and the in-process replay build the stream from the
   same seed, so their first requests are the same lines byte for byte;
   the daemon only ever receives lines. *)

module J = Tpdf_serve.Json
module Prng = Tpdf_util.Prng
module Serial = Tpdf_core.Serial

type tenant = {
  name : string;
  src : string;  (** graph source, {!Serial} text *)
  params : (string * int) list;
  seed : int;
}

type op = Advance of int | Reconfigure of (string * int) list | Query
type req = { id : int; tenant : string; op : op; line : string }

type t = {
  name : string;
  persist : bool;  (** run with a state directory *)
  max_resident : int;  (** 0 = keep every tenant hot *)
  replay_max : int;  (** stream prefix replayed in-process, at most 2000 *)
  rss_after : int;
      (** stream requests after which the daemon's peak RSS is read: a
          fixed amount of work, so the reading does not depend on how
          fast the run went (the daemon's request histogram keeps every
          sample, so its heap grows with requests served) *)
  tenants : Prng.t -> tenant list;
  stream : Prng.t -> tenant list -> unit -> string * op;
      (** [stream rng tenants] returns the generator of (tenant, op) *)
}

let fig1 =
  lazy
    (Serial.to_string
       (Tpdf_core.Graph.of_csdf (Tpdf_csdf.Examples.fig1 ())))

let fig2 =
  lazy (Serial.to_string (Tpdf_core.Examples.fig2 ()).Tpdf_core.Examples.graph)

let ofdm = lazy (Serial.to_string (fst (Tpdf_apps.Ofdm_app.tpdf_graph ())))
let ofdm_params ~beta ~n = [ ("beta", beta); ("N", n); ("L", 1) ]
let params_json ps = J.Obj (List.map (fun (k, v) -> (k, J.Int v)) ps)

let submit_line i (tn : tenant) =
  J.to_string
    (J.Obj
       [
         ("id", J.String (Printf.sprintf "s%d" i));
         ("op", J.String "submit");
         ("name", J.String tn.name);
         ("graph", J.String tn.src);
         ("params", params_json tn.params);
         ("seed", J.Int tn.seed);
       ])

let req id tenant op =
  let name = ("name", J.String tenant) in
  let fields =
    match op with
    | Advance n ->
        [ ("op", J.String "advance"); name; ("iterations", J.Int n) ]
    | Reconfigure ps ->
        [ ("op", J.String "reconfigure"); name; ("params", params_json ps) ]
    | Query -> [ ("op", J.String "query"); name ]
  in
  { id; tenant; op; line = J.to_string (J.Obj (("id", J.Int id) :: fields)) }

let mk_tenants rng specs =
  List.mapi
    (fun i (src, params) ->
      {
        name = Printf.sprintf "t%02d" i;
        src = Lazy.force src;
        params;
        seed = Prng.int rng 1_000_000;
      })
    specs

let names tenants =
  Array.of_list (List.map (fun (tn : tenant) -> tn.name) tenants)

(* The paper's small graphs: CSDF Fig. 1, TPDF Fig. 2 at p = 1..3 and the
   OFDM demodulator of Fig. 7, cycled over 16 tenants. *)
let small_fleet rng =
  let kinds =
    [|
      (fig1, []);
      (fig2, [ ("p", 1) ]);
      (fig2, [ ("p", 2) ]);
      (fig2, [ ("p", 3) ]);
      (ofdm, ofdm_params ~beta:2 ~n:8);
    |]
  in
  mk_tenants rng (List.init 16 (fun i -> kinds.(i mod Array.length kinds)))

(* Every tenant once per round, in a seeded order. *)
let round_robin ~iterations rng tenants =
  let names = names tenants in
  Prng.shuffle rng names;
  let i = ref (-1) in
  fun () ->
    incr i;
    (names.(!i mod Array.length names), Advance iterations)

(* Seeded draws without replacement: the cards are dealt in a shuffled
   order and reshuffled once all are dealt.  Every full deal has the
   deck's exact composition, so the request mix, and with it the cost of
   a run, does not drift with the seed. *)
let deck rng cards =
  let cards = Array.of_list cards in
  let next = ref (Array.length cards) in
  fun () ->
    if !next = Array.length cards then begin
      Prng.shuffle rng cards;
      next := 0
    end;
    incr next;
    cards.(!next - 1)

let repeat n x = List.init n (fun _ -> x)

(* Zipf(s) over the tenants: 200 cards per deal, rank r (from 1) getting
   a share proportional to 1/r^s, ranks mapped to tenants through a
   seeded permutation. *)
let zipf ~s ~iterations rng tenants =
  let names = names tenants in
  Prng.shuffle rng names;
  let n = Array.length names in
  let weight r = 1.0 /. (float_of_int (r + 1) ** s) in
  let total = List.fold_left ( +. ) 0.0 (List.init n weight) in
  let cards r =
    let count = Float.round (200.0 *. weight r /. total) in
    repeat (max 1 (Float.to_int count)) names.(r)
  in
  let pick = deck rng (List.concat (List.init n cards)) in
  fun () -> (pick (), Advance iterations)

(* 8 fig2 tenants then 4 OFDM tenants; 25% reconfigure (re-running
   admission), 65% advance of 4 iterations, 10% query. *)
let reconfig_stream rng tenants =
  let names = names tenants in
  let tenant = deck rng (List.init (Array.length names) Fun.id) in
  let op =
    deck rng (repeat 5 `Reconfigure @ repeat 13 `Advance @ repeat 2 `Query)
  in
  let fig2_p = deck rng [ 8; 16; 32 ] in
  let ofdm = deck rng [ (2, 8); (2, 16); (4, 8); (4, 16) ] in
  fun () ->
    let i = tenant () in
    ( names.(i),
      match op () with
      | `Reconfigure when i < 8 -> Reconfigure [ ("p", fig2_p ()) ]
      | `Reconfigure ->
          let beta, n = ofdm () in
          Reconfigure (ofdm_params ~beta ~n)
      | `Advance -> Advance 4
      | `Query -> Query )

(* Per-request fixed cost dominates: socket, JSON, dispatch and the
   per-iteration engine set-up; almost no firing work. *)
let steady =
  {
    name = "steady";
    persist = false;
    max_resident = 0;
    replay_max = 2000;
    rss_after = 40_000;
    tenants = small_fleet;
    stream = round_robin ~iterations:2;
  }

(* Engine firing work dominates; per-request overhead is amortised.
   8 iterations per advance keep about 5000 samples in a 20 s window, so
   p99 rests on some 50 of them. *)
let engine =
  {
    name = "engine";
    persist = false;
    max_resident = 0;
    replay_max = 800;
    rss_after = 1_600;
    tenants =
      (fun rng -> mk_tenants rng (repeat 4 (fig2, [ ("p", 64) ])));
    stream = round_robin ~iterations:8;
  }

(* Checkpoint and manifest writes dominate, with revives from disk. *)
let persist =
  {
    name = "persist";
    persist = true;
    max_resident = 8;
    replay_max = 2000;
    rss_after = 5_000;
    tenants = small_fleet;
    stream = zipf ~s:1.1 ~iterations:2;
  }

(* Every reconfigure re-runs admission: the paper's context-dependent
   case. *)
let reconfig =
  {
    name = "reconfig";
    persist = false;
    max_resident = 0;
    replay_max = 1000;
    rss_after = 3_000;
    tenants =
      (fun rng ->
        mk_tenants rng
          (repeat 8 (fig2, [ ("p", 8) ])
          @ repeat 4 (ofdm, ofdm_params ~beta:2 ~n:8)));
    stream = reconfig_stream;
  }

let all = [ steady; engine; persist; reconfig ]
let find name = List.find_opt (fun w -> w.name = name) all

(* Fleet and numbered request stream for one seed.  The fleet and the
   stream draw from split generators so the stream does not depend on
   how many draws the fleet took. *)
let instantiate w ~seed =
  let rng = Prng.create seed in
  let fleet_rng = Prng.split rng in
  let tenants = w.tenants fleet_rng in
  let next = w.stream rng tenants in
  let id = ref (-1) in
  ( tenants,
    fun () ->
      incr id;
      let tenant, op = next () in
      req !id tenant op )
