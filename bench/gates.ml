(* The BENCH_*.json files of experiments E17-E23 as data: each one's file
   name, schema and gates, the printer that writes them and the checker
   that [main.exe check] and the tests run on them.

   A gate is one function over the parsed file.  The bench calls it to
   fill its recorded [*_ok] flag, if it has one, and through [check_doc]
   on each file it writes; [check] calls it on any file.  Thresholds
   are the constants below, never values read from the file under check.
   Every JSON number reads as a float. *)

module J = Tpdf_serve.Json

exception Bad of string

let bad fmt = Printf.ksprintf (fun m -> raise (Bad m)) fmt
let need ok msg = if not ok then raise (Bad msg)

let kind_of = function
  | J.Null -> "null"
  | J.Bool _ -> "bool"
  | J.Int _ | J.Float _ -> "number"
  | J.String _ -> "string"
  | J.List _ -> "list"
  | J.Obj _ -> "object"

(* [get "a.b" v] is field b of field a of [v]. *)
let get path v =
  List.fold_left
    (fun v k -> match J.member k v with Some x -> x | None -> bad "missing %s" path)
    v (String.split_on_char '.' path)

let to_num path = function
  | J.Int n -> float_of_int n
  | J.Float f -> f
  | x -> bad "%s is a %s, not a number" path (kind_of x)

let num path v = to_num path (get path v)

let str path v =
  match get path v with J.String s -> s | x -> bad "%s is a %s, not a string" path (kind_of x)

let flag path v =
  match get path v with J.Bool b -> b | x -> bad "%s is a %s, not a bool" path (kind_of x)

let rows path v =
  match get path v with J.List l -> l | x -> bad "%s is a %s, not a list" path (kind_of x)

(* ---------- schema: the key paths of a file and their value types ---------- *)

type shape =
  | Num
  | Str
  | Bool
  | Null
  | Any of shape list
  | Opt of shape  (** an object field that may be absent *)
  | Obj of (string * shape) list
  | List of shape

let nums = List.map (fun n -> (n, Num))
let strs = List.map (fun n -> (n, Str))

let rec conform path shape v =
  let sub k = if path = "" then k else path ^ "." ^ k in
  match (shape, v) with
  | Num, (J.Int _ | J.Float _) | Str, J.String _ | Bool, J.Bool _ | Null, J.Null -> ()
  | Opt s, _ -> conform path s v
  | Any shapes, _
    when List.exists (fun s -> try conform path s v; true with Bad _ -> false) shapes ->
      ()
  | Obj fields, J.Obj kvs ->
      List.iter
        (fun (k, _) -> if not (List.mem_assoc k fields) then bad "unexpected key %s" (sub k))
        kvs;
      List.iter
        (fun (k, s) ->
          match (List.assoc_opt k kvs, s) with
          | Some x, _ -> conform (sub k) s x
          | None, Opt _ -> ()
          | None, _ -> bad "missing key %s" (sub k))
        fields
  | List s, J.List xs -> List.iter (conform (path ^ "[]") s) xs
  | _ -> bad "%s: unexpected %s" path (kind_of v)

(* Files written before commits were recorded have no [commit] or
   [dirty], and only they have [tpdf_domains_env]. *)
let metadata =
  Obj
    (strs [ "ocaml_version"; "os_type" ]
    @ nums [ "word_size"; "cores_detected" ]
    @ [
        ("commit", Opt Str);
        ("dirty", Opt (Any [ Bool; Str ]));
        ("tpdf_domains_env", Opt (Any [ Null; Str ]));
        ("bench_smoke", Bool);
      ])

(* ---------- gates ---------- *)

type gate = {
  name : string;
  full : bool;  (** full-size files only *)
  flag : string option;  (** the [*_ok] field that records this gate *)
  test : J.t -> unit;  (** raises [Bad] with the reason it fails *)
}

let gate ?(full = false) ?flag name test = { name; full; flag; test }
let nonempty name path = gate name (fun d -> need (rows path d <> []) ("no " ^ path))

(* [ok] holds for every row that [select] picks from the file. *)
let every select ok msg d = List.iter (fun r -> need (ok r) msg) (select d)
let all_rows ?flag name path ok msg = gate ?flag name (every (rows path) ok msg)

let positive name path field =
  all_rows name path (fun r -> num field r > 0.0) ("non-positive " ^ field)

let find path d ok what =
  match List.find_opt ok (rows path d) with Some r -> r | None -> bad "no %s" what

let filter path d ok = List.filter ok (rows path d)
let column field rs = List.map (str field) rs
let sum path field d = List.fold_left (fun a r -> a +. num field r) 0.0 (rows path d)

let percentiles =
  all_rows "percentiles" "runs"
    (fun r -> num "request_p95_ms" r >= num "request_p50_ms" r && num "request_p50_ms" r >= 0.0)
    "bad latency percentiles"

type spec = {
  id : string;
  file : string;
  shape : (string * shape) list;  (** the fields after experiment, smoke, metadata *)
  gates : gate list;
}

let e17_fan_cliff_max = 10.0
let e17_compiled_min = 2.0

let e17 =
  let run graph actors r = str "graph" r = graph && num "actors" r = actors in
  {
    id = "E17";
    file = "BENCH_engine.json";
    shape =
      [
        ("baseline", Obj (strs [ "engine"; "graph" ] @ nums [ "actors"; "events_per_sec" ]));
        ("speedup_chain_1e3_vs_baseline", Num);
        ( "runs",
          List
            (Obj
               (strs [ "graph" ]
               @ nums
                   [ "actors"; "iterations"; "events"; "wall_ms"; "events_per_sec";
                     "peak_heap_words"; "compiled_wall_ms"; "compiled_events_per_sec";
                     "compiled_vs_interpreted" ])) );
      ];
    gates =
      [
        nonempty "runs" "runs";
        positive "throughput" "runs" "events_per_sec";
        positive "compiled_throughput" "runs" "compiled_events_per_sec";
        gate ~full:true "fan_cliff" (fun d ->
            let eps g = num "events_per_sec" (find "runs" d (run g 1e4) (g ^ "@1e4 run")) in
            need (eps "fan" *. e17_fan_cliff_max >= eps "chain")
              "fan@1e4 is more than 10x slower than chain@1e4");
        gate ~full:true "compiled_2x" (fun d ->
            let r = find "runs" d (run "chain" 1e3) "chain@1e3 run" in
            need (num "compiled_vs_interpreted" r >= e17_compiled_min)
              "compiled backend below 2x on chain@1e3");
      ];
  }

let e18 =
  {
    id = "E18";
    file = "BENCH_par.json";
    shape =
      [
        ("domain_sweep", List Num);
        ("note", Str);
        ( "edge",
          List
            (Obj
               (strs [ "detector" ]
               @ nums [ "side"; "domains"; "wall_ms"; "mpix_per_sec"; "speedup_vs_1" ])) );
      ];
    gates =
      [
        nonempty "domain_sweep" "domain_sweep";
        nonempty "edge" "edge";
        positive "throughput" "edge" "mpix_per_sec";
        positive "speedup" "edge" "speedup_vs_1";
      ];
  }

let e19 =
  {
    id = "E19";
    file = "BENCH_ckpt.json";
    shape =
      [
        ("iterations", Num);
        ("periods", List Num);
        ("note", Str);
        ( "runs",
          List
            (Obj
               (strs [ "graph" ]
               @ nums
                   [ "period"; "events"; "wall_ms"; "events_per_sec"; "checkpoints";
                     "snapshot_bytes"; "restore_ms"; "overhead_vs_off" ])) );
      ];
    gates =
      [
        gate "period_off" (fun d ->
            need
              (List.mem 0.0 (List.map (to_num "periods[]") (rows "periods" d)))
              "period sweep must include off (0)");
        nonempty "runs" "runs";
        positive "throughput" "runs" "events_per_sec";
        positive "snapshot" "runs" "snapshot_bytes";
        all_rows "restore" "runs" (fun r -> num "restore_ms" r >= 0.0) "negative restore time";
        gate "baseline" (fun d ->
            let off = column "graph" (filter "runs" d (fun r -> num "period" r = 0.0)) in
            every (rows "runs") (fun r -> List.mem (str "graph" r) off)
              "missing period-off baseline" d);
      ];
  }

let e20_chain_min_actors = 1000.0
let e20_sampled_overhead_max = 1.05
let e20_bounded_min_events = 1e6

let e20 =
  let sampled_chain d =
    filter "runs" d (fun r -> str "graph" r = "chain" && str "mode" r = "sampled")
  in
  {
    id = "E20";
    file = "BENCH_obs.json";
    shape =
      [
        ("sampling", Obj (nums [ "span_every"; "ring_capacity" ]));
        ("note", Str);
        ("worst_overhead_sampled", Num);
        ("worst_overhead_full", Num);
        ( "runs",
          List
            (Obj
               (strs [ "graph"; "mode" ]
               @ nums
                   [ "actors"; "iterations"; "events"; "wall_ms"; "events_per_sec";
                     "obs_events_seen"; "ring_retained"; "overhead_vs_off" ])) );
        ( "bounded",
          Obj
            (strs [ "graph" ]
            @ nums [ "actors"; "events_offered"; "ring_capacity"; "ring_retained" ]
            @ [ ("ok", Bool) ]) );
      ];
    gates =
      [
        gate "sampling" (fun d -> need (num "sampling.span_every" d >= 1.0) "span_every below 1");
        nonempty "runs" "runs";
        gate "modes" (fun d ->
            List.iter
              (fun g ->
                let modes = column "mode" (filter "runs" d (fun r -> str "graph" r = g)) in
                need
                  (List.sort_uniq compare modes = [ "full"; "off"; "sampled" ])
                  (g ^ " missing a mode"))
              (column "graph" (rows "runs" d)));
        positive "throughput" "runs" "events_per_sec";
        gate ~flag:"bounded.ok" "bounded" (fun d ->
            let b = get "bounded" d in
            need
              (num "ring_retained" b <= num "ring_capacity" b
              && num "events_offered" b > num "ring_capacity" b)
              "bounded-ring certificate failed");
        gate ~full:true "sampled_chain" (fun d -> need (sampled_chain d <> []) "no sampled chain run");
        gate ~full:true "chain_size"
          (every sampled_chain
             (fun r -> num "actors" r >= e20_chain_min_actors)
             "chain below 1e3 actors");
        gate ~full:true "sampled_overhead"
          (every sampled_chain
             (fun r -> num "overhead_vs_off" r <= e20_sampled_overhead_max)
             "sampled overhead above 1.05 on the 1e3-actor chain");
        gate ~full:true "bounded_1e6" (fun d ->
            need (num "bounded.events_offered" d >= e20_bounded_min_events)
              "bounded certificate below 1e6 events");
      ];
  }

let e21_solve_ms_max = 10.0
let e21_speedup_min = 10.0
let e21_full_params = 100.0
let e21_full_rate_safety_actors = 996.0

let e21 =
  let kind k r = str "kind" r = k in
  let solve_rows name ok msg = all_rows name "rows" (fun r -> (not (kind "solve" r)) || ok r) msg in
  let big d =
    filter "rows" d (fun r -> kind "solve" r && num "params" r = 100.0 && num "actors" r = 1000.0)
  in
  {
    id = "E21";
    file = "BENCH_param.json";
    shape =
      [
        ("baseline", Obj (strs [ "kernel" ]));
        ( "rows",
          List
            (Obj
               (strs [ "kind"; "graph" ]
               @ nums [ "params"; "actors"; "new_ms"; "new_memo_off_ms" ]
               @ [
                   ("legacy_ms", Any [ Num; Null ]);
                   ("speedup", Any [ Num; Null ]);
                   ("outputs_match", Any [ Bool; Null ]);
                 ])) );
        ( "gauges",
          Obj
            (nums
               [ "param_memo_hits"; "param_memo_misses"; "param_intern_monomials";
                 "param_intern_polys"; "param_intern_fracs" ]) );
      ];
    gates =
      [
        nonempty "rows" "rows";
        (* an empty table fails [rows] alone *)
        gate "kinds" (fun d ->
            let kinds = List.sort_uniq compare (column "kind" (rows "rows" d)) in
            need (kinds = [] || kinds = [ "rate_safety"; "solve" ]) "missing a kind");
        all_rows "timings" "rows"
          (fun r -> num "new_ms" r > 0.0 && num "new_memo_off_ms" r > 0.0)
          "non-positive timing";
        solve_rows "outputs_match" (flag "outputs_match") "kernel disagrees with legacy baseline";
        solve_rows "baseline_column"
          (fun r -> num "legacy_ms" r > 0.0 && num "speedup" r > 0.0)
          "missing baseline column";
        gate "gauges" (fun d ->
            need (num "gauges.param_intern_monomials" d > 0.0) "intern-table gauges missing");
        gate ~full:true "big_solve" (fun d -> need (big d <> []) "no 100-param/1000-actor solve");
        gate ~full:true "solve_ms"
          (every big (fun r -> num "new_ms" r < e21_solve_ms_max)
             "100-param solve above single-digit ms");
        gate ~full:true "solve_speedup"
          (every big (fun r -> num "speedup" r >= e21_speedup_min)
             "symbolic kernel below 10x over legacy");
        gate ~full:true "rate_safety_full" (fun d ->
            need
              (filter "rows" d (fun r ->
                   kind "rate_safety" r
                   && num "params" r >= e21_full_params
                   && num "actors" r >= e21_full_rate_safety_actors)
              <> [])
              "no full-size rate-safety row");
      ];
  }

let e22_p95_ratio_max = 2.0

let e22 =
  let quarantined m d = num "quarantined" (find "runs" d (fun r -> str "mode" r = m) (m ^ " run")) in
  {
    id = "E22";
    file = "BENCH_serve.json";
    shape =
      [
        ("note", Str);
        ("isolation_ok", Bool);
        ( "runs",
          List
            (Obj
               (strs [ "mode" ]
               @ nums
                   [ "tenants"; "requests"; "iterations"; "firings"; "wall_ms";
                     "requests_per_sec"; "firings_per_sec"; "quarantined"; "request_p50_ms";
                     "request_p95_ms"; "healthy_p95_ms" ])) );
      ]
      @ nums [ "iters_per_advance"; "rounds"; "gate_p95_ratio"; "healthy_p95_ratio" ];
    gates =
      [
        gate "runs" (fun d ->
            need (column "mode" (rows "runs" d) = [ "mem"; "persist"; "fault" ]) "bad runs");
        all_rows "throughput" "runs"
          (fun r -> num "requests_per_sec" r > 0.0 && num "firings_per_sec" r > 0.0)
          "non-positive throughput";
        percentiles;
        gate "healthy_unquarantined" (fun d ->
            need (quarantined "mem" d = 0.0) "healthy run quarantined");
        gate "faulter_quarantined" (fun d ->
            need (quarantined "fault" d >= 1.0) "faulting tenant never quarantined");
        gate ~flag:"isolation_ok" "isolation" (fun d ->
            let r = num "healthy_p95_ratio" d in
            need (r > 0.0 && r <= e22_p95_ratio_max)
              (Printf.sprintf "healthy p95 ratio %g past %g" r e22_p95_ratio_max));
      ];
  }

let e23_p95_ratio_max = 2.0

let e23 =
  let injected r = num "req_lost" r +. num "resp_lost" r +. num "delayed" r in
  let baseline r = str "plan" r = "baseline" in
  {
    id = "E23";
    file = "BENCH_netchaos.json";
    shape =
      [
        ("note", Str);
        ( "runs",
          List
            (Obj
               (strs [ "plan"; "spec" ]
               @ nums
                   [ "tenants"; "logical"; "attempts"; "lost"; "req_lost"; "resp_lost"; "delayed";
                     "wall_ms"; "virtual_ms"; "request_p50_ms"; "request_p95_ms"; "diverged" ]))
        );
      ]
      @ nums
          [ "iters_per_advance"; "rounds"; "gate_p95_ratio"; "worst_p95_ratio"; "diverged_tenants";
            "lost_requests" ]
      @ [ ("p95_ratio_ok", Bool); ("divergence_ok", Bool); ("faults_injected_ok", Bool) ];
    gates =
      [
        gate "plans" (fun d ->
            need
              (column "plan" (rows "runs" d) = [ "baseline"; "lossy"; "slow"; "lossy+slow" ])
              "bad fault-plan sweep");
        all_rows "attempts" "runs"
          (fun r -> num "logical" r > 0.0 && num "attempts" r >= num "logical" r)
          "attempts below logical requests";
        percentiles;
        all_rows "baseline_clean" "runs"
          (fun r -> (not (baseline r)) || injected r = 0.0)
          "baseline run injected faults";
        gate ~flag:"p95_ratio_ok" "p95_ratio" (fun d ->
            let r = num "worst_p95_ratio" d in
            need (r > 0.0 && r <= e23_p95_ratio_max)
              (Printf.sprintf "worst p95 ratio %g past %g" r e23_p95_ratio_max));
        gate ~flag:"divergence_ok" "divergence" (fun d ->
            need
              (sum "runs" "diverged" d = 0.0
              && sum "runs" "lost" d = 0.0
              && num "diverged_tenants" d = 0.0
              && num "lost_requests" d = 0.0)
              "divergence or lost requests");
        all_rows ~flag:"faults_injected_ok" "faults_injected" "runs"
          (fun r -> baseline r || injected r > 0.0)
          "fault run injected nothing";
      ];
  }

let specs = [ e17; e18; e19; e20; e21; e22; e23 ]

(* ---------- evaluation ---------- *)

(* The schema and the header gates come first, then the experiment's own. *)
let gates ~smoke s =
  let shape = Obj (("experiment", Str) :: ("smoke", Bool) :: ("metadata", metadata) :: s.shape) in
  [
    gate "schema" (conform "" shape);
    gate "smoke" (fun d ->
        need (flag "smoke" d = smoke)
          (if smoke then "expected a smoke file" else "expected a full-size file"));
    gate "cores_detected" (fun d -> need (num "metadata.cores_detected" d >= 1.0) "below 1");
  ]
  @ s.gates

(* A gate with a flag also fails when the file records it false. *)
let outcome g d =
  match
    g.test d;
    Option.iter (fun path -> need (flag path d) (path ^ " is false")) g.flag
  with
  | () -> Ok ()
  | exception Bad m -> Error m

(* Every gate that applies to [d]: the full-size ones unless [d] says it
   is a smoke file. *)
let evaluate ~smoke s d =
  let full = match J.member "smoke" d with Some (J.Bool b) -> not b | _ -> not smoke in
  List.filter_map
    (fun g -> if g.full && not full then None else Some (g, outcome g d))
    (gates ~smoke s)

(* [d] with each flag field set to its gate's verdict. *)
let record_flags s d =
  let rec set keys v d =
    match (keys, d) with
    | [], _ -> v
    | k :: rest, J.Obj fs when List.mem_assoc k fs ->
        J.Obj (List.map (fun (k', x) -> (k', if k' = k then set rest v x else x)) fs)
    | k :: rest, J.Obj fs -> J.Obj (fs @ [ (k, set rest v (J.Obj [])) ])
    | _ -> d
  in
  List.fold_left
    (fun d g ->
      match g.flag with
      | Some path ->
          let ok = match g.test d with () -> true | exception Bad _ -> false in
          set (String.split_on_char '.' path) (J.Bool ok) d
      | None -> d)
    d s.gates

let failures ~file s verdicts =
  List.filter_map
    (function
      | g, Error m -> Some (Printf.sprintf "%s: gate %s.%s FAILED: %s" file s.id g.name m)
      | _, Ok () -> None)
    verdicts

let check_doc ~smoke ~file d =
  match List.find_opt (fun s -> J.member "experiment" d = Some (J.String s.id)) specs with
  | None -> Error [ file ^ ": experiment is not one of E17-E23" ]
  | Some s -> (
      let verdicts = evaluate ~smoke s d in
      match failures ~file s verdicts with
      | [] ->
          let commit = try str "metadata.commit" d with Bad _ -> "unrecorded" in
          Ok
            (Printf.sprintf "%s: %s %s, commit %s: %d gates ok" file s.id
               (if smoke then "smoke" else "full-size")
               commit (List.length verdicts))
      | errors -> Error errors)

let check_file ~smoke file =
  match J.of_string (In_channel.with_open_bin file In_channel.input_all) with
  | Ok d -> check_doc ~smoke ~file d
  | Error m -> Error [ Printf.sprintf "%s: not JSON: %s" file m ]
  | exception Sys_error m -> Error [ m ]

(* ---------- printing ---------- *)

(* Objects, and lists of containers, break across lines down to depth 2;
   anything deeper stays on one line, so a file has one line per run. *)
let render doc =
  let b = Buffer.create 4096 in
  let add = Buffer.add_string b in
  let seq sep items item = List.iteri (fun i x -> if i > 0 then add sep; item x) items in
  let rec go d v =
    let field d (k, x) = add (J.to_string (J.String k) ^ ": "); go d x in
    let pad = "\n" ^ String.make (2 * d) ' ' in
    let block items item =
      add pad; add "  "; seq ("," ^ pad ^ "  ") items item; add pad
    in
    let nested = List.exists (function J.Obj _ | J.List _ -> true | _ -> false) in
    match v with
    | J.Obj fs when d < 2 && fs <> [] -> add "{"; block fs (field (d + 1)); add "}"
    | J.List xs when d < 2 && nested xs -> add "["; block xs (go (d + 1)); add "]"
    | J.Obj fs -> add "{ "; seq ", " fs (field d); add " }"
    | J.List xs -> add "["; seq ", " xs (go d); add "]"
    | x -> add (J.to_string x)
  in
  go 0 doc;
  add "\n";
  Buffer.contents b
