(* tpdf_serve suite: the daemon as a pure request → response machine.

   Pins the PR's acceptance criteria:
   - protocol and admission behave per DESIGN.md §7 (stable error
     codes, admission ladder, FIFO queue, shedding);
   - fault isolation: in a fleet of 9 tenants with one permanently
     faulting tenant, the faulter is quarantined while every tenant's
     response transcript stays byte-identical to a solo daemon run;
   - crash recovery: dropping the daemon mid-fleet (the in-process
     equivalent of kill -9 — state only ever lives in the synchronously
     written checkpoint store) and reloading the state directory
     continues every survivor byte-identically to a daemon that never
     crashed;
   - eviction/revival round-trips through the checkpoint store without
     observable effect on responses. *)

module J = Tpdf_serve.Json
module D = Tpdf_serve.Daemon
module Adm = Tpdf_serve.Admission
module Serial = Tpdf_core.Serial
module Valuation = Tpdf_param.Valuation
module Metrics = Tpdf_obs.Metrics

let graphs_dir =
  let d = "../graphs" in
  if Sys.file_exists d then d else "graphs"

let read_file p = In_channel.with_open_text p In_channel.input_all
let graph_src name = read_file (Filename.concat graphs_dir (name ^ ".tpdf"))
let fig1 = lazy (graph_src "fig1")
let fig2 = lazy (graph_src "fig2")
let spdf = lazy (graph_src "spdf")

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let dir_counter = ref 0

let with_temp_dir f =
  incr dir_counter;
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "tpdf_serve_test_%d_%d" (Unix.getpid ()) !dir_counter)
  in
  rm_rf dir;
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

(* ------------------------------------------------------------------ *)
(* Request/response helpers                                            *)
(* ------------------------------------------------------------------ *)

let daemon ?(cfg = D.default_config) () =
  match D.create cfg with Ok d -> d | Error e -> Alcotest.fail e

let rpc d fields = D.handle_line d (J.to_string (J.Obj fields))

let parse resp =
  match J.of_string resp with
  | Ok v -> v
  | Error e -> Alcotest.fail (Printf.sprintf "unparsable response %s: %s" resp e)

let is_ok resp = J.member "ok" (parse resp) = Some (J.Bool true)

let code_of resp =
  match J.member "error" (parse resp) with
  | Some e -> (
      match J.member "code" e with Some (J.String c) -> c | _ -> "")
  | None -> ""

let field resp key = J.member key (parse resp)

let int_field resp key =
  match field resp key with
  | Some (J.Int n) -> n
  | _ -> Alcotest.fail (Printf.sprintf "response %s: no int field %S" resp key)

let check_code what expected resp =
  Alcotest.(check bool) (what ^ ": ok=false") false (is_ok resp);
  Alcotest.(check string) (what ^ ": code") expected (code_of resp)

let submit_req ?(id = "sub") ?(params = []) ?faults ?seed ?budget ?deadline_ms
    ~name src =
  [
    ("id", J.String id);
    ("op", J.String "submit");
    ("name", J.String name);
    ("graph", J.String src);
  ]
  @ (if params = [] then []
     else [ ("params", J.Obj (List.map (fun (k, v) -> (k, J.Int v)) params)) ])
  @ (match seed with Some s -> [ ("seed", J.Int s) ] | None -> [])
  @ (match faults with Some f -> [ ("faults", J.String f) ] | None -> [])
  @ (match budget with Some b -> [ ("budget", J.Int b) ] | None -> [])
  @
  match deadline_ms with
  | Some m -> [ ("deadline_ms", J.Float m) ]
  | None -> []

let advance_req ?(id = "adv") ~name n =
  [
    ("id", J.String id);
    ("op", J.String "advance");
    ("name", J.String name);
    ("iterations", J.Int n);
  ]

let query_req ?(id = "q") name =
  [ ("id", J.String id); ("op", J.String "query"); ("name", J.String name) ]

(* ------------------------------------------------------------------ *)
(* JSON codec                                                          *)
(* ------------------------------------------------------------------ *)

let test_json_roundtrip () =
  let values =
    [
      J.Null;
      J.Bool true;
      J.Bool false;
      J.Int 0;
      J.Int (-42);
      J.Int max_int;
      J.Float 1.5;
      J.Float (-0.125);
      J.Float 4.9999999999989999;
      J.String "";
      J.String "hello \"quoted\" \\ slash \n tab \t";
      J.List [ J.Int 1; J.List []; J.Obj [] ];
      J.Obj
        [
          ("a", J.Int 1);
          ("nested", J.Obj [ ("b", J.List [ J.Bool false; J.Null ]) ]);
        ];
    ]
  in
  List.iter
    (fun v ->
      let s = J.to_string v in
      match J.of_string s with
      | Ok v' ->
          Alcotest.(check string)
            ("stable: " ^ s) s (J.to_string v')
      | Error e -> Alcotest.fail (Printf.sprintf "%s: %s" s e))
    values

let test_json_parse () =
  (match J.of_string "{\"a\": 1, \"b\": [true, null, \"\\u0041\"]}" with
  | Ok (J.Obj [ ("a", J.Int 1); ("b", J.List [ J.Bool true; J.Null; J.String "A" ]) ])
    ->
      ()
  | Ok v -> Alcotest.fail ("unexpected parse: " ^ J.to_string v)
  | Error e -> Alcotest.fail e);
  (match J.of_string "1e3" with
  | Ok (J.Float 1000.0) -> ()
  | _ -> Alcotest.fail "1e3 should parse as a float");
  List.iter
    (fun s ->
      match J.of_string s with
      | Error _ -> ()
      | Ok v ->
          Alcotest.fail
            (Printf.sprintf "%S should not parse (got %s)" s (J.to_string v)))
    [ ""; "{"; "[1,]"; "{\"a\"}"; "tru"; "\"unterminated"; "{\"a\":1}x"; "01" ]

(* ------------------------------------------------------------------ *)
(* Admission                                                           *)
(* ------------------------------------------------------------------ *)

let graph_of src =
  match Serial.of_string src with
  | Ok g -> g
  | Error e -> Alcotest.fail e

let test_admission_ok () =
  match
    Adm.check ~graph:(graph_of (Lazy.force fig1))
      ~valuation:(Valuation.of_list []) ()
  with
  | Adm.Admitted { Adm.cost; period_ms; _ } ->
      Alcotest.(check int) "fig1 cost" 7 cost;
      Alcotest.(check bool) "fig1 period in (0, 5.5)" true
        (period_ms > 0.0 && period_ms < 5.5)
  | Adm.Rejected r -> Alcotest.fail r

let test_admission_rejects () =
  let reject what outcome =
    match outcome with
    | Adm.Rejected _ -> ()
    | Adm.Admitted _ -> Alcotest.fail (what ^ ": admission expected to fail")
  in
  reject "unbound parameter"
    (Adm.check ~graph:(graph_of (Lazy.force fig2))
       ~valuation:(Valuation.of_list []) ());
  reject "rate-unsafe control"
    (Adm.check
       ~graph:(Tpdf_core.Examples.unsafe_control ())
       ~valuation:(Valuation.of_list [ ("p", 2) ])
       ());
  reject "over budget"
    (Adm.check ~graph:(graph_of (Lazy.force fig1))
       ~valuation:(Valuation.of_list []) ~max_cost:3 ());
  reject "deadline below MCR"
    (Adm.check ~graph:(graph_of (Lazy.force fig1))
       ~valuation:(Valuation.of_list []) ~deadline_ms:1.0 ())

(* The cost is priced, overflow-checked, before liveness walks the
   iteration: these valuations would take that walk forever, or
   overflow inside it. *)
let rejected_naming what needle outcome =
  match outcome with
  | Adm.Rejected r ->
      if not (contains r needle) then
        Alcotest.fail (Printf.sprintf "%s: reason %S does not name %S" what r needle)
  | Adm.Admitted _ -> Alcotest.fail (what ^ ": admission expected to fail")

let square_chain =
  "tpdf graph {\n  kernel A;\n  kernel B;\n  kernel C;\n\
  \  channel e0 = A [p] -> [1] B;\n  channel e1 = B [p] -> [1] C;\n}\n"

let test_admission_overflow () =
  (* Every entry of q fits in an int at p = 2^61 - 1; their sum does not. *)
  rejected_naming "fig2 at p = 2^61-1" "overflow"
    (Adm.check ~graph:(graph_of (Lazy.force fig2))
       ~valuation:(Valuation.of_list [ ("p", (1 lsl 61) - 1) ]) ());
  rejected_naming "p^2 chain at p = 2^32" "overflow"
    (Adm.check ~graph:(graph_of square_chain)
       ~valuation:(Valuation.of_list [ ("p", 1 lsl 32) ]) ());
  let d = daemon () in
  check_code "daemon: p^2 chain at p = 2^32" "inadmissible"
    (rpc d (submit_req ~name:"sq" square_chain ~params:[ ("p", 1 lsl 32) ]));
  Alcotest.(check bool) "daemon answers a ping after" true
    (is_ok (rpc d [ ("id", J.String "p"); ("op", J.String "ping") ]))

(* The cost is 2 at every p, but the rate p*p overflows at p = 2^32:
   the concrete rates are evaluated, overflow-checked, after the cost. *)
let square_rate =
  "tpdf graph {\n  kernel A;\n  kernel B;\n\
  \  channel e0 = A [p*p] -> [p*p] B;\n}\n"

let ping_ok d = is_ok (rpc d [ ("id", J.String "p"); ("op", J.String "ping") ])

let test_admission_rate_overflow () =
  rejected_naming "p*p rate at p = 2^32" "rates overflow"
    (Adm.check ~graph:(graph_of square_rate)
       ~valuation:(Valuation.of_list [ ("p", 1 lsl 32) ]) ())

let test_admission_rate_overflow_submit () =
  let d = daemon () in
  check_code "submit p*p rate at p = 2^32" "inadmissible"
    (rpc d (submit_req ~name:"sq" square_rate ~params:[ ("p", 1 lsl 32) ]));
  Alcotest.(check bool) "daemon answers a ping after" true (ping_ok d)

let test_admission_rate_overflow_reconfigure () =
  let d = daemon () in
  Alcotest.(check bool) "admitted at p = 2" true
    (is_ok (rpc d (submit_req ~name:"sq" square_rate ~params:[ ("p", 2) ])));
  check_code "reconfigure to p = 2^32" "inadmissible"
    (rpc d
       [
         ("id", J.String "rc");
         ("op", J.String "reconfigure");
         ("name", J.String "sq");
         ("params", J.Obj [ ("p", J.Int (1 lsl 32)) ]);
       ]);
  Alcotest.(check bool) "daemon answers a ping after" true (ping_ok d);
  Alcotest.(check bool) "tenant still advances at p = 2" true
    (is_ok (rpc d (advance_req ~name:"sq" 1)))

let test_admission_budget_before_liveness () =
  (* Deadlocks at p = 8 (seven initial tokens, eight needed) and costs 9. *)
  let cycle =
    "tpdf graph {\n  kernel A;\n  kernel B;\n\
    \  channel e0 = A [p] -> [1] B;\n  channel e1 = B [1] -> [p] A init=7;\n}\n"
  in
  rejected_naming "deadlocked cycle over budget" "budget"
    (Adm.check ~graph:(graph_of cycle)
       ~valuation:(Valuation.of_list [ ("p", 8) ]) ~max_cost:5 ())

(* The deadline bounds what a served step takes, one iteration from the
   boundary state, not the pipelined period: fig2 at p = 8 has period 16
   and latency 20. *)
let test_admission_deadline_latency () =
  let fig2_within deadline_ms =
    Adm.check ~graph:(graph_of (Lazy.force fig2))
      ~valuation:(Valuation.of_list [ ("p", 8) ]) ~deadline_ms ()
  in
  (match fig2_within 18.0 with
  | Adm.Rejected r ->
      Alcotest.(check string) "deadline 18 ms"
        "one-iteration latency 20.000 ms exceeds the 18.000 ms deadline \
         (period 16.000 ms)"
        r
  | Adm.Admitted _ -> Alcotest.fail "deadline 18 ms admitted");
  (match fig2_within 20.0 with
  | Adm.Admitted v ->
      Alcotest.(check (float 0.0)) "period" 16.0 v.Adm.period_ms;
      Alcotest.(check (float 0.0)) "latency" 20.0 v.Adm.latency_ms
  | Adm.Rejected r -> Alcotest.fail ("deadline 20 ms: " ^ r));
  let resp =
    rpc (daemon ())
      (submit_req ~name:"f" ~params:[ ("p", 8) ] ~deadline_ms:20.0
         (Lazy.force fig2))
  in
  if not (contains resp {|"period_ms":16.0,"latency_ms":20.0}|}) then
    Alcotest.fail ("submit answered " ^ resp)

(* On every unclocked shipped graph that admission accepts, one
   fault-free served step ends at the admitted latency exactly. *)
let test_latency_is_a_served_step () =
  let module G = Tpdf_core.Graph in
  List.iter
    (fun file ->
      let g = graph_of (read_file (Filename.concat graphs_dir file)) in
      if
        not (List.exists (fun a -> G.clock_period_ms g a <> None) (G.actors g))
      then
        List.iter
          (fun v ->
            let valuation =
              Valuation.of_list (List.map (fun p -> (p, v)) (G.parameters g))
            in
            let what = Printf.sprintf "%s at %d" file v in
            match Adm.check ~graph:g ~valuation () with
            | Adm.Rejected r ->
                if file <> "unsafe.tpdf" then Alcotest.fail (what ^ ": " ^ r)
            | Adm.Admitted { Adm.latency_ms; _ } -> (
                if file = "unsafe.tpdf" then Alcotest.fail (what ^ " admitted");
                let session =
                  Tpdf_fault.Chaos.session ~graph:g ~seed:0 ~specs:[]
                    ~valuation ()
                in
                match Tpdf_fault.Supervisor.step session with
                | Tpdf_fault.Supervisor.Stepped (stats, _) ->
                    Alcotest.(check (float 0.0)) what latency_ms
                      stats.Tpdf_sim.Engine.end_ms
                | _ -> Alcotest.fail (what ^ ": the step did not complete")))
          [ 2; 3 ])
    (List.filter
       (fun f -> Filename.check_suffix f ".tpdf")
       (Array.to_list (Sys.readdir graphs_dir)))

(* ------------------------------------------------------------------ *)
(* Protocol errors                                                     *)
(* ------------------------------------------------------------------ *)

let test_protocol_errors () =
  let d = daemon () in
  check_code "garbage line" "bad_request" (D.handle_line d "not json");
  check_code "missing op" "bad_request" (rpc d [ ("id", J.String "x") ]);
  check_code "unknown op" "unknown_op"
    (rpc d [ ("id", J.String "x"); ("op", J.String "frobnicate") ]);
  check_code "unknown tenant" "unknown_tenant"
    (rpc d (query_req "nobody"));
  check_code "bad tenant name" "bad_request"
    (rpc d (submit_req ~name:"no/slashes" (Lazy.force fig1)));
  check_code "bad graph" "inadmissible"
    (rpc d (submit_req ~name:"t" "tpdf graph { nonsense"));
  check_code "unsafe graph" "inadmissible"
    (rpc d
       (submit_req ~name:"t"
          (Serial.to_string (Tpdf_core.Examples.unsafe_control ()))
          ~params:[ ("p", 2) ]));
  let ok = rpc d (submit_req ~name:"t" (Lazy.force fig1)) in
  Alcotest.(check bool) "submit ok" true (is_ok ok);
  check_code "duplicate submit" "exists"
    (rpc d (submit_req ~name:"t" (Lazy.force fig1)));
  check_code "zero iterations" "bad_request"
    (rpc d (advance_req ~name:"t" 0));
  check_code "oversized advance" "overloaded"
    (rpc d (advance_req ~name:"t" (D.default_config.D.max_advance + 1)))

(* ------------------------------------------------------------------ *)
(* Capacity, queueing, shedding                                        *)
(* ------------------------------------------------------------------ *)

let test_capacity_queue_shed () =
  (* fig1 costs 7/iteration; capacity 7 fits exactly one tenant. *)
  let cfg = { D.default_config with D.capacity = 7; max_queue = 1 } in
  let d = daemon ~cfg () in
  let r1 = rpc d (submit_req ~name:"t1" (Lazy.force fig1)) in
  Alcotest.(check bool) "t1 ok" true (is_ok r1);
  Alcotest.(check (option string)) "t1 running" (Some "running")
    (match field r1 "status" with Some (J.String s) -> Some s | _ -> None);
  let r2 = rpc d (submit_req ~name:"t2" (Lazy.force fig1)) in
  Alcotest.(check (option string)) "t2 queued" (Some "queued")
    (match field r2 "status" with Some (J.String s) -> Some s | _ -> None);
  let r3 = rpc d (submit_req ~name:"t3" (Lazy.force fig1)) in
  check_code "t3 shed" "overloaded" r3;
  Alcotest.(check bool) "t3 retry hint" true
    (match J.member "error" (parse r3) with
    | Some e -> J.member "retry_after_ms" e <> None
    | None -> false);
  check_code "queued tenants do not advance" "queued"
    (rpc d (advance_req ~name:"t2" 1));
  Alcotest.(check int) "t2 queue position" 0
    (int_field (rpc d (query_req "t2")) "queue_position");
  (* Removing the running tenant frees capacity: strict FIFO promotion. *)
  let rm = rpc d [ ("id", J.String "rm"); ("op", J.String "remove"); ("name", J.String "t1") ] in
  Alcotest.(check bool) "remove ok" true (is_ok rm);
  let q2 = rpc d (query_req "t2") in
  Alcotest.(check (option string)) "t2 promoted" (Some "running")
    (match field q2 "status" with Some (J.String s) -> Some s | _ -> None);
  Alcotest.(check bool) "t2 advances after promotion" true
    (is_ok (rpc d (advance_req ~name:"t2" 1)))

(* ------------------------------------------------------------------ *)
(* Fleet fixture                                                       *)
(* ------------------------------------------------------------------ *)

(* 8 healthy tenants over three distinct graphs and valuations, plus
   one permanently faulting tenant: every firing attempt fails and the
   retry budget is exhausted, so each firing is skipped-and-substituted
   and the skip budget quarantines the tenant on its first advance. *)
let healthy =
  [
    ("h1", `Fig1, []);
    ("h2", `Fig2, [ ("p", 1) ]);
    ("h3", `Fig1, []);
    ("h4", `Fig2, [ ("p", 2) ]);
    ("h5", `Spdf, [ ("p", 2); ("q", 3) ]);
    ("h6", `Fig2, [ ("p", 3) ]);
    ("h7", `Fig1, []);
    ("h8", `Spdf, [ ("p", 1); ("q", 2) ]);
  ]

let faulter_name = "bad"

let src_of = function
  | `Fig1 -> Lazy.force fig1
  | `Fig2 -> Lazy.force fig2
  | `Spdf -> Lazy.force spdf

let fleet_cfg = { D.default_config with D.quarantine_skips = 1 }

let tenant_reqs (name, g, params) =
  let faults =
    if name = faulter_name then Some "fail:*:1.0:1000" else None
  in
  [
    submit_req ~id:("sub-" ^ name) ~name ~params ?faults ~seed:3 (src_of g);
    advance_req ~id:("a1-" ^ name) ~name 2;
    advance_req ~id:("a2-" ^ name) ~name 3;
    query_req ~id:("q-" ^ name) name;
  ]

let all_tenants =
  let before, after =
    (List.filteri (fun i _ -> i < 4) healthy,
     List.filteri (fun i _ -> i >= 4) healthy)
  in
  before @ [ (faulter_name, `Fig2, [ ("p", 2) ]) ] @ after

(* Interleave by round: all submits, all first advances, ... so every
   tenant's requests are separated by the whole fleet's. *)
let fleet_script =
  let per_tenant = List.map tenant_reqs all_tenants in
  List.concat
    (List.map
       (fun round -> List.map (fun reqs -> List.nth reqs round) per_tenant)
       [ 0; 1; 2; 3 ])

let name_of_req req =
  match List.assoc_opt "name" req with
  | Some (J.String n) -> n
  | _ -> Alcotest.fail "request without a name"

let run_script d script =
  List.map (fun req -> (name_of_req req, rpc d req)) script

let test_fleet_isolation () =
  let d = daemon ~cfg:fleet_cfg () in
  let fleet = run_script d fleet_script in
  let responses_of name =
    List.filter_map (fun (n, r) -> if n = name then Some r else None)
  in
  (* The faulter was quarantined on its first advance and stayed out. *)
  (match responses_of faulter_name fleet with
  | [ sub; a1; a2; q ] ->
      Alcotest.(check bool) "faulter admitted" true (is_ok sub);
      check_code "faulter quarantined on advance" "quarantined" a1;
      Alcotest.(check bool) "faulter reported skips" true
        (int_field a1 "skips" > 0);
      check_code "faulter stays quarantined" "quarantined" a2;
      Alcotest.(check (option string)) "faulter query status"
        (Some "quarantined")
        (match field q "status" with Some (J.String s) -> Some s | _ -> None)
  | _ -> Alcotest.fail "faulter transcript shape");
  Alcotest.(check int) "one quarantine counted" 1
    (match List.assoc_opt "serve.quarantined" (Metrics.counters (D.metrics d)) with
    | Some n -> n
    | None -> 0);
  (* Every tenant's transcript — the faulter included — is byte-identical
     to a solo daemon hosting only that tenant. *)
  List.iter
    (fun ((name, _, _) as spec) ->
      let solo = daemon ~cfg:fleet_cfg () in
      let expect = List.map (fun req -> rpc solo req) (tenant_reqs spec) in
      Alcotest.(check (list string))
        (name ^ " transcript matches solo run")
        expect
        (responses_of name fleet))
    all_tenants;
  (* Healthy tenants made full progress. *)
  List.iter
    (fun (name, _, _) ->
      Alcotest.(check int) (name ^ " done") 5
        (int_field (rpc d (query_req name)) "done"))
    healthy

(* ------------------------------------------------------------------ *)
(* Crash recovery                                                      *)
(* ------------------------------------------------------------------ *)

let phase1 =
  let per_tenant = List.map tenant_reqs all_tenants in
  List.concat
    (List.map
       (fun round -> List.map (fun reqs -> List.nth reqs round) per_tenant)
       [ 0; 1 ])

let phase2 =
  let per_tenant = List.map tenant_reqs all_tenants in
  List.concat
    (List.map
       (fun round -> List.map (fun reqs -> List.nth reqs round) per_tenant)
       [ 2; 3 ])

let test_crash_recovery () =
  with_temp_dir @@ fun dir_g ->
  with_temp_dir @@ fun dir_a ->
  let cfg dir = { fleet_cfg with D.state_dir = Some dir } in
  (* Golden daemon: never crashes. *)
  let g = daemon ~cfg:(cfg dir_g) () in
  ignore (run_script g phase1);
  let golden = run_script g phase2 in
  (* Crash daemon: runs phase 1, is dropped without any shutdown — all
     its surviving state is what the synchronous per-request checkpoint
     writes left on disk, exactly the kill -9 situation. *)
  let a = daemon ~cfg:(cfg dir_a) () in
  ignore (run_script a phase1);
  let b = daemon ~cfg:(cfg dir_a) () in
  let resumed = run_script b phase2 in
  List.iter2
    (fun (gn, gr) (bn, br) ->
      Alcotest.(check string) "same tenant order" gn bn;
      (* The quarantined faulter answers with checkpoint-derived detail
         fields when hot and zeros when cold-restored; its code and
         status are pinned below instead of the exact bytes. *)
      if gn <> faulter_name then
        Alcotest.(check string) (gn ^ " resumed byte-identically") gr br)
    golden resumed;
  let q = rpc b (query_req faulter_name) in
  Alcotest.(check (option string)) "faulter still quarantined after restart"
    (Some "quarantined")
    (match field q "status" with Some (J.String s) -> Some s | _ -> None);
  Alcotest.(check bool) "quarantine reason survives restart" true
    (match field q "reason" with
    | Some (J.String r) -> contains r "skip budget"
    | _ -> false);
  (* The restored daemon kept every survivor's progress. *)
  List.iter
    (fun (name, _, _) ->
      Alcotest.(check int) (name ^ " done after restart") 5
        (int_field (rpc b (query_req name)) "done"))
    healthy

(* ------------------------------------------------------------------ *)
(* Eviction / revival                                                  *)
(* ------------------------------------------------------------------ *)

let test_evict_revive () =
  with_temp_dir @@ fun dir ->
  let cfg =
    { D.default_config with D.state_dir = Some dir; max_resident = 1 }
  in
  let d = daemon ~cfg () in
  let baseline = daemon () in
  let reqs name =
    [ submit_req ~id:("s-" ^ name) ~name (Lazy.force fig1);
      advance_req ~id:("a-" ^ name) ~name 2 ]
  in
  (* Submitting e2 evicts e1 (LRU, max_resident 1). *)
  let r1 = List.map (rpc d) (reqs "e1") in
  let b1 = List.map (rpc baseline) (reqs "e1") in
  Alcotest.(check (list string)) "e1 matches unevicted daemon" b1 r1;
  ignore (rpc d (submit_req ~id:"s-e2" ~name:"e2" (Lazy.force fig1)));
  Alcotest.(check bool) "e1 evicted" false
    (match field (rpc d (query_req "e1")) "resident" with
    | Some (J.Bool b) -> b
    | _ -> true);
  (* Advancing the cold tenant revives it with identical responses. *)
  let r = rpc d (advance_req ~id:"a2-e1" ~name:"e1" 3) in
  let b = rpc baseline (advance_req ~id:"a2-e1" ~name:"e1" 3) in
  Alcotest.(check string) "revived advance is byte-identical" b r;
  (* Explicit evict op round-trips too. *)
  let ev = rpc d [ ("id", J.String "ev"); ("op", J.String "evict"); ("name", J.String "e2") ] in
  Alcotest.(check bool) "evict ok" true (is_ok ev);
  Alcotest.(check bool) "e2 advances after explicit evict" true
    (is_ok (rpc d (advance_req ~name:"e2" 1)));
  (* Without a state dir, evict must refuse rather than lose the tenant. *)
  let d2 = daemon () in
  ignore (rpc d2 (submit_req ~name:"m" (Lazy.force fig1)));
  check_code "evict without state dir" "no_state_dir"
    (rpc d2 [ ("id", J.String "ev"); ("op", J.String "evict"); ("name", J.String "m") ])

(* ------------------------------------------------------------------ *)
(* Reconfiguration                                                     *)
(* ------------------------------------------------------------------ *)

let test_reconfigure () =
  let d = daemon () in
  let sub = rpc d (submit_req ~name:"r" ~params:[ ("p", 1) ] (Lazy.force fig2)) in
  Alcotest.(check bool) "submit ok" true (is_ok sub);
  let cost1 = int_field sub "cost" in
  let rc =
    rpc d
      [
        ("id", J.String "rc");
        ("op", J.String "reconfigure");
        ("name", J.String "r");
        ("params", J.Obj [ ("p", J.Int 4) ]);
      ]
  in
  Alcotest.(check bool) "reconfigure ok" true (is_ok rc);
  let cost4 = int_field rc "cost" in
  Alcotest.(check bool) "p=4 costs more than p=1" true (cost4 > cost1);
  Alcotest.(check int) "query sees the new cost" cost4
    (int_field (rpc d (query_req "r")) "cost");
  (* An inadmissible valuation is rejected and leaves the tenant as-is. *)
  check_code "unbound reconfigure" "inadmissible"
    (rpc d
       [
         ("id", J.String "rc2");
         ("op", J.String "reconfigure");
         ("name", J.String "r");
       ]);
  Alcotest.(check int) "cost unchanged after rejection" cost4
    (int_field (rpc d (query_req "r")) "cost");
  Alcotest.(check bool) "tenant still advances" true
    (is_ok (rpc d (advance_req ~name:"r" 1)))

(* A resident tenant keeps its supervisor session across advances; a
   reconfigure must retire it.  The twin reaches the same point through
   an eviction, so its advance rebuilds everything from the checkpoint
   store: any state the live session kept from p=1 shows up as a
   difference. *)
let test_reconfigure_rebuilds_session () =
  with_temp_dir @@ fun dir ->
  let firings d = Metrics.counter (D.metrics d) "serve.firings" in
  let reconfigure_p4 =
    [
      ("id", J.String "rc");
      ("op", J.String "reconfigure");
      ("name", J.String "r");
      ("params", J.Obj [ ("p", J.Int 4) ]);
    ]
  in
  let script d ~evict =
    ignore (rpc d (submit_req ~name:"r" ~params:[ ("p", 1) ] (Lazy.force fig2)));
    let f0 = firings d in
    ignore (rpc d (advance_req ~id:"a1" ~name:"r" 2));
    let f1 = firings d in
    Alcotest.(check bool) "reconfigure ok" true (is_ok (rpc d reconfigure_p4));
    if evict then
      Alcotest.(check bool) "evict ok" true
        (is_ok
           (rpc d
              [ ("id", J.String "ev"); ("op", J.String "evict"); ("name", J.String "r") ]));
    let resp = rpc d (advance_req ~id:"a2" ~name:"r" 2) in
    (resp, f1 - f0, firings d - f1)
  in
  let live, p1_firings, p4_firings = script (daemon ()) ~evict:false in
  let twin, _, twin_firings =
    script
      (daemon ~cfg:{ D.default_config with D.state_dir = Some dir } ())
      ~evict:true
  in
  Alcotest.(check string) "advance after reconfigure = evicted twin" twin live;
  Alcotest.(check int) "same firings as the twin" twin_firings p4_firings;
  (* p=4 iterations, run fresh at p=4 *)
  let fresh = daemon () in
  ignore (rpc fresh (submit_req ~name:"r" ~params:[ ("p", 4) ] (Lazy.force fig2)));
  let f0 = firings fresh in
  ignore (rpc fresh (advance_req ~name:"r" 2));
  Alcotest.(check int) "firings reflect p=4" (firings fresh - f0) p4_firings;
  Alcotest.(check bool) "p=4 fires more than p=1" true (p4_firings > p1_firings)

(* Sessions are built once per resident configuration: advances reuse
   them; only a submit, a reconfigure or a revive leads to a new one. *)
let test_compiles_counter () =
  with_temp_dir @@ fun dir ->
  let d = daemon ~cfg:{ D.default_config with D.state_dir = Some dir } () in
  let compiles () = Metrics.counter (D.metrics d) "serve.compiles" in
  ignore (rpc d (submit_req ~name:"c" ~params:[ ("p", 2) ] (Lazy.force fig2)));
  for i = 1 to 50 do
    Alcotest.(check bool) "advance ok" true
      (is_ok (rpc d (advance_req ~id:(string_of_int i) ~name:"c" 1)))
  done;
  Alcotest.(check int) "50 advances, one session" 1 (compiles ());
  ignore (rpc d (query_req "c"));
  ignore (rpc d (advance_req ~name:"c" 5));
  Alcotest.(check int) "queries and multi-iteration advances reuse it" 1
    (compiles ());
  ignore
    (rpc d
       [
         ("id", J.String "rc");
         ("op", J.String "reconfigure");
         ("name", J.String "c");
         ("params", J.Obj [ ("p", J.Int 3) ]);
       ]);
  ignore (rpc d (advance_req ~name:"c" 3));
  Alcotest.(check int) "a reconfigure adds one" 2 (compiles ());
  ignore
    (rpc d [ ("id", J.String "ev"); ("op", J.String "evict"); ("name", J.String "c") ]);
  ignore (rpc d (advance_req ~name:"c" 3));
  Alcotest.(check int) "a revive adds one" 3 (compiles ());
  Alcotest.(check int) "done" 61 (int_field (rpc d (query_req "c")) "done")

(* ------------------------------------------------------------------ *)
(* Tick, metrics, checkpoint ops                                       *)
(* ------------------------------------------------------------------ *)

let test_tick () =
  let d =
    match D.create fleet_cfg with Ok d -> d | Error e -> Alcotest.fail e
  in
  List.iter (fun spec -> ignore (rpc d (List.hd (tenant_reqs spec)))) all_tenants;
  let t =
    rpc d [ ("id", J.String "t"); ("op", J.String "tick"); ("iterations", J.Int 2) ]
  in
  let queries = List.map (fun (name, _, _) -> rpc d (query_req name)) all_tenants in
  Alcotest.(check bool) "tick ok" true (is_ok t);
  Alcotest.(check int) "healthy tenants advanced" (List.length healthy)
    (int_field t "advanced");
  (match field t "quarantined" with
  | Some (J.List [ J.String n ]) ->
      Alcotest.(check string) "faulter quarantined by tick" faulter_name n
  | _ -> Alcotest.fail "tick should quarantine exactly the faulter");
  List.iter2
    (fun (name, _, _) q ->
      if name <> faulter_name then
        Alcotest.(check int) (name ^ " ticked twice") 2 (int_field q "done"))
    all_tenants queries

let test_metrics_and_checkpoint () =
  with_temp_dir @@ fun dir ->
  let cfg = { D.default_config with D.state_dir = Some dir } in
  let d = daemon ~cfg () in
  ignore (rpc d (submit_req ~name:"m1" (Lazy.force fig1)));
  ignore (rpc d (advance_req ~name:"m1" 2));
  let m = rpc d [ ("id", J.String "m"); ("op", J.String "metrics") ] in
  let text =
    match field m "openmetrics" with
    | Some (J.String s) -> s
    | _ -> Alcotest.fail "metrics response lacks openmetrics text"
  in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("metrics expose " ^ needle) true
        (contains text needle))
    [
      "tpdf_serve_tenant_iterations{tenant=\"m1\"} 2";
      "tpdf_serve_requests_total";
      "tpdf_serve_iterations_total 2";
      "# EOF";
    ];
  let ck = rpc d [ ("id", J.String "ck"); ("op", J.String "checkpoint") ] in
  Alcotest.(check bool) "checkpoint ok" true (is_ok ck);
  Alcotest.(check int) "one tenant persisted" 1 (int_field ck "persisted");
  let d2 = daemon () in
  check_code "checkpoint without state dir" "no_state_dir"
    (rpc d2 [ ("id", J.String "ck"); ("op", J.String "checkpoint") ]);
  (* Shutdown flips the stopping flag the server loop watches. *)
  Alcotest.(check bool) "not stopping" false (D.stopping d);
  Alcotest.(check bool) "shutdown ok" true
    (is_ok (rpc d [ ("id", J.String "z"); ("op", J.String "shutdown") ]));
  Alcotest.(check bool) "stopping" true (D.stopping d)

(* A tenant's series live exactly as long as the tenant: once removed
   (or migrated away, which removes it the same way) the next exposition
   no longer names it, while the survivors' series stay. *)
let test_metrics_forget_removed () =
  let d = daemon () in
  let metrics () =
    match field (rpc d [ ("id", J.String "m"); ("op", J.String "metrics") ])
            "openmetrics"
    with
    | Some (J.String s) -> s
    | _ -> Alcotest.fail "metrics response lacks openmetrics text"
  in
  List.iter
    (fun name ->
      ignore (rpc d (submit_req ~name (Lazy.force fig1)));
      ignore (rpc d (advance_req ~name 1)))
    [ "gone"; "kept" ];
  Alcotest.(check bool) "series exported while live" true
    (contains (metrics ()) "{tenant=\"gone\"}");
  Alcotest.(check bool) "remove ok" true
    (is_ok
       (rpc d
          [ ("id", J.String "rm"); ("op", J.String "remove");
            ("name", J.String "gone") ]));
  let text = metrics () in
  Alcotest.(check bool) "no series left for the removed tenant" false
    (contains text "{tenant=\"gone\"}");
  Alcotest.(check bool) "survivor's series kept" true
    (contains text "tpdf_serve_tenant_iterations{tenant=\"kept\"} 1");
  Alcotest.(check bool) "fleet gauge follows the table" true
    (contains text "tpdf_serve_tenants 1\n")

(* The [metrics_out] file is rewritten after every request with the
   same exposition the [metrics] op answers, fleet and per-tenant gauges
   included — also when no client ever asks for [metrics] — and it
   forgets a removed tenant the same way. *)
let test_metrics_out_file () =
  with_temp_dir @@ fun dir ->
  Unix.mkdir dir 0o755;
  let path = Filename.concat dir "fleet.prom" in
  let d = daemon ~cfg:{ D.default_config with D.metrics_out = Some path } () in
  ignore (rpc d (submit_req ~name:"m1" (Lazy.force fig1)));
  ignore (rpc d (advance_req ~name:"m1" 2));
  let text = read_file path in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("metrics file exposes " ^ needle) true
        (contains text needle))
    [
      "tpdf_serve_tenant_iterations{tenant=\"m1\"} 2";
      "tpdf_serve_tenants 1\n";
      "tpdf_serve_capacity ";
      "tpdf_serve_queue_depth 0\n";
      "tpdf_serve_iterations_total 2";
      "# EOF";
    ];
  ignore
    (rpc d
       [ ("id", J.String "rm"); ("op", J.String "remove");
         ("name", J.String "m1") ]);
  let text = read_file path in
  Alcotest.(check bool) "no series left for the removed tenant" false
    (contains text "{tenant=\"m1\"}");
  Alcotest.(check bool) "fleet gauge follows the table" true
    (contains text "tpdf_serve_tenants 0\n")

(* A state dir written in another checkpoint format version is refused
   when the daemon starts — naming the file and the version — instead of
   being skipped as torn and coming up as an empty fleet. *)
let test_foreign_state_dir_refused () =
  with_temp_dir @@ fun dir ->
  let cfg = { D.default_config with D.state_dir = Some dir } in
  let d = daemon ~cfg () in
  ignore (rpc d (submit_req ~name:"old" (Lazy.force fig1)));
  ignore (rpc d (advance_req ~name:"old" 2));
  Ckpt_v1.rewrite_dir dir;
  match D.create cfg with
  | Ok d' ->
      Alcotest.failf "started on a tpdf-ckpt 1 state dir: %s"
        (rpc d' [ ("id", J.String "l"); ("op", J.String "list") ])
  | Error e ->
      Alcotest.(check bool) ("names the manifest file: " ^ e) true
        (contains e (Filename.concat dir "manifest"));
      Alcotest.(check bool) ("names the version: " ^ e) true
        (contains e "tpdf-ckpt 1")

(* ---------- endpoint parsing ---------- *)

let test_parse_endpoint () =
  let module S = Tpdf_serve.Server in
  let check_ep name s expected =
    match (S.parse_endpoint s, expected) with
    | Ok (S.Tcp (h, p)), `Tcp (h', p') ->
        Alcotest.(check string) (name ^ " host") h' h;
        Alcotest.(check int) (name ^ " port") p' p
    | Ok (S.Unix_path path), `Unix path' ->
        Alcotest.(check string) (name ^ " path") path' path
    | Error _, `Error -> ()
    | Ok _, `Error -> Alcotest.failf "%s: expected an error for %S" name s
    | Ok _, _ -> Alcotest.failf "%s: wrong endpoint kind for %S" name s
    | Error e, _ -> Alcotest.failf "%s: unexpected error for %S: %s" name s e
  in
  check_ep "tcp scheme" "tcp:127.0.0.1:7643" (`Tcp ("127.0.0.1", 7643));
  check_ep "tcp localhost" "tcp:localhost:80" (`Tcp ("localhost", 80));
  check_ep "unix scheme" "unix:/tmp/x.sock" (`Unix "/tmp/x.sock");
  check_ep "unix scheme relative" "unix:rel.sock" (`Unix "rel.sock");
  check_ep "bare host:port" "localhost:8080" (`Tcp ("localhost", 8080));
  check_ep "bare path" "/tmp/x.sock" (`Unix "/tmp/x.sock");
  check_ep "bare name" "daemon.sock" (`Unix "daemon.sock");
  (* A path with a colon segment still parses as a path thanks to '/'. *)
  check_ep "path with colon" "/tmp/a:b/x.sock" (`Unix "/tmp/a:b/x.sock");
  check_ep "tcp missing port" "tcp:nope" `Error;
  check_ep "tcp bad port" "tcp:host:notaport" `Error;
  check_ep "tcp out-of-range port" "tcp:host:70000" `Error;
  check_ep "empty" "" `Error

(* ------------------------------------------------------------------ *)
(* Protocol fuzz: malformed wire input never crashes the daemon        *)
(* ------------------------------------------------------------------ *)

module Prng = Tpdf_util.Prng
module NF = Tpdf_serve.Netfault
module C = Tpdf_serve.Client

(* Every fuzz case must produce one well-formed response line: parsable
   JSON object with a boolean "ok" — never an exception, never silence. *)
let well_formed what resp =
  match J.of_string resp with
  | Error e -> Alcotest.failf "%s: unparsable response %S: %s" what resp e
  | Ok v -> (
      match J.member "ok" v with
      | Some (J.Bool _) -> ()
      | _ -> Alcotest.failf "%s: response without ok flag: %S" what resp)

let fuzz_corpus seed n =
  let rng = Prng.create seed in
  let valid =
    J.to_string
      (J.Obj (submit_req ~id:"f" ~name:"fz" (Lazy.force fig1)))
  in
  let printable rng len =
    String.init len (fun _ -> Char.chr (32 + Prng.int rng 95))
  in
  let raw rng len = String.init len (fun _ -> Char.chr (Prng.int rng 256)) in
  let case i =
    match i mod 8 with
    | 0 -> raw rng (Prng.int rng 80)
    | 1 -> printable rng (Prng.int rng 80)
    | 2 ->
        (* truncation of a valid request: torn frame delivered whole *)
        String.sub valid 0 (Prng.int rng (String.length valid))
    | 3 ->
        (* valid JSON, wrong shape *)
        List.nth
          [ "42"; "\"op\""; "[1,2,3]"; "null"; "true"; "{}"; "[]" ]
          (Prng.int rng 7)
    | 4 ->
        (* op field of the wrong type or unknown *)
        List.nth
          [
            {|{"op":42}|};
            {|{"op":null}|};
            {|{"op":"nosuch"}|};
            {|{"op":"advance","name":42}|};
            {|{"op":"submit","name":"x","graph":17}|};
            {|{"op":"migrate_offer","name":"x","ckpt":"junk","cksum":"0"}|};
          ]
          (Prng.int rng 6)
    | 5 ->
        (* deep nesting *)
        let d = 1 + Prng.int rng 60 in
        String.concat "" [ String.make d '['; String.make d ']' ]
    | 6 ->
        (* two requests glued on one line: not valid JSON *)
        valid ^ valid
    | _ ->
        (* valid prefix + random tail *)
        String.sub valid 0 (Prng.int rng (String.length valid))
        ^ printable rng (Prng.int rng 20)
  in
  List.init n case

let test_protocol_fuzz () =
  let d = daemon () in
  List.iteri
    (fun i line -> well_formed (Printf.sprintf "fuzz[%d]" i) (D.handle_line d line))
    (fuzz_corpus 0xF022 400);
  (* The daemon is still fully functional afterwards. *)
  Alcotest.(check bool) "submit after fuzz" true
    (is_ok (rpc d (submit_req ~name:"after" (Lazy.force fig1))));
  Alcotest.(check int) "advance after fuzz" 2
    (int_field (rpc d (advance_req ~name:"after" 2)) "done")

(* ------------------------------------------------------------------ *)
(* Netfault plans                                                      *)
(* ------------------------------------------------------------------ *)

let test_netfault_parse () =
  let round s =
    match NF.parse_specs s with
    | Ok specs -> NF.specs_to_string specs
    | Error e -> Alcotest.failf "parse %S: %s" s e
  in
  Alcotest.(check string) "roundtrip"
    "shortread:0.2:7,tear:0.01,stall:0.05:12,disconnect:0.005,delay:0.1:5,dup:0.02,shortwrite:0.3:1"
    (round
       "shortread:0.2:7,tear:0.01,stall:0.05:12,disconnect:0.005,delay:0.1:5,dup:0.02,shortwrite:0.3:1");
  List.iter
    (fun bad ->
      match NF.parse_specs bad with
      | Ok _ -> Alcotest.failf "accepted %S" bad
      | Error _ -> ())
    [ ""; "nope:0.5"; "tear:1.5"; "tear:x"; "tear:0.5:3"; "shortread:0.5:0";
      "delay:0.5:-1"; "shortread:0.5:1:2" ]

let test_netfault_determinism () =
  let specs =
    match
      NF.parse_specs "shortread:0.3:4,tear:0.2,disconnect:0.1,delay:0.5:8,dup:0.15"
    with
    | Ok s -> s
    | Error e -> Alcotest.fail e
  in
  let plan = NF.make ~seed:11 specs in
  let verdicts conn =
    List.init 64 (fun op -> NF.verdict plan ~conn ~op ~len:100)
  in
  (* Pure: same (seed, conn, op) → same verdicts, independent of order. *)
  Alcotest.(check bool) "replay identical" true (verdicts 3 = verdicts 3);
  Alcotest.(check bool) "connections differ" true (verdicts 3 <> verdicts 4);
  Alcotest.(check bool) "seeds differ" true
    (verdicts 3
    <> List.init 64 (fun op ->
           NF.verdict (NF.make ~seed:12 specs) ~conn:3 ~op ~len:100));
  (* One draw per spec whether or not it fires: zeroing one spec's
     probability must not shift any other spec's stream. *)
  let zero_tear =
    List.map
      (fun (s : NF.spec) ->
        match s.NF.kind with
        | NF.Tear -> NF.spec ~prob:0.0 NF.Tear
        | _ -> s)
      specs
  in
  let plan' = NF.make ~seed:11 zero_tear in
  List.iteri
    (fun op (v : NF.verdict) ->
      let v' = NF.verdict plan' ~conn:3 ~op ~len:100 in
      Alcotest.(check bool)
        (Printf.sprintf "op %d: non-tear faults unshifted" op)
        true
        ({ v with NF.v_tear_at = None } = v'))
    (verdicts 3);
  (* The empty plan is transparent. *)
  Alcotest.(check bool) "none is clean" true
    (NF.verdict NF.none ~conn:0 ~op:0 ~len:10 = NF.clean)

(* ------------------------------------------------------------------ *)
(* Resilient client                                                    *)
(* ------------------------------------------------------------------ *)

let test_backoff () =
  let p = { C.default_policy with C.backoff_ms = 10.0; backoff_max_ms = 50.0 } in
  (* Jitter scales base by [0.5, 1.0); the base doubles then caps. *)
  List.iter
    (fun (attempt, base) ->
      let b = C.backoff_ms p ~op:7 ~attempt in
      Alcotest.(check bool)
        (Printf.sprintf "attempt %d in [%g, %g)" attempt (base /. 2.0) base)
        true
        (b >= base /. 2.0 && b < base))
    [ (1, 10.0); (2, 20.0); (3, 40.0); (4, 50.0); (5, 50.0) ];
  Alcotest.(check bool) "pure" true
    (C.backoff_ms p ~op:7 ~attempt:2 = C.backoff_ms p ~op:7 ~attempt:2);
  Alcotest.(check bool) "ops decorrelated" true
    (C.backoff_ms p ~op:7 ~attempt:2 <> C.backoff_ms p ~op:8 ~attempt:2)

let test_client_call () =
  let p =
    { C.deadline_ms = 100.0; retries = 3; backoff_ms = 10.0;
      backoff_max_ms = 80.0; seed = 5 }
  in
  (* Fail the first k attempts at transport level, then answer. *)
  let transport k =
    let calls = ref 0 and slept = ref 0.0 in
    ( {
        C.call =
          (fun ~deadline_ms:_ line ->
            incr calls;
            if !calls <= k then Error (C.Conn "injected reset")
            else Ok ("echo:" ^ line));
        sleep = (fun ms -> slept := !slept +. ms);
      },
      calls,
      slept )
  in
  let tr, calls, slept = transport 2 in
  let out = C.call p tr ~op:0 "req" in
  Alcotest.(check bool) "recovers" true (out.C.response = Ok "echo:req");
  Alcotest.(check int) "attempts" 3 out.C.attempts;
  Alcotest.(check int) "transport calls" 3 !calls;
  Alcotest.(check bool) "slept the backoffs" true
    (!slept = out.C.slept_ms
    && out.C.slept_ms
       = C.backoff_ms p ~op:0 ~attempt:1 +. C.backoff_ms p ~op:0 ~attempt:2);
  (* Retries exhausted: the last failure surfaces. *)
  let tr, calls, _ = transport 99 in
  let out = C.call p tr ~op:1 "req" in
  Alcotest.(check bool) "gives up with an error" true
    (match out.C.response with Error _ -> true | Ok _ -> false);
  Alcotest.(check int) "all attempts used" 4 !calls;
  (* A well-formed (error) response is never retried. *)
  let calls = ref 0 in
  let tr =
    {
      C.call =
        (fun ~deadline_ms:_ _ ->
          incr calls;
          Ok {|{"id":null,"ok":false,"error":{"code":"quarantined","msg":"x"}}|});
      sleep = (fun _ -> Alcotest.fail "must not back off on a response");
    }
  in
  ignore (C.call p tr ~op:2 "req");
  Alcotest.(check int) "error responses are terminal" 1 !calls

let test_ensure_rid () =
  Alcotest.(check string) "adds rid"
    (J.to_string (J.Obj [ ("rid", J.String "r1"); ("op", J.String "ping") ]))
    (C.ensure_rid {|{"op":"ping"}|} ~rid:"r1");
  Alcotest.(check string) "keeps existing rid"
    {|{"rid":"mine","op":"ping"}|}
    (C.ensure_rid {|{"rid":"mine","op":"ping"}|} ~rid:"r1");
  Alcotest.(check string) "non-object untouched" "[1]"
    (C.ensure_rid "[1]" ~rid:"r1")

(* ------------------------------------------------------------------ *)
(* Idempotency keys                                                    *)
(* ------------------------------------------------------------------ *)

let test_rid_cache () =
  let d = daemon ~cfg:{ D.default_config with D.max_advance = 4 } () in
  ignore (rpc d (submit_req ~name:"i" (Lazy.force fig1)));
  let adv = ("rid", J.String "adv-1") :: advance_req ~id:"a" ~name:"i" 2 in
  let first = rpc d adv in
  Alcotest.(check int) "advanced" 2 (int_field first "done");
  (* Replaying the same rid returns the same bytes and does NOT
     re-advance — the retry-after-lost-response case. *)
  let again = rpc d adv in
  Alcotest.(check string) "byte-identical replay" first again;
  Alcotest.(check int) "no double advance" 2
    (int_field (rpc d (query_req "i")) "done");
  (* A different rid with the same body is a new logical request. *)
  let third = rpc d (("rid", J.String "adv-2") :: advance_req ~id:"a" ~name:"i" 2) in
  Alcotest.(check int) "fresh rid re-executes" 4 (int_field third "done");
  (* Transient refusals are not poisoned into the cache: an oversized
     advance sheds with [overloaded]; re-using its rid with an
     acceptable request must execute, not replay the refusal. *)
  let big = ("rid", J.String "retry-me") :: advance_req ~id:"b" ~name:"i" 99 in
  check_code "oversized advance shed" "overloaded" (rpc d big);
  let ok2 = rpc d (("rid", J.String "retry-me") :: advance_req ~id:"b" ~name:"i" 1) in
  Alcotest.(check int) "transient code was not cached" 5 (int_field ok2 "done");
  (* Cache disabled: replay re-executes. *)
  let d0 = daemon ~cfg:{ D.default_config with D.rid_cache = 0 } () in
  ignore (rpc d0 (submit_req ~name:"i" (Lazy.force fig1)));
  ignore (rpc d0 (("rid", J.String "x") :: advance_req ~name:"i" 1));
  ignore (rpc d0 (("rid", J.String "x") :: advance_req ~name:"i" 1));
  Alcotest.(check int) "rid_cache=0 re-executes" 2
    (int_field (rpc d0 (query_req "i")) "done")

(* ------------------------------------------------------------------ *)
(* Drain                                                               *)
(* ------------------------------------------------------------------ *)

let test_drain () =
  with_temp_dir @@ fun dir ->
  let d = daemon ~cfg:{ D.default_config with D.state_dir = Some dir } () in
  ignore (rpc d (submit_req ~name:"t" (Lazy.force fig1)));
  let dr = rpc d [ ("id", J.String "d"); ("op", J.String "drain") ] in
  Alcotest.(check bool) "drain ok" true (is_ok dr);
  Alcotest.(check bool) "reports draining" true
    (field dr "draining" = Some (J.Bool true));
  Alcotest.(check bool) "not stopping without stop:true" false (D.stopping d);
  Alcotest.(check bool) "daemon reports draining" true (D.draining d);
  (* New work is refused; existing tenants still serve. *)
  check_code "submit while draining" "draining"
    (rpc d (submit_req ~name:"new" (Lazy.force fig1)));
  check_code "migration offers refused" "draining"
    (rpc d
       [
         ("op", J.String "migrate_offer");
         ("name", J.String "x");
         ("ckpt", J.String "whatever");
         ("cksum", J.String "0");
       ]);
  Alcotest.(check int) "existing tenant advances" 2
    (int_field (rpc d (advance_req ~name:"t" 2)) "done");
  Alcotest.(check bool) "ping flags draining" true
    (field (rpc d [ ("op", J.String "ping") ]) "draining" = Some (J.Bool true));
  (* drain --stop also stops the accept loop. *)
  let dr2 =
    rpc d [ ("op", J.String "drain"); ("stop", J.Bool true) ]
  in
  Alcotest.(check bool) "drain stop ok" true (is_ok dr2);
  Alcotest.(check bool) "stopping" true (D.stopping d)

(* ------------------------------------------------------------------ *)
(* Live migration: two-phase handoff under kill -9 at every point      *)
(* ------------------------------------------------------------------ *)

(* An in-process two-daemon fleet.  Daemons live in mutable slots so a
   "crashed" daemon (slot = None) can be reloaded from its state
   directory; dialing a dead slot fails like a refused connection, and
   a peer crashing mid-request (Injected_crash escaping its dispatch)
   kills the slot and surfaces as a reset — exactly what a SIGKILLed
   process looks like over a socket. *)
type slot = { mutable live : D.t option; mutable cfg : D.config }

let mk_dial slots self =
  fun addr line ->
    match List.assoc_opt addr slots with
    | None -> Error (Printf.sprintf "no route to %s" addr)
    | Some _ when addr = self -> Error "daemon cannot dial itself"
    | Some s -> (
        match s.live with
        | None -> Error "connection refused"
        | Some d -> (
            match D.handle_line d line with
            | resp -> Ok resp
            | exception D.Injected_crash _ ->
                s.live <- None;
                Error "connection reset by peer"))

let boot ?(mk = mk_dial) slots name =
  let s = List.assoc name slots in
  match D.create ~dial:(mk slots name) s.cfg with
  | Ok d ->
      s.live <- Some d;
      d
  | Error e -> Alcotest.failf "boot %s: %s" name e

(* Reload a crashed daemon from its durable state, crash point disarmed
   — the restart after kill -9. *)
let reboot ?mk slots name =
  let s = List.assoc name slots in
  s.cfg <- { s.cfg with D.crash_at = None };
  ignore (boot ?mk slots name)

(* Issue a request to one daemon; an [Injected_crash] escaping the
   handler is the daemon SIGKILLing itself mid-request — the caller
   sees no response and the slot dies. *)
let rpc_on slots name fields =
  let s = List.assoc name slots in
  match s.live with
  | None -> Alcotest.failf "rpc to dead daemon %s" name
  | Some d -> (
      match D.handle_line d (J.to_string (J.Obj fields)) with
      | resp -> Some resp
      | exception D.Injected_crash _ ->
          s.live <- None;
          None)

let migrate_req name ~to_ ~from =
  [
    ("id", J.String "m");
    ("op", J.String "migrate");
    ("name", J.String name);
    ("to", J.String to_);
    ("from", J.String from);
  ]

let resolve_req name =
  [ ("id", J.String "r"); ("op", J.String "resolve"); ("name", J.String name) ]

(* Which daemons hold any copy of [name], and in what status. *)
let holders slots name =
  List.filter_map
    (fun (nm, s) ->
      match s.live with
      | None -> None
      | Some d ->
          let r = D.handle_line d (J.to_string (J.Obj (query_req name))) in
          if not (is_ok r) then None
          else
            match field r "status" with
            | Some (J.String st) -> Some (nm, st)
            | _ -> Some (nm, "?"))
    slots

let settled slots name =
  match holders slots name with [ (nm, "running") ] -> Some nm | _ -> None

(* Send [resolve] to every live daemon until exactly one Running copy
   remains.  The protocol converges in one or two rounds; ten is a
   divergence alarm, not a retry budget. *)
let resolve_all slots name =
  let rec go round =
    if round > 10 then
      Alcotest.failf "resolve did not converge: holders %s"
        (String.concat ","
           (List.map (fun (nm, st) -> nm ^ ":" ^ st) (holders slots name)))
    else
      match settled slots name with
      | Some owner -> owner
      | None ->
          List.iter
            (fun (nm, s) ->
              if s.live <> None then ignore (rpc_on slots nm (resolve_req name)))
            slots;
          go (round + 1)
  in
  go 0

let newest_ckpt state_dir name =
  let d = Filename.concat (Filename.concat state_dir "tenants") name in
  match List.sort compare (Array.to_list (Sys.readdir d)) with
  | [] -> Alcotest.failf "no checkpoints under %s" d
  | files -> read_file (Filename.concat d (List.hd (List.rev files)))

(* One kill -9 scenario: daemons A and B, tenant advanced to 3 on A,
   then [migrate] with a crash injected at [crash_a]/[crash_b]; the
   dead daemon reboots from its state directory, [resolve] converges,
   and the surviving copy must live on exactly [expect] with state
   byte-identical to a control daemon that never migrated. *)
let run_migration_scenario ?(label = "") ~crash_a ~crash_b ~expect () =
  let check_s what = Alcotest.(check string) (label ^ ": " ^ what) in
  with_temp_dir @@ fun dir_a ->
  with_temp_dir @@ fun dir_b ->
  with_temp_dir @@ fun dir_c ->
  let cfg dir crash =
    { D.default_config with D.state_dir = Some dir; crash_at = crash }
  in
  let control = daemon ~cfg:(cfg dir_c None) () in
  Alcotest.(check bool) "control submit" true
    (is_ok (rpc control (submit_req ~name:"mv" (Lazy.force fig1))));
  ignore (rpc control (advance_req ~name:"mv" 3));
  let slots =
    [
      ("A", { live = None; cfg = cfg dir_a crash_a });
      ("B", { live = None; cfg = cfg dir_b crash_b });
    ]
  in
  ignore (boot slots "A");
  ignore (boot slots "B");
  Alcotest.(check bool) "fleet submit" true
    (match rpc_on slots "A" (submit_req ~name:"mv" (Lazy.force fig1)) with
    | Some r -> is_ok r
    | None -> false);
  ignore (rpc_on slots "A" (advance_req ~name:"mv" 3));
  ignore (rpc_on slots "A" (migrate_req "mv" ~to_:"B" ~from:"A"));
  List.iter
    (fun (nm, s) -> if s.live = None then reboot slots nm)
    slots;
  let owner = resolve_all slots "mv" in
  check_s "single owner" expect owner;
  let surv =
    match (List.assoc owner slots).live with
    | Some d -> d
    | None -> Alcotest.fail "owner daemon died"
  in
  Alcotest.(check int) "no iteration lost or replayed" 3
    (int_field (D.handle_line surv (J.to_string (J.Obj (query_req "mv")))) "done");
  (* Forward progress answers byte for byte like the control... *)
  let adv d = D.handle_line d (J.to_string (J.Obj (advance_req ~name:"mv" 2))) in
  check_s "post-handoff transcript matches control" (adv control) (adv surv);
  (* ...and the freshly written durable checkpoint is byte-identical
     to the unmigrated control's. *)
  let surv_dir = if owner = "A" then dir_a else dir_b in
  check_s "checkpoint bytes match control" (newest_ckpt dir_c "mv")
    (newest_ckpt surv_dir "mv")

let migration_scenarios =
  [
    ("clean handoff", None, None, "B");
    ("kill -9 src after mark", Some "src_after_mark", None, "A");
    ("kill -9 src after offer", Some "src_after_offer", None, "A");
    ("kill -9 dst after prepare", None, Some "dst_after_prepare", "A");
    ("kill -9 src after commit", Some "src_after_commit", None, "B");
    ("kill -9 dst after commit", None, Some "dst_after_commit", "B");
    ("kill -9 src after release", Some "src_after_release", None, "B");
  ]

(* Chaotic dial: every inter-daemon message (request and response
   independently) can be lost, per a seeded fault plan.  A bounded
   retry/resolve loop must still land the tenant on B, exactly once,
   byte-identical to the control — across a sweep of seeds. *)
let chaos_mk plan ops slots self =
  let base = mk_dial slots self in
  fun addr line ->
    let op = !ops in
    incr ops;
    let v = NF.verdict plan ~conn:0 ~op ~len:(String.length line) in
    if v.NF.v_drop then Error "injected: request lost"
    else
      match base addr line with
      | Error e -> Error e
      | Ok resp ->
          let v' = NF.verdict plan ~conn:1 ~op ~len:(String.length resp) in
          if v'.NF.v_drop then Error "injected: response lost" else Ok resp

let test_migration_chaotic_dial () =
  List.iter
    (fun seed ->
      with_temp_dir @@ fun dir_a ->
      with_temp_dir @@ fun dir_b ->
      let t = Printf.sprintf "seed %d: " seed in
      let control = daemon () in
      ignore (rpc control (submit_req ~name:"mv" (Lazy.force fig1)));
      ignore (rpc control (advance_req ~name:"mv" 3));
      let slots =
        [
          ("A", { live = None; cfg = { D.default_config with D.state_dir = Some dir_a } });
          ("B", { live = None; cfg = { D.default_config with D.state_dir = Some dir_b } });
        ]
      in
      let plan = NF.make ~seed [ NF.spec ~prob:0.3 NF.Disconnect ] in
      let mk = chaos_mk plan (ref 0) in
      ignore (boot ~mk slots "A");
      ignore (boot ~mk slots "B");
      ignore (rpc_on slots "A" (submit_req ~name:"mv" (Lazy.force fig1)));
      ignore (rpc_on slots "A" (advance_req ~name:"mv" 3));
      let status_on nm =
        List.assoc_opt nm (holders slots "mv")
      in
      let rec drive n =
        if n > 100 then
          Alcotest.failf "%sno convergence after %d rounds (holders %s)" t n
            (String.concat ","
               (List.map (fun (nm, st) -> nm ^ ":" ^ st) (holders slots "mv")))
        else if not (status_on "B" = Some "running" && status_on "A" = None)
        then begin
          (match status_on "A" with
          | Some "running" ->
              ignore (rpc_on slots "A" (migrate_req "mv" ~to_:"B" ~from:"A"))
          | Some _ -> ignore (rpc_on slots "A" (resolve_req "mv"))
          | None -> ());
          (match status_on "B" with
          | Some "prepared" -> ignore (rpc_on slots "B" (resolve_req "mv"))
          | _ -> ());
          drive (n + 1)
        end
      in
      drive 0;
      Alcotest.(check (list (pair string string)))
        (t ^ "exactly one live copy")
        [ ("B", "running") ] (holders slots "mv");
      let surv =
        match (List.assoc "B" slots).live with
        | Some d -> d
        | None -> Alcotest.fail "B died"
      in
      Alcotest.(check int) (t ^ "done preserved") 3
        (int_field
           (D.handle_line surv (J.to_string (J.Obj (query_req "mv"))))
           "done");
      let adv d =
        D.handle_line d (J.to_string (J.Obj (advance_req ~name:"mv" 2)))
      in
      Alcotest.(check string)
        (t ^ "post-chaos transcript matches control")
        (adv control) (adv surv))
    [ 1; 2; 3; 4; 5 ]

let test_migration_matrix () =
  List.iter
    (fun (label, crash_a, crash_b, expect) ->
      run_migration_scenario ~label ~crash_a ~crash_b ~expect ())
    migration_scenarios

(* ------------------------------------------------------------------ *)
(* Real sockets: hardened accept loop                                  *)
(* ------------------------------------------------------------------ *)

module S = Tpdf_serve.Server

let write_all fd s =
  let n = String.length s in
  try
    let rec go off =
      if off < n then go (off + Unix.write_substring fd s off (n - off))
    in
    go 0
  with Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> ()

(* Read one response line (or EOF / timeout) off a raw client fd. *)
let read_reply ?(timeout_s = 5.0) fd =
  let buf = Buffer.create 256 in
  let b = Bytes.create 256 in
  let deadline = Unix.gettimeofday () +. timeout_s in
  let rec go () =
    let left = deadline -. Unix.gettimeofday () in
    if left <= 0.0 then `Timeout
    else
      match Unix.select [ fd ] [] [] left with
      | [], _, _ -> `Timeout
      | _ -> (
          match Unix.read fd b 0 256 with
          | 0 -> if Buffer.length buf = 0 then `Eof else `Line (Buffer.contents buf)
          | n -> (
              Buffer.add_subbytes buf b 0 n;
              let s = Buffer.contents buf in
              match String.index_opt s '\n' with
              | Some i -> `Line (String.sub s 0 i)
              | None -> go ())
          | exception Unix.Unix_error (Unix.ECONNRESET, _, _) ->
              if Buffer.length buf = 0 then `Eof else `Line (Buffer.contents buf))
  in
  go ()

let sock_connect ep =
  match S.connect ~timeout_ms:5000.0 ep with
  | Ok fd -> fd
  | Error e -> Alcotest.failf "connect: %s" e

let with_server ?limits ?netfault k =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  with_temp_dir @@ fun dir ->
  Unix.mkdir dir 0o755;
  let ep = S.Unix_path (Filename.concat dir "d.sock") in
  let d = daemon () in
  let srv = Domain.spawn (fun () -> S.serve ?limits ?netfault d ep) in
  let fin () =
    (match S.request ep {|{"op":"shutdown"}|} with
    | Ok _ | Error _ -> ());
    match Domain.join srv with
    | Ok () -> ()
    | Error e -> Alcotest.failf "serve: %s" e
  in
  Fun.protect ~finally:fin (fun () -> k ep)

let test_socket_limits () =
  let limits =
    {
      S.default_limits with
      S.max_conns = 2;
      max_line_bytes = 4096;
      read_deadline_ms = 200.0;
    }
  in
  with_server ~limits @@ fun ep ->
  (* A healthy request round-trips. *)
  (match S.request ep {|{"op":"ping"}|} with
  | Ok r -> Alcotest.(check bool) "ping ok" true (is_ok r)
  | Error e -> Alcotest.failf "ping: %s" e);
  (* Garbage gets a framed error, not a dropped connection. *)
  (match S.request ep "certainly not json" with
  | Ok r -> check_code "garbage" "bad_request" r
  | Error e -> Alcotest.failf "garbage: %s" e);
  (* An oversized line is refused with [too_large], then the offender
     is closed — one connection pays, the listener survives. *)
  let fd = sock_connect ep in
  write_all fd (String.make 5000 'a' ^ "\n");
  (match read_reply fd with
  | `Line r -> check_code "oversize" "too_large" r
  | `Eof -> Alcotest.fail "oversize: closed without a framed error"
  | `Timeout -> Alcotest.fail "oversize: no reply");
  Unix.close fd;
  (* A mid-frame stall past the read deadline is cut without a reply
     (there is nothing safe to frame into a half-received request). *)
  let fd = sock_connect ep in
  write_all fd {|{"op":|};
  Unix.sleepf 0.6;
  (match read_reply ~timeout_s:2.0 fd with
  | `Eof -> ()
  | `Line r -> Alcotest.failf "stall: unexpected reply %s" r
  | `Timeout -> Alcotest.fail "stall: connection not cut");
  Unix.close fd;
  (* The accept cap sheds the (max_conns+1)th connection with a framed
     [overloaded] while existing connections keep working. *)
  let c1 = sock_connect ep and c2 = sock_connect ep in
  let c3 = sock_connect ep in
  (match read_reply c3 with
  | `Line r -> check_code "conn cap" "overloaded" r
  | `Eof -> Alcotest.fail "conn cap: closed without a framed error"
  | `Timeout -> Alcotest.fail "conn cap: no refusal");
  write_all c1 {|{"id":"c1","op":"ping"}|};
  write_all c1 "\n";
  (match read_reply c1 with
  | `Line r -> Alcotest.(check bool) "c1 alive under cap" true (is_ok r)
  | _ -> Alcotest.fail "c1 starved");
  Unix.close c1;
  Unix.close c2;
  Unix.close c3;
  (* The daemon still serves after all that abuse. *)
  match S.request ep {|{"op":"ping"}|} with
  | Ok r -> Alcotest.(check bool) "ping after abuse" true (is_ok r)
  | Error e -> Alcotest.failf "ping after abuse: %s" e

let test_socket_netfault_passthrough () =
  (* Deterministic wire chaos that mangles framing but never loses
     data: every read is 1 byte, every write at most 3, responses
     dup'd on the wire sometimes.  The framing layers must make this
     invisible to the protocol. *)
  let nf =
    NF.make ~seed:9
      [
        NF.spec ~prob:1.0 (NF.Short_read 1);
        NF.spec ~prob:1.0 (NF.Short_write 3);
        NF.spec ~prob:0.3 (NF.Delay 1.0);
      ]
  in
  with_server ~netfault:nf @@ fun ep ->
  let fd = sock_connect ep in
  for i = 1 to 5 do
    write_all fd (Printf.sprintf {|{"id":%d,"op":"ping"}|} i);
    write_all fd "\n";
    match read_reply fd with
    | `Line r ->
        Alcotest.(check bool) (Printf.sprintf "ping %d through chaos" i) true
          (is_ok r);
        Alcotest.(check bool)
          (Printf.sprintf "ping %d echoes id" i)
          true
          (field r "id" = Some (J.Int i))
    | `Eof -> Alcotest.failf "ping %d: connection dropped" i
    | `Timeout -> Alcotest.failf "ping %d: no reply" i
  done;
  Unix.close fd

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "tpdf_serve"
    [
      ( "json",
        [
          Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "parse" `Quick test_json_parse;
        ] );
      ( "admission",
        [
          Alcotest.test_case "admits fig1" `Quick test_admission_ok;
          Alcotest.test_case "rejection ladder" `Quick test_admission_rejects;
          Alcotest.test_case "overflowing cost rejected" `Quick
            test_admission_overflow;
          Alcotest.test_case "overflowing rate rejected" `Quick
            test_admission_rate_overflow;
          Alcotest.test_case "overflowing rate submit" `Quick
            test_admission_rate_overflow_submit;
          Alcotest.test_case "overflowing rate reconfigure" `Quick
            test_admission_rate_overflow_reconfigure;
          Alcotest.test_case "budget before liveness" `Quick
            test_admission_budget_before_liveness;
          Alcotest.test_case "deadline bounds the latency" `Quick
            test_admission_deadline_latency;
          Alcotest.test_case "latency is a served step" `Quick
            test_latency_is_a_served_step;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "stable error codes" `Quick test_protocol_errors;
          Alcotest.test_case "endpoint parsing" `Quick test_parse_endpoint;
        ] );
      ( "capacity",
        [ Alcotest.test_case "queue + shed + promote" `Quick test_capacity_queue_shed ] );
      ( "isolation",
        [ Alcotest.test_case "9-tenant fleet vs solo" `Quick test_fleet_isolation ] );
      ( "recovery",
        [
          Alcotest.test_case "drop + reload state dir" `Quick
            test_crash_recovery;
          Alcotest.test_case "foreign-version state dir refused" `Quick
            test_foreign_state_dir_refused;
        ] );
      ( "eviction",
        [ Alcotest.test_case "evict/revive transparent" `Quick test_evict_revive ] );
      ( "reconfigure",
        [
          Alcotest.test_case "swap valuation" `Quick test_reconfigure;
          Alcotest.test_case "session rebuilt after reconfigure" `Quick
            test_reconfigure_rebuilds_session;
          Alcotest.test_case "one session per configuration" `Quick
            test_compiles_counter;
        ] );
      ( "ops",
        [
          Alcotest.test_case "tick shards the fleet" `Quick test_tick;
          Alcotest.test_case "metrics + checkpoint" `Quick
            test_metrics_and_checkpoint;
          Alcotest.test_case "removed tenant leaves no series" `Quick
            test_metrics_forget_removed;
          Alcotest.test_case "metrics-out file carries the fleet gauges"
            `Quick test_metrics_out_file;
        ] );
      ( "fuzz",
        [ Alcotest.test_case "malformed wire input" `Quick test_protocol_fuzz ] );
      ( "netfault",
        [
          Alcotest.test_case "spec grammar" `Quick test_netfault_parse;
          Alcotest.test_case "seeded determinism" `Quick
            test_netfault_determinism;
        ] );
      ( "client",
        [
          Alcotest.test_case "jittered backoff" `Quick test_backoff;
          Alcotest.test_case "retry loop" `Quick test_client_call;
          Alcotest.test_case "idempotency key injection" `Quick test_ensure_rid;
        ] );
      ( "idempotency",
        [ Alcotest.test_case "rid replay" `Quick test_rid_cache ] );
      ( "drain", [ Alcotest.test_case "graceful drain" `Quick test_drain ] );
      ( "migration",
        [
          Alcotest.test_case "kill -9 matrix" `Quick test_migration_matrix;
          Alcotest.test_case "chaotic dial seed sweep" `Quick
            test_migration_chaotic_dial;
        ] );
      ( "socket",
        [
          Alcotest.test_case "hardened accept loop" `Quick test_socket_limits;
          Alcotest.test_case "netfault passthrough" `Quick
            test_socket_netfault_passthrough;
        ] );
    ]
