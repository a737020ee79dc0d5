open Tpdf_core
module Fault = Tpdf_fault
module Valuation = Tpdf_param.Valuation
module Metrics = Tpdf_obs.Metrics
module Obs = Tpdf_obs.Obs
module R = Registry
module P = Protocol

type config = {
  state_dir : string option;
  max_tenants : int;
  max_resident : int;
  capacity : int;
  max_queue : int;
  max_advance : int;
  checkpoint_every : int;
  request_timeout_ms : float;
  retry_after_ms : int;
  quarantine_skips : int;
  default_budget : int option;
  metrics_out : string option;
  rid_cache : int;
  crash_at : string option;
}

let default_config =
  {
    state_dir = None;
    max_tenants = 256;
    max_resident = 0;
    capacity = 0;
    max_queue = 16;
    max_advance = 1024;
    checkpoint_every = 1;
    request_timeout_ms = 0.0;
    retry_after_ms = 50;
    quarantine_skips = 0;
    default_budget = None;
    metrics_out = None;
    rid_cache = 256;
    crash_at = None;
  }

exception Injected_crash of string

type dial = string -> string -> (string, string) result

type t = {
  cfg : config;
  reg : R.t;
  metrics : Metrics.t;
  dial : dial;
  rids : (string, string) Hashtbl.t;  (** rid -> cached response line *)
  rid_q : string Queue.t;  (** FIFO of cached rids, oldest first *)
  mutable draining : bool;
  mutable stop : bool;
}

let metrics d = d.metrics
let stopping d = d.stop
let draining d = d.draining
let incr ?by d name = Metrics.incr ?by d.metrics name

(* Crash injection for migration torture tests: when the configured
   point is reached, the daemon "dies" mid-handler — after whatever it
   has already persisted, before anything else.  [tpdf_tool serve]
   turns this into a literal [SIGKILL] of its own process; in-process
   tests catch the exception and reload the daemon from its state
   directory.  Either way nothing below the raise runs, which is the
   whole point. *)
let maybe_crash d point =
  match d.cfg.crash_at with
  | Some p when p = point -> raise (Injected_crash point)
  | _ -> ()

(* ---------- persistence ---------- *)

let serve_counters d =
  List.filter
    (fun (k, _) -> String.starts_with ~prefix:"serve." k)
    (Metrics.counters d.metrics)

let persist_manifest d =
  if R.dir d.reg <> None then R.save_manifest d.reg ~counters:(serve_counters d)

let persist_tenant ?(force = false) d tn =
  if R.dir d.reg <> None && tn.R.t_hot <> None then
    if
      force || tn.R.t_persisted < 0
      || tn.R.t_done - tn.R.t_persisted >= d.cfg.checkpoint_every
    then begin
      R.save_tenant d.reg tn;
      incr d "serve.checkpoints"
    end

let persist d =
  List.iter
    (fun tn -> if tn.R.t_hot <> None then persist_tenant ~force:true d tn)
    (R.tenants d.reg);
  persist_manifest d

(* LRU eviction of cold-able tenants past the residency cap.  [keep] is
   the tenant just touched by this request — never evict it. *)
let evict_lru d ~keep =
  if d.cfg.max_resident > 0 && R.dir d.reg <> None then
    while
      R.resident d.reg > d.cfg.max_resident
      &&
      let victims =
        List.filter
          (fun tn -> tn.R.t_hot <> None && tn.R.t_name <> keep)
          (R.tenants d.reg)
      in
      match
        List.sort (fun a b -> compare a.R.t_touch b.R.t_touch) victims
      with
      | [] -> false
      | victim :: _ -> (
          match R.evict d.reg victim with
          | Ok () ->
              incr d "serve.evicted";
              true
          | Error _ -> false)
    do
      ()
    done

(* ---------- capacity, queue, quarantine ---------- *)

let fits d extra_cost =
  d.cfg.capacity = 0 || R.running_cost d.reg + extra_cost <= d.cfg.capacity

let drain_queue d =
  let promoted = R.dequeue_if d.reg (fun tn -> fits d tn.R.t_cost) in
  List.iter
    (fun tn ->
      incr d "serve.promoted";
      persist_tenant ~force:true d tn)
    promoted;
  promoted

let quarantine d tn reason =
  (match tn.R.t_status with
  | R.Quarantined _ -> ()
  | _ ->
      tn.R.t_status <- R.Quarantined reason;
      incr d "serve.quarantined";
      ignore (drain_queue d));
  persist_tenant ~force:true d tn

(* ---------- tenants ---------- *)

let name_ok name =
  name <> ""
  && String.length name <= 64
  && String.for_all
       (fun c ->
         match c with
         | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '-' -> true
         | _ -> false)
       name

let revive d tn =
  let was_cold = tn.R.t_hot = None in
  match R.revive d.reg tn with
  | Ok hot ->
      if was_cold then incr d "serve.revived";
      Ok hot
  | Error e -> Error e

type advance_end =
  | Completed
  | Timed_out
  | Quarantine of string

(* Advance a resident tenant by up to [n] iterations, one supervised
   iteration per step so the wall-clock budget can cut the request into
   partial progress at a boundary.  All counters live in the boundary
   checkpoint, so the response derives from deterministic virtual state
   only.  Also returns the firings run and the sessions built. *)
let advance_hot dcfg tn hot n ~wall_deadline =
  let fired = ref 0 and compiles = ref 0 in
  let count (st : Tpdf_sim.Engine.stats) =
    List.iter (fun (_, k) -> fired := !fired + k) st.firings
  in
  let rec loop remaining =
    if remaining = 0 then Completed
    else if
      match wall_deadline with
      | Some dl -> Obs.now_wall_ms () > dl
      | None -> false
    then Timed_out
    else begin
      let step, built = R.step hot in
      if built then Stdlib.incr compiles;
      match step with
      | Fault.Supervisor.Gave_up (diag, partial) ->
          Option.iter count partial;
          Quarantine diag
      | Fault.Supervisor.Killed _ -> assert false (* no kill_at_ms *)
      | Fault.Supervisor.Stepped (stats, ck) ->
          count stats;
          tn.R.t_done <- ck.Fault.Supervisor.ck_iterations_run;
          tn.R.t_skips <- ck.Fault.Supervisor.ck_skips;
          if
            dcfg.quarantine_skips > 0
            && tn.R.t_skips >= dcfg.quarantine_skips
          then
            Quarantine
              (Printf.sprintf
                 "skip budget exhausted: %d substituted firings >= %d"
                 tn.R.t_skips dcfg.quarantine_skips)
          else loop (remaining - 1)
    end
  in
  let outcome = loop n in
  (outcome, !fired, !compiles)

let status_json tn =
  Json.String
    (match tn.R.t_status with
    | R.Running -> "running"
    | R.Queued -> "queued"
    | R.Quarantined _ -> "quarantined"
    | R.Migrating _ -> "migrating"
    | R.Prepared _ -> "prepared")

(* Cumulative per-tenant counters, all from the boundary checkpoint. *)
let progress_fields tn =
  let base = [ ("tenant", Json.String tn.R.t_name); ("done", Json.Int tn.R.t_done) ] in
  match tn.R.t_hot with
  | Some { R.h_ck = Some ck; _ } ->
      base
      @ [
          ("end_ms", Json.Float ck.Fault.Supervisor.ck_offset_ms);
          ("retries", Json.Int ck.Fault.Supervisor.ck_retries);
          ("skips", Json.Int ck.Fault.Supervisor.ck_skips);
          ("corrupted", Json.Int ck.Fault.Supervisor.ck_corrupted);
          ("ctrl_lost", Json.Int ck.Fault.Supervisor.ck_ctrl_lost);
          ("deadline_misses", Json.Int ck.Fault.Supervisor.ck_deadline_misses);
          ("restarts", Json.Int ck.Fault.Supervisor.ck_restarts);
          ( "degraded",
            Json.List
              (List.map
                 (fun (k, m) -> Json.List [ Json.String k; Json.String m ])
                 (List.sort compare ck.Fault.Supervisor.ck_degraded)) );
        ]
  | _ ->
      base
      @ [
          ("end_ms", Json.Float 0.0);
          ("retries", Json.Int 0);
          ("skips", Json.Int tn.R.t_skips);
          ("corrupted", Json.Int 0);
          ("ctrl_lost", Json.Int 0);
          ("deadline_misses", Json.Int 0);
          ("restarts", Json.Int 0);
          ("degraded", Json.List []);
        ]

(* ---------- request handlers ---------- *)

let ( let* ) v f = match v with Ok x -> f x | Error e -> Error e

(* Map field-level failures onto a [bad_request] response. *)
let with_fields ~id result =
  match result with Ok resp -> resp | Error msg -> P.err ~id ~code:"bad_request" msg

let h_submit d ~id req =
  with_fields ~id
  @@ let* name = P.req_string req "name" in
     if d.draining then
       Ok
         (P.err ~id ~code:"draining"
            "daemon is draining; submit to another daemon")
     else if not (name_ok name) then
       Ok
         (P.err ~id ~code:"bad_request"
            "tenant names are 1-64 chars of [A-Za-z0-9_-]")
     else if R.find d.reg name <> None then
       Ok
         (P.err ~id ~code:"exists"
            (Printf.sprintf "tenant %S already exists" name))
     else if R.count d.reg >= d.cfg.max_tenants then begin
       incr d "serve.shed";
       Ok
         (P.err ~id ~code:"overloaded" ~retry_after_ms:d.cfg.retry_after_ms
            (Printf.sprintf "tenant table is full (%d)" d.cfg.max_tenants))
     end
     else
       let* graph_src = P.req_string req "graph" in
       let* params = P.opt_params req "params" in
       let* seed = P.opt_int req "seed" in
       let* faults = P.opt_string req "faults" in
       let* retries = P.opt_int req "retries" in
       let* backoff_ms = P.opt_float req "backoff_ms" in
       let* degrade_after = P.opt_int req "degrade_after" in
       let* max_restarts = P.opt_int req "max_restarts" in
       let* deadlines_ms = P.opt_string_map req "deadlines" in
       let* deadline_ms = P.opt_float req "deadline_ms" in
       let* budget = P.opt_int req "budget" in
       match Serial.of_string graph_src with
       | Error e ->
           incr d "serve.rejected";
           Ok (P.err ~id ~code:"inadmissible" ("graph: " ^ e))
       | Ok graph -> (
           let* specs =
             match faults with
             | None | Some "" -> Ok []
             | Some s -> (
                 match Fault.Fault.parse_specs s with
                 | Ok specs -> Ok specs
                 | Error e -> Error ("faults: " ^ e))
           in
           let valuation =
             try Ok (Valuation.of_list params)
             with Invalid_argument m -> Error m
           in
           let* valuation = valuation in
           let max_cost =
             match budget with Some _ -> budget | None -> d.cfg.default_budget
           in
           match
             Admission.check ~graph ~valuation ?deadline_ms ?max_cost ()
           with
           | Admission.Rejected reason ->
               incr d "serve.rejected";
               Ok (P.err ~id ~code:"inadmissible" reason)
           | Admission.Admitted { Admission.cost; period_ms; latency_ms } -> (
               let cfg : R.cfg =
                 {
                   R.c_graph = graph;
                   c_src = Serial.to_string graph;
                   c_seed = Option.value seed ~default:0;
                   c_faults =
                     (if specs = [] then ""
                      else Fault.Fault.specs_to_string specs);
                   c_specs = specs;
                   c_retries = Option.value retries ~default:2;
                   c_backoff_ms = Option.value backoff_ms ~default:0.5;
                   c_degrade_after = Option.value degrade_after ~default:3;
                   c_max_restarts = Option.value max_restarts ~default:0;
                   c_deadlines_ms = deadlines_ms;
                   c_deadline_ms = deadline_ms;
                   c_budget = budget;
                 }
               in
               let* policy =
                 match R.policy cfg with
                 | p -> Ok p
                 | exception Invalid_argument m -> Error m
               in
               let* () = Fault.Policy.validate graph policy in
               let admit status =
                 let tn =
                   R.mk_tenant ~name ~cfg ~valuation ~cost ~period_ms ~status
                 in
                 R.add d.reg tn;
                 R.touch d.reg tn;
                 incr d "serve.admitted";
                 if status = R.Queued then begin
                   R.enqueue d.reg name;
                   incr d "serve.queued"
                 end;
                 persist_tenant ~force:true d tn;
                 evict_lru d ~keep:name;
                 persist_manifest d;
                 P.ok ~id
                   [
                     ("tenant", Json.String name);
                     ("status", status_json tn);
                     ("cost", Json.Int cost);
                     ("period_ms", Json.Float period_ms);
                     ("latency_ms", Json.Float latency_ms);
                   ]
               in
               if fits d cost then Ok (admit R.Running)
               else if List.length (R.queue d.reg) < d.cfg.max_queue then
                 Ok (admit R.Queued)
               else begin
                 incr d "serve.shed";
                 incr d "serve.rejected";
                 Ok
                   (P.err ~id ~code:"overloaded"
                      ~retry_after_ms:d.cfg.retry_after_ms
                      (Printf.sprintf
                         "fleet capacity %d full and admission queue at its \
                          bound %d"
                         d.cfg.capacity d.cfg.max_queue))
               end))

let find_tenant d ~id name k =
  match R.find d.reg name with
  | None ->
      P.err ~id ~code:"unknown_tenant"
        (Printf.sprintf "no tenant %S" name)
  | Some tn -> k tn

let h_advance d ~id req =
  with_fields ~id
  @@ let* name = P.req_string req "name" in
     let* n = P.opt_int req "iterations" in
     let n = Option.value n ~default:1 in
     if n < 1 then Ok (P.err ~id ~code:"bad_request" "iterations must be >= 1")
     else if n > d.cfg.max_advance then begin
       incr d "serve.shed";
       Ok
         (P.err ~id ~code:"overloaded"
            (Printf.sprintf
               "advance of %d iterations exceeds the per-request cap %d; \
                split the request"
               n d.cfg.max_advance))
     end
     else
       Ok
         (find_tenant d ~id name @@ fun tn ->
          R.touch d.reg tn;
          match tn.R.t_status with
          | R.Quarantined reason ->
              P.err ~id ~code:"quarantined" ~fields:(progress_fields tn) reason
          | R.Queued ->
              P.err ~id ~code:"queued" ~retry_after_ms:d.cfg.retry_after_ms
                ~fields:[ ("tenant", Json.String name) ]
                "tenant is waiting for fleet capacity"
          | R.Migrating addr ->
              P.err ~id ~code:"migrating"
                ~retry_after_ms:d.cfg.retry_after_ms
                (Printf.sprintf "tenant is migrating to %s" addr)
          | R.Prepared addr ->
              P.err ~id ~code:"not_owner"
                (Printf.sprintf
                   "tenant is an uncommitted copy offered by %s" addr)
          | R.Running -> (
              match revive d tn with
              | Error e ->
                  quarantine d tn ("revive failed: " ^ e);
                  persist_manifest d;
                  P.err ~id ~code:"quarantined" ("revive failed: " ^ e)
              | Ok hot ->
                  let wall_deadline =
                    if d.cfg.request_timeout_ms > 0.0 then
                      Some (Obs.now_wall_ms () +. d.cfg.request_timeout_ms)
                    else None
                  in
                  let before = tn.R.t_done in
                  let outcome, fired, compiles =
                    advance_hot d.cfg tn hot n ~wall_deadline
                  in
                  incr d ~by:(tn.R.t_done - before) "serve.iterations";
                  incr d ~by:fired "serve.firings";
                  incr d ~by:compiles "serve.compiles";
                  let finish resp =
                    persist_tenant d tn;
                    evict_lru d ~keep:name;
                    persist_manifest d;
                    resp
                  in
                  (match outcome with
                  | Quarantine reason ->
                      quarantine d tn reason;
                      finish
                        (P.err ~id ~code:"quarantined"
                           ~fields:(progress_fields tn) reason)
                  | Timed_out ->
                      incr d "serve.timeouts";
                      finish
                        (P.ok ~id
                           (progress_fields tn
                           @ [
                               ("status", status_json tn);
                               ("timeout", Json.Bool true);
                               ( "retry_after_ms",
                                 Json.Int d.cfg.retry_after_ms );
                             ]))
                  | Completed ->
                      finish
                        (P.ok ~id
                           (progress_fields tn
                           @ [ ("status", status_json tn) ])))))

let h_tick d ~id req =
  with_fields ~id
  @@ let* n = P.opt_int req "iterations" in
     let n = Option.value n ~default:1 in
     if n < 1 then Ok (P.err ~id ~code:"bad_request" "iterations must be >= 1")
     else if n > d.cfg.max_advance then
       Ok
         (P.err ~id ~code:"overloaded"
            (Printf.sprintf "tick of %d iterations exceeds the cap %d" n
               d.cfg.max_advance))
     else begin
       (* Revive every running tenant first; a tenant that cannot come
          back is quarantined rather than blocking the batch. *)
       let runnable =
         List.filter_map
           (fun tn ->
             match tn.R.t_status with
             | R.Running -> (
                 match revive d tn with
                 | Ok hot -> Some (tn, hot)
                 | Error e ->
                     quarantine d tn ("revive failed: " ^ e);
                     None)
             | _ -> None)
           (R.tenants d.reg)
       in
       (* Exceptions are confined to the tenant that raised; results
          commit in sorted tenant order. *)
       let outcomes =
         List.map
           (fun (tn, hot) ->
             match advance_hot d.cfg tn hot n ~wall_deadline:None with
             | outcome, fired, compiles -> (tn, Ok outcome, fired, compiles)
             | exception e -> (tn, Error (Printexc.to_string e), 0, 0))
           runnable
         |> List.sort (fun (a, _, _, _) (b, _, _, _) ->
                String.compare a.R.t_name b.R.t_name)
       in
       let advanced = ref 0 and quarantined = ref [] in
       List.iter
         (fun (tn, outcome, fired, compiles) ->
           incr d ~by:fired "serve.firings";
           incr d ~by:compiles "serve.compiles";
           (match outcome with
           | Ok Completed | Ok Timed_out -> Stdlib.incr advanced
           | Ok (Quarantine reason) ->
               quarantine d tn reason;
               quarantined := tn.R.t_name :: !quarantined
           | Error e ->
               quarantine d tn ("tick failed: " ^ e);
               quarantined := tn.R.t_name :: !quarantined);
           persist_tenant d tn)
         outcomes;
       incr d ~by:(n * !advanced) "serve.iterations";
       ignore (drain_queue d);
       persist_manifest d;
       Ok
         (P.ok ~id
            [
              ("advanced", Json.Int !advanced);
              ("iterations", Json.Int n);
              ( "quarantined",
                Json.List
                  (List.map
                     (fun n -> Json.String n)
                     (List.sort String.compare !quarantined)) );
            ])
     end

let h_query d ~id req =
  with_fields ~id
  @@ let* name = P.req_string req "name" in
     Ok
       (find_tenant d ~id name @@ fun tn ->
        let queue_pos =
          let rec idx i = function
            | [] -> None
            | x :: _ when x = name -> Some i
            | _ :: rest -> idx (i + 1) rest
          in
          idx 0 (R.queue d.reg)
        in
        P.ok ~id
          ([
             ("tenant", Json.String name);
             ("status", status_json tn);
             ("done", Json.Int tn.R.t_done);
             ("cost", Json.Int tn.R.t_cost);
             ("period_ms", Json.Float tn.R.t_period_ms);
             ("skips", Json.Int tn.R.t_skips);
             ("resident", Json.Bool (tn.R.t_hot <> None));
           ]
          @ (match tn.R.t_status with
            | R.Quarantined reason -> [ ("reason", Json.String reason) ]
            | R.Migrating addr | R.Prepared addr ->
                [ ("peer", Json.String addr) ]
            | R.Running | R.Queued -> [])
          @
          match queue_pos with
          | Some i -> [ ("queue_position", Json.Int i) ]
          | None -> []))

let h_list d ~id _req =
  P.ok ~id
    [
      ( "tenants",
        Json.List
          (List.map
             (fun tn ->
               Json.Obj
                 [
                   ("name", Json.String tn.R.t_name);
                   ("status", status_json tn);
                   ("done", Json.Int tn.R.t_done);
                   ("cost", Json.Int tn.R.t_cost);
                   ("resident", Json.Bool (tn.R.t_hot <> None));
                 ])
             (R.tenants d.reg)) );
      ( "queue",
        Json.List (List.map (fun n -> Json.String n) (R.queue d.reg)) );
    ]

let h_remove d ~id req =
  with_fields ~id
  @@ let* name = P.req_string req "name" in
     Ok
       (find_tenant d ~id name @@ fun _tn ->
        R.remove d.reg name;
        incr d "serve.removed";
        ignore (drain_queue d);
        persist_manifest d;
        P.ok ~id [ ("tenant", Json.String name); ("removed", Json.Bool true) ])

let h_reconfigure d ~id req =
  with_fields ~id
  @@ let* name = P.req_string req "name" in
     let* params = P.opt_params req "params" in
     Ok
       (find_tenant d ~id name @@ fun tn ->
        R.touch d.reg tn;
        match tn.R.t_status with
        | R.Quarantined reason ->
            P.err ~id ~code:"quarantined" reason
        | R.Migrating addr ->
            P.err ~id ~code:"migrating" ~retry_after_ms:d.cfg.retry_after_ms
              (Printf.sprintf "tenant is migrating to %s" addr)
        | R.Prepared addr ->
            P.err ~id ~code:"not_owner"
              (Printf.sprintf "tenant is an uncommitted copy offered by %s"
                 addr)
        | R.Running | R.Queued -> (
            match revive d tn with
            | Error e -> P.err ~id ~code:"internal" ("revive failed: " ^ e)
            | Ok hot -> (
                match
                  try Ok (Valuation.of_list params)
                  with Invalid_argument m -> Error m
                with
                | Error m -> P.err ~id ~code:"bad_request" m
                | Ok valuation -> (
                    let cfg = hot.R.h_cfg in
                    match
                      Admission.check ~graph:cfg.R.c_graph ~valuation
                        ?deadline_ms:cfg.R.c_deadline_ms
                        ?max_cost:
                          (match cfg.R.c_budget with
                          | Some _ as b -> b
                          | None -> d.cfg.default_budget)
                        ()
                    with
                    | Admission.Rejected reason ->
                        incr d "serve.rejected";
                        P.err ~id ~code:"inadmissible" reason
                    | Admission.Admitted
                        { Admission.cost; period_ms; latency_ms } ->
                        let delta = cost - tn.R.t_cost in
                        if
                          tn.R.t_status = R.Running
                          && d.cfg.capacity > 0
                          && delta > 0
                          && R.running_cost d.reg + delta > d.cfg.capacity
                        then begin
                          incr d "serve.shed";
                          P.err ~id ~code:"overloaded"
                            ~retry_after_ms:d.cfg.retry_after_ms
                            (Printf.sprintf
                               "new cost %d does not fit the fleet capacity \
                                %d"
                               cost d.cfg.capacity)
                        end
                        else begin
                          hot.R.h_val <- valuation;
                          tn.R.t_cost <- cost;
                          tn.R.t_period_ms <- period_ms;
                          incr d "serve.reconfigured";
                          persist_tenant ~force:true d tn;
                          ignore (drain_queue d);
                          persist_manifest d;
                          P.ok ~id
                            [
                              ("tenant", Json.String name);
                              ("status", status_json tn);
                              ("cost", Json.Int cost);
                              ("period_ms", Json.Float period_ms);
                              ("latency_ms", Json.Float latency_ms);
                            ]
                        end))))

let state_gauge tn =
  match tn.R.t_status with
  | R.Running -> 0.0
  | R.Queued -> 1.0
  | R.Quarantined _ -> 2.0
  | R.Migrating _ -> 3.0
  | R.Prepared _ -> 4.0

(* The fleet and per-tenant gauges are read off the live tenant table
   when the metrics are rendered, never stored in the long-lived
   registry: a removed or migrated-away tenant leaves no series behind. *)
let fleet_gauges d =
  let f = float_of_int in
  [
    ("serve.tenants", f (R.count d.reg));
    ("serve.resident", f (R.resident d.reg));
    ("serve.queue_depth", f (List.length (R.queue d.reg)));
    ("serve.capacity_used", f (R.running_cost d.reg));
    ("serve.capacity", f d.cfg.capacity);
  ]
  @ List.concat_map
      (fun tn ->
        let n = tn.R.t_name in
        [
          ("serve.tenant.iterations." ^ n, f tn.R.t_done);
          ("serve.tenant.skips." ^ n, f tn.R.t_skips);
          ("serve.tenant.cost." ^ n, f tn.R.t_cost);
          ("serve.tenant.state." ^ n, state_gauge tn);
        ])
      (R.tenants d.reg)

(* The fleet's exposition: the [metrics] op's answer and the
   [metrics_out] file are this one text. *)
let exposition d =
  Tpdf_obs.Openmetrics.render_with ~gauges:(fleet_gauges d) d.metrics

let h_metrics d ~id _req =
  P.ok ~id [ ("openmetrics", Json.String (exposition d)) ]

let h_checkpoint d ~id _req =
  match R.dir d.reg with
  | None -> P.err ~id ~code:"no_state_dir" "daemon started without --state-dir"
  | Some _ ->
      persist d;
      P.ok ~id [ ("persisted", Json.Int (R.resident d.reg)) ]

let h_evict d ~id req =
  with_fields ~id
  @@ let* name = P.req_string req "name" in
     Ok
       (find_tenant d ~id name @@ fun tn ->
        let was_hot = tn.R.t_hot <> None in
        match R.evict d.reg tn with
        | Ok () ->
            if was_hot then incr d "serve.evicted";
            persist_manifest d;
            P.ok ~id [ ("tenant", Json.String name); ("resident", Json.Bool false) ]
        | Error e -> P.err ~id ~code:"no_state_dir" e)

let h_ping d ~id _req =
  P.ok ~id
    ([ ("pong", Json.Bool true); ("tenants", Json.Int (R.count d.reg)) ]
    @ if d.draining then [ ("draining", Json.Bool true) ] else [])

let h_shutdown d ~id _req =
  persist d;
  d.stop <- true;
  P.ok ~id [ ("bye", Json.Bool true) ]

let h_drain d ~id req =
  with_fields ~id
  @@ let* stop = P.opt_bool req "stop" in
     let stop = Option.value stop ~default:false in
     d.draining <- true;
     incr d "serve.drains";
     persist d;
     if stop then d.stop <- true;
     Ok
       (P.ok ~id
          [
            ("draining", Json.Bool true);
            ("stopping", Json.Bool stop);
            ("tenants", Json.Int (R.count d.reg));
            ("persisted", Json.Int (R.resident d.reg));
          ])

(* ---------- live migration ----------

   Two-phase handoff, commit at the destination:

     source                               destination
     ------                               -----------
     mark Migrating(dst), persist
     export boundary checkpoint
         -- migrate_offer (ckpt, cksum) -->
                                           verify checksum
                                           install as Prepared(src), persist
         <-- ok ----------------------------
         -- migrate_commit ---------------->
                                           Prepared -> Running, persist
         <-- ok ----------------------------
     remove local copy, persist
         -- (on failure: migrate_abort) --->
                                           drop Prepared copy

   A [Prepared] copy is not ownership — exactly one daemon owns the
   tenant at every persisted instant, whichever side dies.  The only
   ambiguous window is the source crashing after the destination
   committed but before the local release; the source then restarts
   as [Migrating] and [resolve] queries the destination to finish
   (release if the peer owns it, revert to [Running] if not). *)

let is_ok_resp line =
  match Json.of_string line with
  | Ok resp -> (
      match Json.member "ok" resp with
      | Some (Json.Bool true) -> Ok resp
      | _ -> (
          match Json.member "error" resp with
          | Some err -> (
              match (Json.member "code" err, Json.member "msg" err) with
              | Some (Json.String code), Some (Json.String msg) ->
                  Error (code, msg)
              | _ -> Error ("internal", "malformed error response"))
          | None -> Error ("internal", "malformed response")))
  | Error e -> Error ("internal", "response parse: " ^ e)

let cksum_of payload = Printf.sprintf "%Lx" (Tpdf_ckpt.Ckpt.fnv1a64 payload)

(* Handoff ops carry no idempotency keys: they are re-send-safe by
   construction (see [rid_exempt]) and a replay cache would remember
   effects an abort has since undone. *)
let mig_req fields = Json.to_string (Json.Obj fields)

let revert_running d tn =
  tn.R.t_status <- R.Running;
  persist_tenant ~force:true d tn;
  persist_manifest d

(* Release the local copy once the destination owns the tenant. *)
let release d tn =
  R.remove d.reg tn.R.t_name;
  incr d "serve.migrated_out";
  ignore (drain_queue d);
  persist_manifest d

let h_migrate d ~id req =
  with_fields ~id
  @@ let* name = P.req_string req "name" in
     let* addr = P.req_string req "to" in
     let* from = P.opt_string req "from" in
     let from = Option.value from ~default:"" in
     Ok
       (find_tenant d ~id name @@ fun tn ->
        R.touch d.reg tn;
        match tn.R.t_status with
        | R.Quarantined reason -> P.err ~id ~code:"quarantined" reason
        | R.Queued ->
            P.err ~id ~code:"bad_request"
              "queued tenants cannot migrate; wait for promotion"
        | R.Prepared a ->
            P.err ~id ~code:"not_owner"
              (Printf.sprintf "tenant is an uncommitted copy offered by %s" a)
        | R.Migrating a when a <> addr ->
            P.err ~id ~code:"migrating"
              (Printf.sprintf
                 "tenant is already migrating to %s; resolve that handoff \
                  first"
                 a)
        | R.Running | R.Migrating _ -> (
            match revive d tn with
            | Error e -> P.err ~id ~code:"internal" ("revive failed: " ^ e)
            | Ok _hot -> (
                tn.R.t_status <- R.Migrating addr;
                persist_tenant ~force:true d tn;
                persist_manifest d;
                maybe_crash d "src_after_mark";
                match R.export tn with
                | Error e ->
                    revert_running d tn;
                    P.err ~id ~code:"migrate_failed" ("export: " ^ e)
                | Ok payload -> (
                    let cksum = cksum_of payload in
                    let migrated () =
                      release d tn;
                      maybe_crash d "src_after_release";
                      P.ok ~id
                        [
                          ("tenant", Json.String name);
                          ("migrated_to", Json.String addr);
                          ("done", Json.Int tn.R.t_done);
                          ("cksum", Json.String cksum);
                        ]
                    in
                    let abort_and_revert code msg =
                      (* Best effort: clear any half-landed copy, then
                         take ownership back.  [committed] from the
                         abort means the peer in fact owns the tenant
                         (a lost commit ack) — finish the release
                         instead of reverting. *)
                      let committed =
                        match
                          d.dial addr
                            (mig_req
                               [
                                 ("op", Json.String "migrate_abort");
                                 ("name", Json.String name);
                               ])
                        with
                        | Ok line -> (
                            match is_ok_resp line with
                            | Error ("committed", _) -> true
                            | _ -> false)
                        | Error _ -> false
                      in
                      if committed then migrated ()
                      else begin
                        revert_running d tn;
                        P.err ~id ~code (msg ())
                      end
                    in
                    let offer =
                      mig_req
                        [
                          ("op", Json.String "migrate_offer");
                          ("name", Json.String name);
                          ("from", Json.String from);
                          ("ckpt", Json.String payload);
                          ("cksum", Json.String cksum);
                        ]
                    in
                    match d.dial addr offer with
                    | Error e ->
                        revert_running d tn;
                        P.err ~id ~code:"migrate_failed"
                          ("offer: " ^ e ^ "; reverted to running")
                    | Ok line -> (
                        match is_ok_resp line with
                        | Error (code, msg) ->
                            abort_and_revert "migrate_failed" (fun () ->
                                Printf.sprintf
                                  "offer refused by %s: %s (%s); reverted \
                                   to running"
                                  addr msg code)
                        | Ok _ -> (
                            maybe_crash d "src_after_offer";
                            let commit =
                              mig_req
                                [
                                  ("op", Json.String "migrate_commit");
                                  ("name", Json.String name);
                                ]
                            in
                            match d.dial addr commit with
                            | Error e ->
                                (* The peer may or may not have durably
                                   committed before the failure: stay
                                   [Migrating] so neither side advances,
                                   and let [resolve] finish. *)
                                P.err ~id ~code:"unresolved"
                                  (Printf.sprintf
                                     "commit to %s failed (%s); tenant \
                                      left migrating, run resolve"
                                     addr e)
                            | Ok line -> (
                                match is_ok_resp line with
                                | Error (code, msg) ->
                                    abort_and_revert "migrate_failed"
                                      (fun () ->
                                        Printf.sprintf
                                          "commit refused by %s: %s (%s); \
                                           reverted to running"
                                          addr msg code)
                                | Ok _ ->
                                    maybe_crash d "src_after_commit";
                                    migrated ())))))))

let h_migrate_offer d ~id req =
  with_fields ~id
  @@ let* name = P.req_string req "name" in
     let* payload = P.req_string req "ckpt" in
     let* cksum = P.req_string req "cksum" in
     let* from = P.opt_string req "from" in
     let from = Option.value from ~default:"" in
     if d.draining then
       Ok
         (P.err ~id ~code:"draining"
            "daemon is draining and cannot accept migrations")
     else if not (name_ok name) then
       Ok
         (P.err ~id ~code:"bad_request"
            "tenant names are 1-64 chars of [A-Za-z0-9_-]")
     else if cksum_of payload <> cksum then
       Ok
         (P.err ~id ~code:"migrate_failed"
            (Printf.sprintf "checksum mismatch: payload %s, offered %s"
               (cksum_of payload) cksum))
     else
       let existing = R.find d.reg name in
       match existing with
       | Some tn when R.owned tn ->
           Ok
             (P.err ~id ~code:"exists"
                (Printf.sprintf "tenant %S already exists here" name))
       | _ ->
           if existing = None && R.count d.reg >= d.cfg.max_tenants then begin
             incr d "serve.shed";
             Ok
               (P.err ~id ~code:"overloaded"
                  ~retry_after_ms:d.cfg.retry_after_ms
                  (Printf.sprintf "tenant table is full (%d)"
                     d.cfg.max_tenants))
           end
           else (
             match R.install d.reg ~name ~status:(R.Prepared from) payload with
             | Error e ->
                 Ok (P.err ~id ~code:"migrate_failed" ("install: " ^ e))
             | Ok tn ->
                 (* Advisory capacity check — the binding one runs at
                    commit, when the tenant starts counting. *)
                 if not (fits d tn.R.t_cost) then begin
                   R.remove d.reg name;
                   incr d "serve.shed";
                   Ok
                     (P.err ~id ~code:"overloaded"
                        ~retry_after_ms:d.cfg.retry_after_ms
                        (Printf.sprintf
                           "cost %d does not fit the fleet capacity %d"
                           tn.R.t_cost d.cfg.capacity))
                 end
                 else begin
                   persist_manifest d;
                   maybe_crash d "dst_after_prepare";
                   incr d "serve.migrate_offers";
                   evict_lru d ~keep:name;
                   Ok
                     (P.ok ~id
                        [
                          ("tenant", Json.String name);
                          ("prepared", Json.Bool true);
                          ("done", Json.Int tn.R.t_done);
                          ("cksum", Json.String cksum);
                        ])
                 end)

let h_migrate_commit d ~id req =
  with_fields ~id
  @@ let* name = P.req_string req "name" in
     Ok
       (find_tenant d ~id name @@ fun tn ->
        match tn.R.t_status with
        | R.Running ->
            (* Idempotent: a re-sent commit after a lost ack. *)
            P.ok ~id
              [
                ("tenant", Json.String name);
                ("committed", Json.Bool true);
                ("done", Json.Int tn.R.t_done);
              ]
        | R.Prepared _ ->
            if not (fits d tn.R.t_cost) then begin
              incr d "serve.shed";
              P.err ~id ~code:"overloaded"
                ~retry_after_ms:d.cfg.retry_after_ms
                (Printf.sprintf "cost %d does not fit the fleet capacity %d"
                   tn.R.t_cost d.cfg.capacity)
            end
            else begin
              tn.R.t_status <- R.Running;
              persist_tenant ~force:true d tn;
              persist_manifest d;
              maybe_crash d "dst_after_commit";
              incr d "serve.migrated_in";
              P.ok ~id
                [
                  ("tenant", Json.String name);
                  ("committed", Json.Bool true);
                  ("done", Json.Int tn.R.t_done);
                ]
            end
        | R.Queued | R.Quarantined _ | R.Migrating _ ->
            P.err ~id ~code:"migrate_failed"
              (Printf.sprintf "tenant %S is not an offered copy" name))

let h_migrate_abort d ~id req =
  with_fields ~id
  @@ let* name = P.req_string req "name" in
     match R.find d.reg name with
     | None ->
         Ok
           (P.ok ~id
              [ ("tenant", Json.String name); ("aborted", Json.Bool true) ])
     | Some tn -> (
         match tn.R.t_status with
         | R.Prepared _ ->
             R.remove d.reg name;
             persist_manifest d;
             incr d "serve.migrate_aborts";
             Ok
               (P.ok ~id
                  [ ("tenant", Json.String name); ("aborted", Json.Bool true) ])
         | _ ->
             Ok (P.err ~id ~code:"committed" "tenant is committed here"))

let h_migrate_query d ~id req =
  with_fields ~id
  @@ let* name = P.req_string req "name" in
     match R.find d.reg name with
     | None ->
         Ok
           (P.ok ~id
              [ ("tenant", Json.String name); ("owner", Json.Bool false) ])
     | Some tn ->
         Ok
           (P.ok ~id
              [
                ("tenant", Json.String name);
                ("owner", Json.Bool (R.owned tn));
                ("done", Json.Int tn.R.t_done);
                ("status", status_json tn);
              ])

(* Finish an interrupted handoff from either side's persisted state. *)
let h_resolve d ~id req =
  with_fields ~id
  @@ let* name = P.req_string req "name" in
     Ok
       (find_tenant d ~id name @@ fun tn ->
        let resolved how =
          P.ok ~id
            [
              ("tenant", Json.String name);
              ("resolved", Json.String how);
              ("status", status_json tn);
            ]
        in
        let query addr k =
          match
            d.dial addr
              (Json.to_string
                 (Json.Obj
                    [
                      ("op", Json.String "migrate_query");
                      ("name", Json.String name);
                    ]))
          with
          | Error e ->
              P.err ~id ~code:"unresolved"
                (Printf.sprintf "peer %s unreachable: %s" addr e)
          | Ok line -> (
              match is_ok_resp line with
              | Error (code, msg) ->
                  P.err ~id ~code:"unresolved"
                    (Printf.sprintf "peer %s: %s (%s)" addr msg code)
              | Ok resp ->
                  let owner =
                    match Json.member "owner" resp with
                    | Some (Json.Bool b) -> b
                    | _ -> false
                  in
                  let peer_done =
                    match Json.member "done" resp with
                    | Some (Json.Int n) -> n
                    | _ -> -1
                  in
                  k ~owner ~peer_done)
        in
        match tn.R.t_status with
        | R.Migrating addr ->
            query addr @@ fun ~owner ~peer_done ->
            if owner && peer_done = tn.R.t_done then begin
              (* The destination durably committed: finish the release. *)
              release d tn;
              resolved "released"
            end
            else if not owner then begin
              (* The destination never committed; clear any offered
                 copy and take ownership back. *)
              ignore
                (d.dial addr
                   (Json.to_string
                      (Json.Obj
                         [
                           ("op", Json.String "migrate_abort");
                           ("name", Json.String name);
                         ])));
              revert_running d tn;
              resolved "reverted"
            end
            else
              P.err ~id ~code:"unresolved"
                (Printf.sprintf
                   "peer %s owns %S at %d iterations, local copy has %d"
                   addr name peer_done tn.R.t_done)
        | R.Prepared "" ->
            P.err ~id ~code:"unresolved"
              "offered copy has no source address; migrate_abort or \
               migrate_commit it explicitly"
        | R.Prepared addr ->
            query addr @@ fun ~owner ~peer_done:_ ->
            if owner then begin
              (* The source kept (or took back) the tenant: this copy
                 is garbage. *)
              R.remove d.reg name;
              persist_manifest d;
              incr d "serve.migrate_aborts";
              resolved "dropped"
            end
            else begin
              (* The source no longer owns it, so this copy is the only
                 one: commit it. *)
              tn.R.t_status <- R.Running;
              persist_tenant ~force:true d tn;
              persist_manifest d;
              incr d "serve.migrated_in";
              resolved "committed"
            end
        | R.Running | R.Queued | R.Quarantined _ -> resolved "none")

let dispatch d req =
  let id = P.id_of req in
  match Json.member "op" req with
  | Some (Json.String op) -> (
      let h =
        match op with
        | "ping" -> Some h_ping
        | "submit" -> Some h_submit
        | "advance" -> Some h_advance
        | "tick" -> Some h_tick
        | "query" -> Some h_query
        | "list" -> Some h_list
        | "remove" -> Some h_remove
        | "reconfigure" -> Some h_reconfigure
        | "metrics" -> Some h_metrics
        | "checkpoint" -> Some h_checkpoint
        | "evict" -> Some h_evict
        | "shutdown" -> Some h_shutdown
        | "drain" -> Some h_drain
        | "migrate" -> Some h_migrate
        | "migrate_offer" -> Some h_migrate_offer
        | "migrate_commit" -> Some h_migrate_commit
        | "migrate_abort" -> Some h_migrate_abort
        | "migrate_query" -> Some h_migrate_query
        | "resolve" -> Some h_resolve
        | _ -> None
      in
      match h with
      | Some h -> (
          match h d ~id req with
          | resp -> resp
          | exception (Injected_crash _ as e) -> raise e
          | exception e ->
              incr d "serve.errors";
              P.err ~id ~code:"internal" (Printexc.to_string e))
      | None ->
          P.err ~id ~code:"unknown_op" (Printf.sprintf "unknown op %S" op))
  | _ -> P.err ~id ~code:"bad_request" "missing string field \"op\""

let handle d req =
  incr d "serve.requests";
  let t0 = Obs.now_wall_ms () in
  let resp = dispatch d req in
  Metrics.observe d.metrics "serve.request_ms" (Obs.now_wall_ms () -. t0);
  (match d.cfg.metrics_out with
  | Some path -> (
      match Tpdf_util.Atomic_file.write_result path (exposition d) with
      | Ok () -> ()
      | Error _ -> incr d "serve.export_errors")
  | None -> ());
  resp

(* Response codes that must not be replayed from the rid cache: the
   daemon's answer legitimately changes as conditions clear, so a
   retried request has to re-execute. *)
let transient_code = function
  | "overloaded" | "queued" | "draining" | "migrating" | "unresolved"
  | "internal" ->
      true
  | _ -> false

let cacheable resp =
  match Json.member "error" resp with
  | None -> true
  | Some err -> (
      match Json.member "code" err with
      | Some (Json.String code) -> not (transient_code code)
      | _ -> false)

(* The two-phase handoff ops are idempotent state machines in their own
   right (a re-sent offer reinstalls, a re-sent commit on [Running]
   acks, an abort on an absent copy acks) and their effects can be
   {e undone} by a later abort — replaying a remembered "prepared"
   response for a copy that has since been aborted would wedge the
   handoff.  They bypass the rid cache entirely. *)
let rid_exempt = function
  | "migrate" | "migrate_offer" | "migrate_commit" | "migrate_abort"
  | "migrate_query" | "resolve" ->
      true
  | _ -> false

let rid_remember d rid line =
  if d.cfg.rid_cache > 0 && not (Hashtbl.mem d.rids rid) then begin
    Hashtbl.replace d.rids rid line;
    Queue.push rid d.rid_q;
    while Queue.length d.rid_q > d.cfg.rid_cache do
      Hashtbl.remove d.rids (Queue.pop d.rid_q)
    done
  end

let handle_line d line =
  match Json.of_string line with
  | Error e ->
      incr d "serve.requests";
      Json.to_string (P.err ~id:Json.Null ~code:"bad_request" ("parse: " ^ e))
  | Ok req -> (
      let rid =
        match (Json.member "rid" req, Json.member "op" req) with
        | Some (Json.String _), Some (Json.String op) when rid_exempt op ->
            None
        | Some (Json.String rid), _ when d.cfg.rid_cache > 0 -> Some rid
        | _ -> None
      in
      match Option.bind rid (Hashtbl.find_opt d.rids) with
      | Some cached ->
          (* Idempotent replay: the mutation already ran; re-deliver the
             response byte for byte without re-executing. *)
          incr d "serve.requests";
          incr d "serve.rid_replays";
          cached
      | None ->
          let resp = handle d req in
          let out = Json.to_string resp in
          (match rid with
          | Some rid when cacheable resp -> rid_remember d rid out
          | _ -> ());
          out)

let create ?dial cfg =
  let reg_and_counters =
    match cfg.state_dir with
    | Some dir -> R.load ~dir
    | None -> Ok (R.create (), [])
  in
  match reg_and_counters with
  | Error e -> Error e
  | Ok (reg, counters) ->
      let m = Metrics.create () in
      List.iter (fun (k, v) -> if v > 0 then Metrics.incr ~by:v m k) counters;
      if R.count reg > 0 then begin
        Metrics.incr m "serve.daemon_restores";
        Metrics.incr ~by:(R.count reg) m "serve.tenants_restored"
      end;
      let dial =
        Option.value dial
          ~default:(fun _addr _line ->
            Error "no dialer configured (daemon created without ?dial)")
      in
      Ok
        {
          cfg;
          reg;
          metrics = m;
          dial;
          rids = Hashtbl.create 64;
          rid_q = Queue.create ();
          draining = false;
          stop = false;
        }
