open Tpdf_core
module Fault = Tpdf_fault
module Ckpt = Tpdf_ckpt.Ckpt
module Valuation = Tpdf_param.Valuation

type cfg = {
  c_graph : Graph.t;
  c_src : string;
  c_seed : int;
  c_faults : string;
  c_specs : Fault.Fault.spec list;
  c_retries : int;
  c_backoff_ms : float;
  c_degrade_after : int;
  c_max_restarts : int;
  c_deadlines_ms : (string * float) list;
  c_deadline_ms : float option;
  c_budget : int option;
}

type session = {
  s_run : int Fault.Supervisor.session;
  mutable s_ck : Fault.Supervisor.checkpoint option;
  s_val : Valuation.t;
}

type hot = {
  h_cfg : cfg;
  mutable h_val : Valuation.t;
  mutable h_ck : Fault.Supervisor.checkpoint option;
  mutable h_sess : session option;
}

type status =
  | Running
  | Queued
  | Quarantined of string
  | Migrating of string
  | Prepared of string

type tenant = {
  t_name : string;
  mutable t_status : status;
  mutable t_done : int;
  mutable t_cost : int;
  mutable t_period_ms : float;
  mutable t_skips : int;
  mutable t_hot : hot option;
  mutable t_touch : int;
  mutable t_persisted : int;
}

type t = {
  table : (string, tenant) Hashtbl.t;
  mutable q : string list;  (* FIFO, oldest first *)
  mutable clock : int;
  root : string option;
  mutable manifest_seq : int;
}

let create ?dir () =
  { table = Hashtbl.create 64; q = []; clock = 0; root = dir; manifest_seq = 0 }

let dir t = t.root
let find t name = Hashtbl.find_opt t.table name
let count t = Hashtbl.length t.table
let queue t = t.q
let enqueue t name = t.q <- t.q @ [ name ]

let names t =
  Hashtbl.fold (fun name _ acc -> name :: acc) t.table []
  |> List.sort String.compare

let tenants t = List.filter_map (find t) (names t)

let touch t tenant =
  t.clock <- t.clock + 1;
  tenant.t_touch <- t.clock

(* A tenant mid-migration is still owned here until released, so it
   still holds its capacity share: an aborted handoff must not find the
   fleet oversubscribed. *)
let running_cost t =
  Hashtbl.fold
    (fun _ tn acc ->
      match tn.t_status with
      | Running | Migrating _ -> acc + tn.t_cost
      | _ -> acc)
    t.table 0

let owned tn =
  match tn.t_status with
  | Running | Queued | Quarantined _ | Migrating _ -> true
  | Prepared _ -> false

let resident t =
  Hashtbl.fold
    (fun _ tn acc -> if tn.t_hot <> None then acc + 1 else acc)
    t.table 0

let dequeue_if t pred =
  let rec loop acc =
    match t.q with
    | head :: rest -> (
        match find t head with
        | None ->
            (* stale queue entry (removed tenant) — drop and continue *)
            t.q <- rest;
            loop acc
        | Some tn when pred tn ->
            t.q <- rest;
            tn.t_status <- Running;
            loop (tn :: acc)
        | Some _ -> List.rev acc)
    | [] -> List.rev acc
  in
  loop []

let mk_tenant ~name ~cfg ~valuation ~cost ~period_ms ~status =
  {
    t_name = name;
    t_status = status;
    t_done = 0;
    t_cost = cost;
    t_period_ms = period_ms;
    t_skips = 0;
    t_hot = Some { h_cfg = cfg; h_val = valuation; h_ck = None; h_sess = None };
    t_touch = 0;
    t_persisted = -1;
  }

(* ---------- supervised stepping ---------- *)

let policy cfg =
  Fault.Policy.make ~max_retries:cfg.c_retries ~retry_backoff_ms:cfg.c_backoff_ms
    ~deadlines_ms:cfg.c_deadlines_ms ~degrade_after:cfg.c_degrade_after
    ~max_restarts:cfg.c_max_restarts
    ~fallbacks:(Fault.Chaos.default_fallbacks cfg.c_graph) ()

(* The session is a cache of [h_ck] and [h_val]: it is reused only while
   both are physically the values it last produced or was built from.
   Anything else that moves them — a reconfigure, a revive or install
   (fresh [hot]), a direct write — makes the next step rebuild it from
   [h_ck]. *)
let step hot =
  let s, built =
    match hot.h_sess with
    | Some s when s.s_ck == hot.h_ck && s.s_val == hot.h_val -> (s, false)
    | _ ->
        let cfg = hot.h_cfg in
        let s =
          {
            s_run =
              Fault.Chaos.session ~graph:cfg.c_graph ~seed:cfg.c_seed
                ~specs:cfg.c_specs ~policy:(policy cfg) ?resume:hot.h_ck
                ~valuation:hot.h_val ();
            s_ck = hot.h_ck;
            s_val = hot.h_val;
          }
        in
        hot.h_sess <- Some s;
        (s, true)
  in
  match Fault.Supervisor.step s.s_run with
  | Fault.Supervisor.Stepped (_, ck) as r ->
      hot.h_ck <- Some ck;
      s.s_ck <- hot.h_ck;
      (r, built)
  | r ->
      (* the session has ended; [h_ck] keeps the last good boundary *)
      hot.h_sess <- None;
      (r, built)
  | exception e ->
      hot.h_sess <- None;
      raise e

(* ---------- persistence ---------- *)

let sup_prefix = "sup."
let join_kv kvs = String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ v) kvs)

let split_kv s =
  if s = "" then Ok []
  else
    let items = String.split_on_char ',' s in
    let rec loop acc = function
      | [] -> Ok (List.rev acc)
      | item :: rest -> (
          match String.index_opt item '=' with
          | Some i ->
              loop
                (( String.sub item 0 i,
                   String.sub item (i + 1) (String.length item - i - 1) )
                 :: acc)
                rest
          | None -> Error (Printf.sprintf "bad key=value entry %S" item))
    in
    loop [] items

let status_atom = function
  | Running -> "running"
  | Queued -> "queued"
  | Quarantined _ -> "quarantined"
  | Migrating _ -> "migrating"
  | Prepared _ -> "prepared"

(* The reason column carries the quarantine diagnostic — or, for the
   migration states, the peer daemon's address. *)
let status_of_atom atom reason =
  match atom with
  | "running" -> Ok Running
  | "queued" -> Ok Queued
  | "quarantined" -> Ok (Quarantined reason)
  | "migrating" -> Ok (Migrating reason)
  | "prepared" -> Ok (Prepared reason)
  | s -> Error (Printf.sprintf "unknown tenant status %S" s)

let tenant_store t name =
  match t.root with
  | None -> None
  | Some root ->
      Some (Ckpt.Store.open_dir (Filename.concat (Filename.concat root "tenants") name))

let manifest_store t =
  match t.root with
  | None -> None
  | Some root -> Some (Ckpt.Store.open_dir (Filename.concat root "manifest"))

(* Keep the newest two files: the current state plus one fallback in
   case the newest write was torn mid-crash. *)
let prune store =
  match List.rev (Ckpt.Store.seqs store) with
  | _ :: _ :: old ->
      List.iter
        (fun seq -> try Sys.remove (Ckpt.Store.path store seq) with Sys_error _ -> ())
        old
  | _ -> ()

let opt_float = function None -> "" | Some f -> Printf.sprintf "%h" f
let opt_int = function None -> "" | Some n -> string_of_int n

let status_reason = function
  | Quarantined r -> r
  | Migrating addr | Prepared addr -> addr
  | Running | Queued -> ""

let tenant_ckpt tenant hot =
  let cfg = hot.h_cfg in
  let sup_meta =
    match hot.h_ck with
    | None -> []
    | Some ck ->
        List.map
          (fun (k, v) -> (sup_prefix ^ k, v))
          (Fault.Supervisor.checkpoint_meta ck)
  in
  {
    Ckpt.kind = "serve-tenant";
    meta =
      [
        ("name", tenant.t_name);
        ("seed", string_of_int cfg.c_seed);
        ("faults", cfg.c_faults);
        ("retries", string_of_int cfg.c_retries);
        ("backoff", Printf.sprintf "%h" cfg.c_backoff_ms);
        ("degrade_after", string_of_int cfg.c_degrade_after);
        ("max_restarts", string_of_int cfg.c_max_restarts);
        ( "deadlines",
          join_kv
            (List.map
               (fun (a, ms) -> (a, Printf.sprintf "%h" ms))
               cfg.c_deadlines_ms) );
        ("deadline_ms", opt_float cfg.c_deadline_ms);
        ("budget", opt_int cfg.c_budget);
        ("cost", string_of_int tenant.t_cost);
        ("period_ms", Printf.sprintf "%h" tenant.t_period_ms);
        ("done", string_of_int tenant.t_done);
        ("skips", string_of_int tenant.t_skips);
        ("status", status_atom tenant.t_status);
        ("reason", status_reason tenant.t_status);
      ]
      @ sup_meta;
    graph_src = cfg.c_src;
    valuation = Valuation.bindings hot.h_val;
    snapshot =
      (match hot.h_ck with
      | Some ck -> ck.Fault.Supervisor.ck_engine
      | None -> None);
  }

let save_tenant t tenant =
  match (tenant.t_hot, tenant_store t tenant.t_name) with
  | Some hot, Some store ->
      ignore (Ckpt.Store.save store ~seq:tenant.t_done (tenant_ckpt tenant hot));
      prune store;
      tenant.t_persisted <- tenant.t_done
  | _ -> ()

let manifest_row tenant =
  String.concat "\t"
    [
      status_atom tenant.t_status;
      string_of_int tenant.t_done;
      string_of_int tenant.t_cost;
      Printf.sprintf "%h" tenant.t_period_ms;
      string_of_int tenant.t_skips;
      status_reason tenant.t_status;
    ]

let save_manifest t ~counters =
  match manifest_store t with
  | None -> ()
  | Some store ->
      let rows =
        List.map
          (fun tn -> ("t." ^ tn.t_name, manifest_row tn))
          (tenants t)
      in
      let file =
        {
          Ckpt.kind = "serve-manifest";
          meta =
            [
              ("version", "1");
              ("queue", String.concat "," t.q);
              ( "counters",
                join_kv (List.map (fun (k, v) -> (k, string_of_int v)) counters)
              );
            ]
            @ rows;
          graph_src = "";
          valuation = [];
          snapshot = None;
        }
      in
      t.manifest_seq <- t.manifest_seq + 1;
      ignore (Ckpt.Store.save store ~seq:t.manifest_seq file);
      prune store

let parse_row name value =
  match String.split_on_char '\t' value with
  | status :: done_ :: cost :: period :: skips :: reason_parts -> (
      let reason = String.concat "\t" reason_parts in
      match
        ( status_of_atom status reason,
          int_of_string_opt done_,
          int_of_string_opt cost,
          float_of_string_opt period,
          int_of_string_opt skips )
      with
      | Ok st, Some d, Some c, Some p, Some s ->
          Ok
            {
              t_name = name;
              t_status = st;
              t_done = d;
              t_cost = c;
              t_period_ms = p;
              t_skips = s;
              t_hot = None;
              t_touch = 0;
              t_persisted = d;
            }
      | Error e, _, _, _, _ -> Error e
      | _ -> Error (Printf.sprintf "bad manifest row for %S" name))
  | _ -> Error (Printf.sprintf "bad manifest row for %S" name)

let load ~dir =
  let t = create ~dir () in
  match manifest_store t with
  | None -> Ok (t, [])
  | Some store -> (
      match Ckpt.Store.latest store with
      | Error e -> Error e
      | Ok None -> Ok (t, [])
      | Ok (Some (seq, _path, file)) ->
          if file.Ckpt.kind <> "serve-manifest" then
            Error
              (Printf.sprintf "manifest has kind %S, expected serve-manifest"
                 file.Ckpt.kind)
          else begin
            t.manifest_seq <- seq;
            let rec rows acc = function
              | [] -> Ok (List.rev acc)
              | (key, value) :: rest
                when String.starts_with ~prefix:"t." key ->
                  let name =
                    String.sub key 2 (String.length key - 2)
                  in
                  (match parse_row name value with
                  | Ok tenant -> rows (tenant :: acc) rest
                  | Error e -> Error e)
              | _ :: rest -> rows acc rest
            in
            match rows [] file.Ckpt.meta with
            | Error e -> Error e
            | Ok tenants ->
                List.iter (fun tn -> Hashtbl.replace t.table tn.t_name tn) tenants;
                (match Ckpt.meta file "queue" with
                | Some "" | None -> ()
                | Some q ->
                    t.q <-
                      List.filter
                        (fun n -> Hashtbl.mem t.table n)
                        (String.split_on_char ',' q));
                let counters =
                  match Ckpt.meta file "counters" with
                  | Some s -> (
                      match split_kv s with
                      | Ok kvs ->
                          List.filter_map
                            (fun (k, v) ->
                              match int_of_string_opt v with
                              | Some n -> Some (k, n)
                              | None -> None)
                            kvs
                      | Error _ -> [])
                  | None -> []
                in
                Ok (t, counters)
          end)

(* ---------- revive / evict ---------- *)

let meta_req file key =
  match Ckpt.meta file key with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "tenant checkpoint: missing meta %S" key)

let ( let* ) = Result.bind

let int_req file key =
  let* v = meta_req file key in
  match int_of_string_opt v with
  | Some n -> Ok n
  | None -> Error (Printf.sprintf "tenant checkpoint: meta %S not an int" key)

let float_req file key =
  let* v = meta_req file key in
  match float_of_string_opt v with
  | Some f -> Ok f
  | None -> Error (Printf.sprintf "tenant checkpoint: meta %S not a float" key)

let hot_of_file file =
  let* graph =
    match Serial.of_string file.Ckpt.graph_src with
    | Ok g -> Ok g
    | Error e -> Error ("tenant checkpoint graph: " ^ e)
  in
  let* faults = meta_req file "faults" in
  let* specs =
    if faults = "" then Ok [] else Fault.Fault.parse_specs faults
  in
  let* seed = int_req file "seed" in
  let* retries = int_req file "retries" in
  let* backoff = float_req file "backoff" in
  let* degrade_after = int_req file "degrade_after" in
  let* max_restarts = int_req file "max_restarts" in
  let* deadlines_raw = meta_req file "deadlines" in
  let* deadlines_kv = split_kv deadlines_raw in
  let* deadlines_ms =
    List.fold_left
      (fun acc (a, ms) ->
        let* acc = acc in
        match float_of_string_opt ms with
        | Some f -> Ok ((a, f) :: acc)
        | None -> Error (Printf.sprintf "bad deadline %S for %s" ms a))
      (Ok []) deadlines_kv
    |> Result.map List.rev
  in
  let* deadline_raw = meta_req file "deadline_ms" in
  let* deadline_ms =
    if deadline_raw = "" then Ok None
    else
      match float_of_string_opt deadline_raw with
      | Some f -> Ok (Some f)
      | None -> Error "bad deadline_ms"
  in
  let* budget_raw = meta_req file "budget" in
  let* budget =
    if budget_raw = "" then Ok None
    else
      match int_of_string_opt budget_raw with
      | Some n -> Ok (Some n)
      | None -> Error "bad budget"
  in
  let sup_meta =
    List.filter_map
      (fun (k, v) ->
        if String.starts_with ~prefix:sup_prefix k then
          Some
            (String.sub k (String.length sup_prefix)
               (String.length k - String.length sup_prefix), v)
        else None)
      file.Ckpt.meta
  in
  let* ck =
    if sup_meta = [] then Ok None
    else
      Result.map Option.some
        (Fault.Supervisor.checkpoint_of_meta ?snapshot:file.Ckpt.snapshot
           sup_meta)
  in
  let valuation =
    try Valuation.of_list file.Ckpt.valuation
    with Invalid_argument _ -> Valuation.empty
  in
  Ok
    {
      h_cfg =
        {
          c_graph = graph;
          c_src = file.Ckpt.graph_src;
          c_seed = seed;
          c_faults = faults;
          c_specs = specs;
          c_retries = retries;
          c_backoff_ms = backoff;
          c_degrade_after = degrade_after;
          c_max_restarts = max_restarts;
          c_deadlines_ms = deadlines_ms;
          c_deadline_ms = deadline_ms;
          c_budget = budget;
        };
      h_val = valuation;
      h_ck = ck;
      h_sess = None;
    }

let revive t tenant =
  match tenant.t_hot with
  | Some hot -> Ok hot
  | None -> (
      match tenant_store t tenant.t_name with
      | None ->
          Error
            (Printf.sprintf "tenant %S is cold and no state directory is set"
               tenant.t_name)
      | Some store -> (
          match Ckpt.Store.latest store with
          | Error e -> Error e
          | Ok None ->
              Error
                (Printf.sprintf "tenant %S has no valid checkpoint on disk"
                   tenant.t_name)
          | Ok (Some (_seq, _path, file)) ->
              let* hot = hot_of_file file in
              (* The tenant file is authoritative for {e progress} —
                 every advance force-saves it before the counters move.
                 It is NOT authoritative for status: handoff and
                 quarantine transitions on a cold tenant commit through
                 the manifest alone, so the file's status meta can be
                 one transition stale (e.g. "migrating" written at the
                 mark, reverted after a crash).  Keep the registry's. *)
              let* done_ = int_req file "done" in
              let* skips = int_req file "skips" in
              let* cost = int_req file "cost" in
              let* period_ms = float_req file "period_ms" in
              tenant.t_done <- done_;
              tenant.t_skips <- skips;
              tenant.t_cost <- cost;
              tenant.t_period_ms <- period_ms;
              tenant.t_persisted <- done_;
              tenant.t_hot <- Some hot;
              Ok hot))

let evict t tenant =
  match tenant.t_hot with
  | None -> Ok ()
  | Some _ ->
      if t.root = None then
        Error "eviction needs a state directory (--state-dir)"
      else begin
        save_tenant t tenant;
        tenant.t_hot <- None;
        Ok ()
      end

let remove t name =
  Hashtbl.remove t.table name;
  t.q <- List.filter (fun n -> n <> name) t.q;
  match tenant_store t name with
  | None -> ()
  | Some store ->
      List.iter
        (fun seq ->
          try Sys.remove (Ckpt.Store.path store seq) with Sys_error _ -> ())
        (Ckpt.Store.seqs store)

let add t tenant =
  (* A fresh submit under a previously-used name must not inherit stale
     on-disk state. *)
  (match tenant_store t tenant.t_name with
  | Some store ->
      List.iter
        (fun seq ->
          try Sys.remove (Ckpt.Store.path store seq) with Sys_error _ -> ())
        (Ckpt.Store.seqs store)
  | None -> ());
  Hashtbl.replace t.table tenant.t_name tenant

(* ---------- migration transfer ---------- *)

let export tenant =
  match tenant.t_hot with
  | None -> Error (Printf.sprintf "tenant %S is not resident" tenant.t_name)
  | Some hot -> Ok (Ckpt.to_string (tenant_ckpt tenant hot))

let install t ~name ~status src =
  match Ckpt.of_string src with
  | Error e -> Error ("checkpoint: " ^ e)
  | Ok file ->
      if file.Ckpt.kind <> "serve-tenant" then
        Error
          (Printf.sprintf "checkpoint has kind %S, expected serve-tenant"
             file.Ckpt.kind)
      else
        let* mname = meta_req file "name" in
        if mname <> name then
          Error
            (Printf.sprintf "checkpoint is for tenant %S, not %S" mname name)
        else
          let* hot = hot_of_file file in
          let* done_ = int_req file "done" in
          let* skips = int_req file "skips" in
          let* cost = int_req file "cost" in
          let* period_ms = float_req file "period_ms" in
          let tn =
            {
              t_name = name;
              t_status = status;
              t_done = done_;
              t_cost = cost;
              t_period_ms = period_ms;
              t_skips = skips;
              t_hot = Some hot;
              t_touch = 0;
              t_persisted = -1;
            }
          in
          t.q <- List.filter (fun n -> n <> name) t.q;
          add t tn;
          touch t tn;
          save_tenant t tn;
          Ok tn
