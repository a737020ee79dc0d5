(* Checkpoint/restore and transactional reconfiguration suite.

   Pins the tentpole guarantees of tpdf_ckpt:
   - the checkpoint codec round-trips exactly and rejects every torn or
     corrupted file (torture at every byte offset);
   - restore-then-continue is byte-identical to an uninterrupted run —
     outcome, stats, trace and tpdf_obs streams — for every shipped
     graph under every mode scenario, at every iteration boundary and at
     a mid-iteration point, also with the resumed runs sharded across
     2/4-domain pools;
   - a snapshot that lists an actor or a channel twice is rejected;
   - Reconfigure's validate-then-commit transactions roll an invalid
     valuation or scenario back without a trace and continue under the
     previous one;
   - the supervisor's restart-from-checkpoint rolls a failed iteration
     back without double-counting metrics or leaking the rolled-back
     firings' events, also when runs are sharded across domains. *)

open Tpdf_core
open Tpdf_param
module Sim = Tpdf_sim
module Engine = Tpdf_sim.Engine
module Behavior = Tpdf_sim.Behavior
module Heap = Tpdf_sim.Event_heap
module Obs = Tpdf_obs.Obs
module Metrics = Tpdf_obs.Metrics
module Ev = Tpdf_obs.Event
module Fault = Tpdf_fault
module Apps = Tpdf_apps
module Ckpt = Tpdf_ckpt.Ckpt

let graphs_dir =
  let d = "../graphs" in
  if Sys.file_exists d then d else "graphs"

let graph_files =
  Sys.readdir graphs_dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".tpdf")
  |> List.sort compare

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let count_events obs ~cat ~name =
  List.length
    (List.filter
       (fun (e : Ev.t) -> e.cat = cat && e.name = name)
       (Obs.events obs))

(* ------------------------------------------------------------------ *)
(* Checkpoint codec round-trip                                         *)
(* ------------------------------------------------------------------ *)

let fig2_graph () = (Examples.fig2 ()).Examples.graph

(* A checkpoint with a real mid-iteration snapshot in it: fig2 capped at
   half its end time, so the heap, in-flight records and channels are
   all non-trivial. *)
let mid_run_ckpt () =
  let g = fig2_graph () in
  let v = Valuation.of_list [ ("p", 3) ] in
  let eng = Engine.create ~graph:g ~valuation:v ~default:0 () in
  (match Engine.run_outcome ~iterations:2 ~until_ms:2.5 eng with
  | Engine.Stalled _ when Engine.pending_events eng > 0 -> ()
  | _ -> Alcotest.fail "expected the cap to cut fig2 mid-iteration");
  {
    Ckpt.kind = "run";
    meta =
      [
        ("graph", "fig2");
        ("iterations", "2");
        ("done", "0");
        ("note", "tricky \"value\" with \\backslash\ttab\nnewline");
        ("empty", "");
      ];
    graph_src = Serial.to_string g;
    valuation = Valuation.bindings v;
    snapshot = Some (Engine.snapshot ~encode:string_of_int eng);
  }

let test_codec_roundtrip () =
  let c = mid_run_ckpt () in
  (match Ckpt.of_string (Ckpt.to_string c) with
  | Ok c' ->
      Alcotest.(check bool) "round-trips exactly" true (c = c');
      Alcotest.(check string)
        "stable print" (Ckpt.to_string c) (Ckpt.to_string c')
  | Error m -> Alcotest.fail m);
  (* and without a snapshot (boundary checkpoint) *)
  let cb = { c with Ckpt.snapshot = None; kind = "chaos" } in
  match Ckpt.of_string (Ckpt.to_string cb) with
  | Ok c' -> Alcotest.(check bool) "boundary round-trips" true (cb = c')
  | Error m -> Alcotest.fail m

let test_codec_rejects_bad_atoms () =
  let c = mid_run_ckpt () in
  List.iter
    (fun bad ->
      match Ckpt.to_string { c with Ckpt.kind = bad } with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail (Printf.sprintf "kind %S accepted" bad))
    [ ""; "two words"; "qu\"ote"; "back\\slash"; "new\nline" ];
  match Ckpt.to_string { c with Ckpt.meta = [ ("bad key", "v") ] } with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "meta key with a space accepted"

let test_fnv_vector () =
  (* published FNV-1a 64-bit test vectors *)
  Alcotest.(check int64) "empty" 0xcbf29ce484222325L (Ckpt.fnv1a64 "");
  Alcotest.(check int64) "a" 0xaf63dc4c8601ec8cL (Ckpt.fnv1a64 "a");
  Alcotest.(check int64) "foobar" 0x85944171f73967e8L (Ckpt.fnv1a64 "foobar")

(* Torn-write torture: every strict prefix must be rejected — never a
   crash, never a silent Ok — and so must trailing garbage and
   single-byte corruption anywhere in the file. *)
let test_torn_torture () =
  let s = Ckpt.to_string (mid_run_ckpt ()) in
  let n = String.length s in
  Alcotest.(check bool) "non-trivial file" true (n > 500);
  for i = 0 to n - 1 do
    match Ckpt.of_string (String.sub s 0 i) with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail (Printf.sprintf "torn prefix of %d bytes accepted" i)
  done;
  (match Ckpt.of_string (s ^ "trailing garbage\n") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "trailing garbage accepted");
  for i = 0 to n - 1 do
    let b = Bytes.of_string s in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 1));
    match Ckpt.of_string (Bytes.to_string b) with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail (Printf.sprintf "byte %d flipped but accepted" i)
  done

(* A checkpoint written by another format version verifies but is
   refused, naming its version: it is never mistaken for this format,
   and (below) never for a torn file either. *)
let test_foreign_version_refused () =
  let v1 = Ckpt_v1.of_image (Ckpt.to_string (mid_run_ckpt ())) in
  Alcotest.(check bool) "a version-1 header" true
    (String.starts_with ~prefix:"tpdf-ckpt 1\n" v1);
  match Ckpt.of_string v1 with
  | Ok _ -> Alcotest.fail "a tpdf-ckpt 1 image was accepted"
  | Error m ->
      Alcotest.(check bool) ("names the version: " ^ m) true
        (contains m "tpdf-ckpt 1")

(* Checkpoint images hold live state only, so their size follows the
   graph, not the age of the run: a 100-actor chain's boundary image
   after 1000 iterations is within 10% of its size after 10 (only the
   counters' digits grow). *)
let test_image_size_bounded () =
  let n = 100 in
  let one = Tpdf_csdf.Graph.const_rates [ 1 ] in
  let g = Graph.create () in
  for i = 0 to n - 1 do
    Graph.add_kernel g (Printf.sprintf "a%d" i)
  done;
  for i = 0 to n - 2 do
    ignore
      (Graph.add_channel g
         ~src:(Printf.sprintf "a%d" i)
         ~dst:(Printf.sprintf "a%d" (i + 1))
         ~prod:one ~cons:one ())
  done;
  let eng = Engine.create ~graph:g ~valuation:Valuation.empty ~default:0 () in
  let image_after iterations =
    (match Engine.run_outcome ~iterations eng with
    | Engine.Completed _ -> ()
    | _ -> Alcotest.fail "the chain must complete");
    String.length
      (Ckpt.to_string
         {
           Ckpt.kind = "run";
           meta = [];
           graph_src = Serial.to_string g;
           valuation = [];
           snapshot = Some (Engine.snapshot ~encode:string_of_int eng);
         })
  in
  let young = image_after 10 in
  let old = image_after 1000 in
  if float_of_int old > 1.1 *. float_of_int young then
    Alcotest.failf "image grew with age: %d bytes after 10 iterations, %d after 1000"
      young old

(* ------------------------------------------------------------------ *)
(* Store: numbered files, latest-valid fallback                        *)
(* ------------------------------------------------------------------ *)

let with_temp_dir f =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "tpdf_ckpt_test_%d" (Unix.getpid ()))
  in
  let cleanup () =
    if Sys.file_exists dir then begin
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Sys.rmdir dir
    end
  in
  cleanup ();
  Fun.protect ~finally:cleanup (fun () -> f dir)

let test_store () =
  with_temp_dir @@ fun dir ->
  let st = Ckpt.Store.open_dir dir in
  let c = mid_run_ckpt () in
  let at seq = { c with Ckpt.meta = [ ("seq", string_of_int seq) ] } in
  ignore (Ckpt.Store.save st ~seq:1 (at 1));
  ignore (Ckpt.Store.save st ~seq:2 (at 2));
  let p3 = Ckpt.Store.save st ~seq:3 (at 3) in
  (* non-canonical names are ignored *)
  let junk = Filename.concat dir "ckpt-0000000a.tpdfckpt" in
  let oc = open_out junk in
  output_string oc "not a checkpoint";
  close_out oc;
  Alcotest.(check (list int)) "seqs" [ 1; 2; 3 ] (Ckpt.Store.seqs st);
  (match Ckpt.Store.latest st with
  | Ok (Some (3, _, c3)) ->
      Alcotest.(check (option string)) "latest is 3" (Some "3")
        (Ckpt.meta c3 "seq")
  | _ -> Alcotest.fail "latest should be seq 3");
  (* torn newest file: latest falls back to the newest one that verifies *)
  let truncated = In_channel.with_open_bin p3 In_channel.input_all in
  let oc = open_out_bin p3 in
  output_string oc (String.sub truncated 0 (String.length truncated / 2));
  close_out oc;
  (match Ckpt.Store.latest st with
  | Ok (Some (2, _, c2)) ->
      Alcotest.(check (option string)) "fell back to 2" (Some "2")
        (Ckpt.meta c2 "seq")
  | _ -> Alcotest.fail "latest should fall back to seq 2");
  (* overwriting a seq is atomic and wins *)
  ignore (Ckpt.Store.save st ~seq:2 (at 22));
  (match Ckpt.Store.latest st with
  | Ok (Some (2, _, c2)) ->
      Alcotest.(check (option string)) "overwritten" (Some "22")
        (Ckpt.meta c2 "seq")
  | _ -> Alcotest.fail "latest should still be seq 2");
  (* a newer file from another format version is not torn: no fallback
     past it to seq 2, an error naming the file and its version *)
  let p4 = Ckpt.Store.path st 4 in
  Out_channel.with_open_bin p4 (fun oc ->
      Out_channel.output_string oc
        (Ckpt_v1.of_image (Ckpt.to_string (at 4))));
  (match Ckpt.Store.latest st with
  | Error m ->
      Alcotest.(check bool) ("names file and version: " ^ m) true
        (contains m p4 && contains m "tpdf-ckpt 1")
  | Ok _ -> Alcotest.fail "latest fell back past a foreign-version file");
  match Ckpt.read p4 with
  | Error m ->
      Alcotest.(check bool) ("read names the version: " ^ m) true
        (contains m "tpdf-ckpt 1")
  | Ok _ -> Alcotest.fail "Ckpt.read accepted a tpdf-ckpt 1 file"

(* ------------------------------------------------------------------ *)
(* Event heap snapshot round-trip (qcheck)                             *)
(* ------------------------------------------------------------------ *)

let gen_ops =
  QCheck.Gen.(
    list_size (int_range 0 120)
      (frequency
         [ (3, map (fun t -> `Add (float_of_int t /. 2.0)) (int_range 0 6));
           (2, return `Pop) ]))

let arb_ops =
  QCheck.make
    ~print:(fun ops ->
      String.concat ";"
        (List.map
           (function `Add t -> Printf.sprintf "add %.1f" t | `Pop -> "pop")
           ops))
    gen_ops

let prop_heap_roundtrip =
  QCheck.Test.make ~name:"entries/of_entries round-trip" ~count:300 arb_ops
    (fun ops ->
      let h = Heap.create () in
      let k = ref 0 in
      List.iter
        (function
          | `Add t ->
              Heap.add h t !k;
              incr k
          | `Pop -> ignore (Heap.pop h))
        ops;
      let h' = Heap.of_entries ~next_seq:(Heap.next_seq h) (Heap.entries h) in
      (* future adds must keep FIFO ties consistent, so the sequence
         counter has to survive the round-trip too *)
      Heap.add h 1.0 (-1);
      Heap.add h' 1.0 (-1);
      Heap.add h 0.5 (-2);
      Heap.add h' 0.5 (-2);
      let drain h =
        let rec go acc =
          match Heap.pop h with None -> List.rev acc | Some e -> go (e :: acc)
        in
        go []
      in
      drain h = drain h')

(* ------------------------------------------------------------------ *)
(* Restore equivalence: every graph x scenario x resume point          *)
(* ------------------------------------------------------------------ *)

let iterations = 3

let valuation_for g =
  List.fold_left
    (fun v p -> Valuation.add p 2 v)
    Valuation.empty (Graph.parameters g)

let scenario_behaviors g scenario =
  let ctrl = Sim.Reconfigure.scenario_control_behavior g scenario in
  List.filter_map
    (fun a -> if Graph.is_control g a then Some (a, ctrl) else None)
    (Graph.actors g)

let run_full g v scenario =
  let targets =
    List.map (fun a -> (a, 0)) (Sim.Reconfigure.starved_actors g scenario)
  in
  let obs = Obs.create () in
  let eng =
    Engine.create ~graph:g ~valuation:v
      ~behaviors:(scenario_behaviors g scenario)
      ~obs ~default:0 ()
  in
  let o = Engine.run_outcome ~iterations ~targets ~max_events:50_000 eng in
  (o, Obs.events obs)

(* Uninterrupted run driven with the same chunked pattern as a
   boundary resume: stop at iteration [k], then finish with a second
   [run_outcome] call on the same engine.  The chunk boundary is a
   barrier that stops source run-ahead, so chunked driving is a
   different (still deterministic) schedule from a single call — it is
   the correct reference for boundary restores, while the single-call
   run remains the reference for mid-iteration [until_ms] stops, which
   leave the schedule untouched. *)
let run_chunked g v scenario ~k =
  let targets =
    List.map (fun a -> (a, 0)) (Sim.Reconfigure.starved_actors g scenario)
  in
  let obs = Obs.create () in
  let eng =
    Engine.create ~graph:g ~valuation:v
      ~behaviors:(scenario_behaviors g scenario)
      ~obs ~default:0 ()
  in
  match Engine.run_outcome ~iterations:k ~targets ~max_events:50_000 eng with
  | Engine.Completed _ ->
      let o = Engine.run_outcome ~iterations ~targets ~max_events:50_000 eng in
      Some (o, Obs.events obs)
  | _ -> None

(* Run to [stop], persist through the full checkpoint codec (string
   round-trip included), restore into a fresh engine built from the
   *parsed* graph source, and finish the run. *)
let run_resumed g v scenario ~stop =
  let targets =
    List.map (fun a -> (a, 0)) (Sim.Reconfigure.starved_actors g scenario)
  in
  let obs1 = Obs.create () in
  let eng =
    Engine.create ~graph:g ~valuation:v
      ~behaviors:(scenario_behaviors g scenario)
      ~obs:obs1 ~default:0 ()
  in
  let reached =
    match stop with
    | `Boundary k -> (
        match Engine.run_outcome ~iterations:k ~targets ~max_events:50_000 eng with
        | Engine.Completed _ -> true
        | _ -> false)
    | `At_ms t -> (
        match
          Engine.run_outcome ~iterations ~targets ~until_ms:t
            ~max_events:50_000 eng
        with
        | Engine.Stalled _ -> Engine.pending_events eng > 0
        | Engine.Completed _ -> false
        | _ -> false)
  in
  if not reached then None
  else begin
    let file =
      {
        Ckpt.kind = "run";
        meta = [];
        graph_src = Serial.to_string g;
        valuation = Valuation.bindings v;
        snapshot = Some (Engine.snapshot ~encode:string_of_int eng);
      }
    in
    let file' =
      match Ckpt.of_string (Ckpt.to_string file) with
      | Ok f -> f
      | Error m -> Alcotest.fail ("checkpoint did not round-trip: " ^ m)
    in
    let g' =
      match Serial.of_string file'.Ckpt.graph_src with
      | Ok g -> g
      | Error m -> Alcotest.fail ("embedded graph did not parse: " ^ m)
    in
    let v' = Valuation.of_list file'.Ckpt.valuation in
    let obs2 = Obs.create () in
    let eng' =
      Engine.restore
        (Engine.compile ~graph:g' ~valuation:v')
        ~behaviors:(scenario_behaviors g' scenario)
        ~obs:obs2 ~default:0 ~decode:int_of_string
        (Option.get file'.Ckpt.snapshot)
    in
    let o = Engine.run_outcome ~iterations ~targets ~max_events:50_000 eng' in
    Some (o, Obs.events obs1 @ Obs.events obs2)
  end

let check_restore_file file () =
  let path = Filename.concat graphs_dir file in
  let g =
    match Serial.load path with
    | Ok g -> g
    | Error m -> Alcotest.fail (file ^ ": " ^ m)
  in
  let v = valuation_for g in
  let checked = ref 0 in
  List.iteri
    (fun si scenario ->
      let full_o, full_ev = run_full g v scenario in
      let stops =
        (match full_o with
        | Engine.Completed stats when stats.Engine.end_ms > 0.0 ->
            [ `At_ms (stats.Engine.end_ms /. 2.0) ]
        | _ -> [])
        @ List.init (iterations - 1) (fun k -> `Boundary (k + 1))
      in
      List.iter
        (fun stop ->
          let reference =
            match stop with
            | `At_ms _ -> Some (full_o, full_ev)
            | `Boundary k -> run_chunked g v scenario ~k
          in
          match (reference, run_resumed g v scenario ~stop) with
          | None, _ | _, None -> () (* scenario never reaches that point *)
          | Some (ref_o, ref_ev), Some (o, ev) ->
              incr checked;
              let label =
                Printf.sprintf "%s scenario %d %s" file si
                  (match stop with
                  | `Boundary k -> Printf.sprintf "boundary %d" k
                  | `At_ms t -> Printf.sprintf "mid-iteration at %.3f" t)
              in
              if o <> ref_o then
                Alcotest.fail (label ^ ": outcome diverged after restore");
              if ev <> ref_ev then
                Alcotest.fail (label ^ ": obs streams diverged after restore"))
        stops)
    (Sim.Reconfigure.mode_scenarios g);
  Alcotest.(check bool)
    (file ^ " exercised at least one resume point")
    true (!checked > 0)

let restore_tests =
  List.map
    (fun f -> Alcotest.test_case f `Quick (check_restore_file f))
    graph_files

module Pool = Tpdf_par.Pool

let with_pool ~domains f =
  let pool = Pool.create ~domains in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) (fun () -> f pool)

(* Restores may run on any domain, several at once.  The resumed runs
   of every scenario and stop point run as concurrent tasks on a
   [domains]-domain pool, each on a graph of its own, and each must
   match its sequential reference byte for byte. *)
let check_restore_pooled domains file () =
  let path = Filename.concat graphs_dir file in
  let load () =
    match Serial.load path with
    | Ok g -> g
    | Error m -> Alcotest.fail (file ^ ": " ^ m)
  in
  let g = load () in
  let v = valuation_for g in
  let cases =
    List.concat
      (List.mapi
         (fun si scenario ->
           List.map
             (fun stop -> (si, scenario, stop))
             [ `Boundary 1; `At_ms 1.5 ])
         (Sim.Reconfigure.mode_scenarios g))
  in
  let resumed =
    with_pool ~domains @@ fun pool ->
    Pool.run pool
      (Array.of_list
         (List.map
            (fun (_, scenario, stop) () ->
              run_resumed (load ()) v scenario ~stop)
            cases))
  in
  List.iteri
    (fun k (si, scenario, stop) ->
      let reference =
        match stop with
        | `At_ms _ -> Some (run_full g v scenario)
        | `Boundary k -> run_chunked g v scenario ~k
      in
      match (reference, resumed.(k)) with
      | None, _ | _, None -> ()
      | Some (ref_o, ref_ev), Some (o, ev) ->
          let label =
            Printf.sprintf "%s scenario %d (%d domains)" file si domains
          in
          if o <> ref_o then Alcotest.fail (label ^ ": pooled outcome diverged");
          if ev <> ref_ev then
            Alcotest.fail (label ^ ": pooled obs stream diverged"))
    cases

let pooled_tests =
  List.concat_map
    (fun domains ->
      List.map
        (fun f ->
          Alcotest.test_case
            (Printf.sprintf "%s @%d domains" f domains)
            `Quick
            (check_restore_pooled domains f))
        graph_files)
    [ 2; 4 ]

(* ------------------------------------------------------------------ *)
(* Observability across checkpoint/restore                             *)
(* ------------------------------------------------------------------ *)

(* Counter and histogram totals summed over a split run's collectors.
   Gauges are deliberately excluded: they are instantaneous state
   (engine.steps progress, gc.* readings) that a fresh process
   legitimately re-derives rather than restores. *)
let counter_totals obs_list =
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun obs ->
      List.iter
        (fun (k, v) ->
          Hashtbl.replace tbl k
            (v + Option.value ~default:0 (Hashtbl.find_opt tbl k)))
        (Metrics.counters (Obs.metrics obs)))
    obs_list;
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

let histogram_totals obs_list =
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun obs ->
      List.iter
        (fun (k, (s : Metrics.histogram_stats)) ->
          let c0, s0 =
            Option.value ~default:(0, 0.0) (Hashtbl.find_opt tbl k)
          in
          Hashtbl.replace tbl k (c0 + s.Metrics.count, s0 +. s.Metrics.sum))
        (Metrics.histograms (Obs.metrics obs)))
    obs_list;
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

(* Checkpoint mid-run, restore into a fresh engine (full codec
   round-trip in between), finish: the concatenated event streams must
   be byte-identical to the uninterrupted run, and every counter and
   histogram must add up exactly — the rolled window neither loses nor
   double-counts a single firing. *)
let test_obs_survives_restore () =
  let g = fig2_graph () in
  let v = Valuation.of_list [ ("p", 2) ] in
  let iterations = 3 in
  let obs_full = Obs.create () in
  let eng = Engine.create ~graph:g ~valuation:v ~obs:obs_full ~default:0 () in
  let full_stats =
    match Engine.run_outcome ~iterations eng with
    | Engine.Completed s -> s
    | _ -> Alcotest.fail "reference run must complete"
  in
  let obs1 = Obs.create () in
  let eng1 = Engine.create ~graph:g ~valuation:v ~obs:obs1 ~default:0 () in
  let stop = full_stats.Engine.end_ms /. 2.0 in
  (match Engine.run_outcome ~iterations ~until_ms:stop eng1 with
  | Engine.Stalled _ when Engine.pending_events eng1 > 0 -> ()
  | _ -> Alcotest.fail "expected the cap to stop the run mid-iteration");
  let file =
    {
      Ckpt.kind = "run";
      meta = [];
      graph_src = Serial.to_string g;
      valuation = Valuation.bindings v;
      snapshot = Some (Engine.snapshot ~encode:string_of_int eng1);
    }
  in
  let file' =
    match Ckpt.of_string (Ckpt.to_string file) with
    | Ok f -> f
    | Error m -> Alcotest.fail ("checkpoint round-trip: " ^ m)
  in
  let g' =
    match Serial.of_string file'.Ckpt.graph_src with
    | Ok g -> g
    | Error m -> Alcotest.fail ("embedded graph: " ^ m)
  in
  let obs2 = Obs.create () in
  let eng2 =
    Engine.restore
      (Engine.compile ~graph:g'
         ~valuation:(Valuation.of_list file'.Ckpt.valuation))
      ~obs:obs2 ~default:0 ~decode:int_of_string
      (Option.get file'.Ckpt.snapshot)
  in
  (match Engine.run_outcome ~iterations eng2 with
  | Engine.Completed s when s = full_stats -> ()
  | _ -> Alcotest.fail "resumed outcome diverged");
  Alcotest.(check bool) "event streams byte-identical" true
    (Obs.events obs1 @ Obs.events obs2 = Obs.events obs_full);
  Alcotest.(check (list (pair string int))) "counter totals add up exactly"
    (counter_totals [ obs_full ])
    (counter_totals [ obs1; obs2 ]);
  Alcotest.(check (list (pair string (pair int (float 1e-9)))))
    "histogram totals add up exactly"
    (histogram_totals [ obs_full ])
    (histogram_totals [ obs1; obs2 ])

(* Snapshots arrive from outside the program — checkpoint files,
   migration peers — and the FNV checksum vouches only for their bytes.
   An image that lists an actor or a channel twice (and, its counts
   being right, omits another) must be refused: restoring it would leave
   the omitted one in fresh-instance state. *)
let test_restore_rejects_duplicates () =
  let snap = Option.get (mid_run_ckpt ()).Ckpt.snapshot in
  let program =
    Engine.compile ~graph:(fig2_graph ())
      ~valuation:(Valuation.of_list [ ("p", 3) ])
  in
  let restore s =
    Engine.restore program ~default:0 ~decode:int_of_string s
  in
  ignore (restore snap);
  let repeat_first = function a :: _ :: rest -> a :: a :: rest | l -> l in
  let refused what s =
    match restore s with
    | _ -> Alcotest.fail (what ^ " listed twice was restored")
    | exception Invalid_argument _ -> ()
  in
  refused "an actor"
    { snap with Sim.Snapshot.actors = repeat_first snap.Sim.Snapshot.actors };
  refused "a channel"
    { snap with Sim.Snapshot.channels = repeat_first snap.Sim.Snapshot.channels }

(* ------------------------------------------------------------------ *)
(* Transactional reconfiguration: validate-then-commit                 *)
(* ------------------------------------------------------------------ *)

let test_txn_sequence_abort () =
  let g = fig2_graph () in
  let v n = Valuation.of_list [ ("p", n) ] in
  let obs = Obs.create () in
  let log = Firing_log.create () in
  let report =
    Sim.Reconfigure.run_sequence ~graph:g ~obs
      ~behaviors:(Firing_log.wrap_kernels log g ~default:0 [])
      ~txn:true ~default:0
      [ v 2; Valuation.empty; v 3 ]
  in
  (* the kernels' firing log, cut into one slice per iteration *)
  let slices =
    let rec cut entries = function
      | [] -> []
      | (it : Sim.Reconfigure.iteration_stats) :: rest ->
          let n =
            List.fold_left
              (fun acc (a, k) -> if Graph.is_control g a then acc else acc + k)
              0 it.Sim.Reconfigure.stats.Engine.firings
          in
          List.filteri (fun i _ -> i < n) entries
          :: cut (List.filteri (fun i _ -> i >= n) entries) rest
    in
    cut (Firing_log.entries log) report.Sim.Reconfigure.iterations
  in
  Alcotest.(check int) "three iterations" 3
    (List.length report.Sim.Reconfigure.iterations);
  (match report.Sim.Reconfigure.aborts with
  | [ a ] ->
      Alcotest.(check int) "abort index" 1 a.Sim.Reconfigure.abort_index;
      Alcotest.(check bool) "reason names the parameter" true
        (contains a.Sim.Reconfigure.abort_reason "unbound parameter")
  | aborts ->
      Alcotest.fail (Printf.sprintf "expected 1 abort, got %d" (List.length aborts)));
  (* the aborted slot was rolled back to the previous valuation and its
     rerun matches the original committed iteration exactly *)
  (match report.Sim.Reconfigure.iterations with
  | [ it0; it1; it2 ] ->
      Alcotest.(check bool) "rollback used the previous valuation" true
        (it1.Sim.Reconfigure.valuation = v 2);
      Alcotest.(check bool) "rollback stats = committed stats" true
        (it1.Sim.Reconfigure.stats = it0.Sim.Reconfigure.stats);
      (match slices with
      | [ l0; l1; _ ] ->
          Alcotest.(check bool) "rollback firings = committed firings" true
            (l0 <> [] && l1 = l0)
      | _ -> Alcotest.fail "expected three firing-log slices");
      Alcotest.(check bool) "third valuation committed" true
        (it2.Sim.Reconfigure.valuation = v 3)
  | _ -> Alcotest.fail "expected three iterations");
  Alcotest.(check int) "txn.begin x3" 3 (count_events obs ~cat:"txn" ~name:"txn.begin");
  Alcotest.(check int) "txn.commit x2" 2 (count_events obs ~cat:"txn" ~name:"txn.commit");
  Alcotest.(check int) "txn.abort x1" 1 (count_events obs ~cat:"txn" ~name:"txn.abort");
  Alcotest.(check int) "reconfigure.aborts counter" 1
    (Metrics.counter (Obs.metrics obs) "reconfigure.aborts")

let test_txn_first_rejected () =
  let g = fig2_graph () in
  match
    Sim.Reconfigure.run_sequence ~graph:g ~txn:true ~default:0
      [ Valuation.empty; Valuation.of_list [ ("p", 2) ] ]
  with
  | exception Failure m ->
      Alcotest.(check bool) "says nothing to roll back to" true
        (contains m "no previous valuation")
  | _ -> Alcotest.fail "initial invalid valuation must fail"

let test_txn_abort_leaves_no_trace () =
  let g = fig2_graph () in
  let v2 = Valuation.of_list [ ("p", 2) ] in
  (* same committed work, with and without an aborted transaction in the
     middle: the metrics the engine collects must agree (nothing of the
     aborted attempt leaks), modulo the abort's own records *)
  let run vals =
    let obs = Obs.create () in
    let r = Sim.Reconfigure.run_sequence ~graph:g ~obs ~txn:true ~default:0 vals in
    (r, obs)
  in
  let _, obs_clean = run [ v2; v2 ] in
  let _, obs_abort = run [ v2; Valuation.empty ] in
  let firing_counter obs =
    Metrics.counter (Obs.metrics obs) "engine.firings"
  in
  Alcotest.(check int) "engine.firings identical"
    (firing_counter obs_clean) (firing_counter obs_abort);
  let engine_events obs =
    List.filter (fun (e : Ev.t) -> e.cat <> "txn") (Obs.events obs)
  in
  Alcotest.(check int) "engine event counts identical"
    (List.length (engine_events obs_clean))
    (List.length (engine_events obs_abort))

let test_txn_scenarios_abort () =
  let g = fig2_graph () in
  let v = Valuation.of_list [ ("p", 2) ] in
  let scenarios = Sim.Reconfigure.mode_scenarios g in
  let good = List.hd scenarios in
  let obs = Obs.create () in
  let report =
    Sim.Reconfigure.run_scenarios ~graph:g ~obs ~txn:true ~valuation:v
      ~default:0
      [ good; [ ("F", "no_such_mode") ]; good ]
  in
  Alcotest.(check int) "three iterations" 3
    (List.length report.Sim.Reconfigure.iterations);
  (match report.Sim.Reconfigure.aborts with
  | [ a ] ->
      Alcotest.(check int) "abort index" 1 a.Sim.Reconfigure.abort_index;
      Alcotest.(check bool) "reason names the mode" true
        (contains a.Sim.Reconfigure.abort_reason "no_such_mode")
  | _ -> Alcotest.fail "expected exactly one abort");
  Alcotest.(check int) "txn.abort instant" 1
    (count_events obs ~cat:"txn" ~name:"txn.abort");
  (* without txn, the same sequence is rejected up front *)
  match
    Sim.Reconfigure.run_scenarios ~graph:g ~valuation:v ~default:0
      [ good; [ ("F", "no_such_mode") ]; good ]
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "non-txn run must reject the bad scenario eagerly"

(* ------------------------------------------------------------------ *)
(* Supervisor restart-from-checkpoint                                  *)
(* ------------------------------------------------------------------ *)

(* A QAM behaviour that violates its contract (emits nothing) forces
   Engine.Error on the first iteration under the ambitious default
   scenario.  One restart must roll the attempt back, escalate to the
   degraded pins (QAM starved) and complete — without the rolled-back
   QAM firings in the stream and without double-counted metrics. *)
let restart_run () =
  let g, _ = Apps.Ofdm_app.tpdf_graph () in
  let v = Apps.Ofdm_app.valuation ~beta:2 ~n:8 ~l:1 in
  let behaviors = [ ("QAM", Behavior.make (fun _ -> [])) ] in
  let policy =
    Fault.Policy.make ~max_restarts:1
      ~fallbacks:(Fault.Chaos.default_fallbacks g) ()
  in
  let obs = Obs.create () in
  let s =
    Fault.Supervisor.run ~graph:g ~plan:Fault.Plan.none ~policy ~obs
      ~behaviors
      ~scenario:(Fault.Chaos.default_scenario g)
      ~iterations:3 ~encode:string_of_int ~decode:int_of_string
      ~valuation:v ~default:0 ()
  in
  (s, obs)

let test_restart_recovers () =
  let s, obs = restart_run () in
  Alcotest.(check (option string)) "recovered" None s.Fault.Supervisor.unrecovered;
  Alcotest.(check int) "one restart" 1 s.Fault.Supervisor.restarts;
  Alcotest.(check int) "three iterations" 3 s.Fault.Supervisor.iterations_run;
  Alcotest.(check (list (pair string string)))
    "escalated to the degraded pins"
    [ ("DUP", "qpsk"); ("TRAN", "qpsk") ]
    (List.sort compare s.Fault.Supervisor.degrades);
  (* QAM is starved after escalation: no iteration fired it *)
  List.iter
    (fun (it : Engine.stats) ->
      Alcotest.(check int) "QAM silent" 0 (List.assoc "QAM" it.Engine.firings))
    s.Fault.Supervisor.per_iteration;
  (* instrumentation: exactly one restart instant and counter, and the
     rolled-back attempt's QAM firings left no event behind *)
  Alcotest.(check int) "restart instant" 1
    (count_events obs ~cat:"supervisor" ~name:"restart");
  Alcotest.(check int) "supervisor.restarts" 1
    (Metrics.counter (Obs.metrics obs) "supervisor.restarts");
  Alcotest.(check int) "degrade counter not double-counted" 2
    (Metrics.counter (Obs.metrics obs) "supervisor.degrades");
  let qam_events =
    List.filter
      (fun (e : Ev.t) -> e.track = "QAM" || contains e.name "QAM")
      (Obs.events obs)
  in
  Alcotest.(check int) "no rolled-back QAM events" 0 (List.length qam_events)

let test_restart_budget_exhausted () =
  (* max_restarts = 0 keeps the historical behaviour: the failure ends
     the run with the final attempt's events committed *)
  let g, _ = Apps.Ofdm_app.tpdf_graph () in
  let v = Apps.Ofdm_app.valuation ~beta:2 ~n:8 ~l:1 in
  let behaviors = [ ("QAM", Behavior.make (fun _ -> [])) ] in
  let obs = Obs.create () in
  let s =
    Fault.Supervisor.run ~graph:g ~plan:Fault.Plan.none ~obs ~behaviors
      ~scenario:(Fault.Chaos.default_scenario g)
      ~iterations:3 ~valuation:v ~default:0 ()
  in
  (match s.Fault.Supervisor.unrecovered with
  | Some m -> Alcotest.(check bool) "diagnosis kept" true (String.length m > 0)
  | None -> Alcotest.fail "run without a restart budget must not recover");
  Alcotest.(check int) "no restarts" 0 s.Fault.Supervisor.restarts

(* Four restarting runs at once, one per task on a 1/2/4-domain pool:
   each rollback must stay inside its own run. *)
let test_restart_deterministic_across_domains () =
  let seq_s, seq_obs = restart_run () in
  List.iter
    (fun domains ->
      let runs =
        with_pool ~domains @@ fun pool ->
        Pool.run pool
          (Array.make 4 (fun () ->
               let s, obs = restart_run () in
               (s, Obs.events obs)))
      in
      Array.iter
        (fun (s, events) ->
          Alcotest.(check bool)
            (Printf.sprintf "summary identical @%d domains" domains)
            true (s = seq_s);
          Alcotest.(check bool)
            (Printf.sprintf "obs stream identical @%d domains" domains)
            true
            (events = Obs.events seq_obs))
        runs)
    [ 1; 2; 4 ]

(* ------------------------------------------------------------------ *)
(* Supervisor kill / resume equivalence                                *)
(* ------------------------------------------------------------------ *)

let chaos_config g =
  let behaviors =
    List.filter_map
      (fun a ->
        if Graph.is_control g a then None
        else
          Some
            ( a,
              Sim.Behavior.fill 0
                ~duration_ms:(fun _ ->
                  Apps.Ofdm_app.model_cost_ms ~beta:2 ~n:8 a) ))
      (Graph.actors g)
  in
  let policy =
    Fault.Policy.make
      ~deadlines_ms:[ ("QAM", 40.0); ("FFT", 20.0) ]
      ~max_retries:2
      ~fallbacks:(Fault.Chaos.default_fallbacks g) ()
  in
  (behaviors, policy)

let chaos_full g v =
  let behaviors, policy = chaos_config g in
  let obs = Obs.create () in
  let s =
    Fault.Chaos.run ~graph:g ~seed:42
      ~specs:[ Fault.Fault.spec ~target:"QAM" ~prob:0.8 (Fault.Fault.Overrun 8.0) ]
      ~policy ~iterations:6 ~obs ~behaviors ~valuation:v ()
  in
  (s, Obs.events obs)

let chaos_killed_resumed g v ~kill_at_ms =
  let behaviors, policy = chaos_config g in
  let specs =
    [ Fault.Fault.spec ~target:"QAM" ~prob:0.8 (Fault.Fault.Overrun 8.0) ]
  in
  let obs1 = Obs.create () in
  let s1 =
    Fault.Chaos.run ~graph:g ~seed:42 ~specs ~policy ~iterations:6 ~obs:obs1
      ~behaviors ~valuation:v ~kill_at_ms ()
  in
  match s1.Fault.Supervisor.killed with
  | None -> None
  | Some ck ->
      (* persist through the checkpoint file codec, like tpdf_tool does *)
      let file =
        {
          Ckpt.kind = "chaos";
          meta = Fault.Supervisor.checkpoint_meta ck;
          graph_src = Serial.to_string g;
          valuation = Valuation.bindings v;
          snapshot = ck.Fault.Supervisor.ck_engine;
        }
      in
      let file' =
        match Ckpt.of_string (Ckpt.to_string file) with
        | Ok f -> f
        | Error m -> Alcotest.fail ("chaos checkpoint round-trip: " ^ m)
      in
      let ck' =
        match
          Fault.Supervisor.checkpoint_of_meta ?snapshot:file'.Ckpt.snapshot
            file'.Ckpt.meta
        with
        | Ok ck -> ck
        | Error m -> Alcotest.fail ("checkpoint meta decode: " ^ m)
      in
      Alcotest.(check bool) "checkpoint round-trips" true (ck = ck');
      let obs2 = Obs.create () in
      let s2 =
        Fault.Chaos.run ~graph:g ~seed:42 ~specs ~policy ~iterations:6
          ~obs:obs2 ~behaviors ~valuation:v ~resume:ck' ()
      in
      Some (s2, Obs.events obs1 @ Obs.events obs2)

(* A resumed summary restores every counter exactly, but
   [per_iteration] only holds the iterations this process ran — the
   checkpoint deliberately carries no per-iteration traces.  So the
   equivalence contract is: all scalar fields equal, and the resumed
   [per_iteration] list is the tail of the uninterrupted one. *)
let summary_matches ~full s =
  let scrub s =
    { s with Fault.Supervisor.killed = None; per_iteration = [] }
  in
  let tail_of l n =
    let len = List.length l in
    if n > len then None else Some (List.filteri (fun i _ -> i >= len - n) l)
  in
  scrub s = scrub full
  && tail_of full.Fault.Supervisor.per_iteration
       (List.length s.Fault.Supervisor.per_iteration)
     = Some s.Fault.Supervisor.per_iteration

let test_chaos_kill_resume () =
  let g, _ = Apps.Ofdm_app.tpdf_graph () in
  let v = Apps.Ofdm_app.valuation ~beta:2 ~n:8 ~l:1 in
  let full_s, full_ev = chaos_full g v in
  Alcotest.(check bool) "full run recovered" true (Fault.Chaos.recovered full_s);
  let total = full_s.Fault.Supervisor.total_end_ms in
  Alcotest.(check bool) "run long enough to kill" true (total > 1.0);
  let kills = ref 0 in
  (* kill at boundaries and mid-iteration across the whole timeline *)
  List.iter
    (fun frac ->
      match chaos_killed_resumed g v ~kill_at_ms:(frac *. total) with
      | None -> ()
      | Some (s, ev) ->
          incr kills;
          let label = Printf.sprintf "kill at %.0f%%" (frac *. 100.0) in
          if s.Fault.Supervisor.killed <> None then
            Alcotest.fail (label ^ ": resumed run was killed again");
          Alcotest.(check bool)
            (label ^ ": summary matches uninterrupted")
            true (summary_matches ~full:full_s s);
          Alcotest.(check bool)
            (label ^ ": obs stream matches uninterrupted")
            true (ev = full_ev))
    [ 0.15; 0.33; 0.5; 0.65; 0.8 ];
  Alcotest.(check bool) "killed at least twice" true (!kills >= 2)

(* Kill/resume cycles at three instants run at once, one per task on a
   2/4-domain pool, each on a graph of its own. *)
let test_chaos_kill_resume_pooled () =
  let g, _ = Apps.Ofdm_app.tpdf_graph () in
  let v = Apps.Ofdm_app.valuation ~beta:2 ~n:8 ~l:1 in
  let full_s, full_ev = chaos_full g v in
  let total = full_s.Fault.Supervisor.total_end_ms in
  List.iter
    (fun domains ->
      let runs =
        with_pool ~domains @@ fun pool ->
        Pool.run pool
          (Array.of_list
             (List.map
                (fun frac () ->
                  let g, _ = Apps.Ofdm_app.tpdf_graph () in
                  chaos_killed_resumed g v ~kill_at_ms:(frac *. total))
                [ 0.33; 0.5; 0.65 ]))
      in
      Array.iter
        (function
          | None -> Alcotest.fail "pooled kill did not land"
          | Some (s, ev) ->
              Alcotest.(check bool)
                (Printf.sprintf "pooled summary @%d domains" domains)
                true (summary_matches ~full:full_s s);
              Alcotest.(check bool)
                (Printf.sprintf "pooled obs stream @%d domains" domains)
                true (ev = full_ev))
        runs)
    [ 2; 4 ]

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "ckpt"
    [
      ( "codec",
        [
          Alcotest.test_case "round-trip" `Quick test_codec_roundtrip;
          Alcotest.test_case "bad atoms rejected" `Quick
            test_codec_rejects_bad_atoms;
          Alcotest.test_case "fnv1a64 vectors" `Quick test_fnv_vector;
          Alcotest.test_case "torn-write torture" `Quick test_torn_torture;
          Alcotest.test_case "foreign version refused" `Quick
            test_foreign_version_refused;
          Alcotest.test_case "image size independent of age" `Quick
            test_image_size_bounded;
        ] );
      ("store", [ Alcotest.test_case "latest-valid fallback" `Quick test_store ]);
      ("heap", [ QCheck_alcotest.to_alcotest prop_heap_roundtrip ]);
      ("restore-equiv", restore_tests);
      ( "obs-equiv",
        [
          Alcotest.test_case "metric totals + streams survive restore" `Quick
            test_obs_survives_restore;
        ] );
      ( "restore-checks",
        [
          Alcotest.test_case "duplicate actor or channel refused" `Quick
            test_restore_rejects_duplicates;
        ] );
      ("restore-equiv-pooled", pooled_tests);
      ( "txn",
        [
          Alcotest.test_case "sequence abort + rollback" `Quick
            test_txn_sequence_abort;
          Alcotest.test_case "first valuation rejected" `Quick
            test_txn_first_rejected;
          Alcotest.test_case "abort leaves no trace" `Quick
            test_txn_abort_leaves_no_trace;
          Alcotest.test_case "scenario abort + rollback" `Quick
            test_txn_scenarios_abort;
        ] );
      ( "restart",
        [
          Alcotest.test_case "rollback + escalate + recover" `Quick
            test_restart_recovers;
          Alcotest.test_case "budget exhausted keeps diagnosis" `Quick
            test_restart_budget_exhausted;
          Alcotest.test_case "deterministic at 1/2/4 domains" `Quick
            test_restart_deterministic_across_domains;
        ] );
      ( "kill-resume",
        [
          Alcotest.test_case "chaos kill/resume equivalence" `Quick
            test_chaos_kill_resume;
          Alcotest.test_case "pooled kill/resume" `Quick
            test_chaos_kill_resume_pooled;
        ] );
    ]
