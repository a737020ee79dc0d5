(* The checked-in BENCH_*.json files pass [check] as they are, and every
   gate can fail: for each one, some copy of its file that differs in a
   single place fails that gate alone, with an error naming it. *)

module J = Tpdf_serve.Json
module G = Tpdf_bench.Gates

let file s = Filename.concat ".." s.G.file

let contains s sub =
  let n = String.length sub in
  let rec at i = i + n <= String.length s && (String.sub s i n = sub || at (i + 1)) in
  at 0

let load s =
  match J.of_string (In_channel.with_open_bin (file s) In_channel.input_all) with
  | Ok d -> d
  | Error m -> Alcotest.fail m

(* Copies of [v] that differ in one place: a number scaled or replaced,
   a bool negated, a string or its type changed, a key or list element
   dropped, a list emptied.  Renaming one string value wherever it
   occurs is also one change (a graph's name across its runs). *)
let rec mutants v =
  let each xs f =
    List.concat (List.mapi (fun i x -> List.map (fun x' -> f i x') (mutants x)) xs)
  in
  let drop i xs = List.filteri (fun j _ -> j <> i) xs in
  let set i x' xs = List.mapi (fun j x -> if j = i then x' else x) xs in
  match v with
  | J.Int _ | J.Float _ ->
      let x = G.to_num "" v in
      List.map (fun y -> J.Float y) [ 0.0; -1.0; x /. 2.0; x *. 1e-6; x *. 1e6 ]
  | J.Bool b -> [ J.Bool (not b) ]
  | J.String s -> [ J.String (s ^ "~"); J.Int 0 ]
  | J.Null -> [ J.Int 0 ]
  | J.List xs ->
      (J.List [] :: List.mapi (fun i _ -> J.List (drop i xs)) xs)
      @ each xs (fun i x' -> J.List (set i x' xs))
  | J.Obj fs ->
      List.mapi (fun i _ -> J.Obj (drop i fs)) fs
      @ each (List.map snd fs) (fun i x' -> J.Obj (set i (fst (List.nth fs i), x') fs))

let rec rename s = function
  | J.String s' when s' = s -> J.String (s ^ "~")
  | J.List xs -> J.List (List.map (rename s) xs)
  | J.Obj fs -> J.Obj (List.map (fun (k, x) -> (k, rename s x)) fs)
  | x -> x

let rec strings = function
  | J.String s -> [ s ]
  | J.List xs -> List.concat_map strings xs
  | J.Obj fs -> List.concat_map (fun (_, x) -> strings x) fs
  | _ -> []

(* The check line names the file's own commit, or [unrecorded] for files
   written before commits were recorded. *)
let test_passes s () =
  let commit = try G.str "metadata.commit" (load s) with G.Bad _ -> "unrecorded" in
  match G.check_file ~smoke:false (file s) with
  | Ok line ->
      Alcotest.(check bool) "commit reported" true
        (String.ends_with ~suffix:"gates ok" line
        && contains line (Printf.sprintf ", commit %s:" commit))
  | Error errors -> Alcotest.fail (String.concat "\n" errors)

(* The full-size gates need their rows, so a gate that empties a list
   can only fail alone where they are skipped: in a smoke-labelled copy. *)
let test_gates_can_fail s () =
  let d = load s in
  let smoke_d =
    match d with
    | J.Obj fs -> J.Obj (List.map (fun (k, x) -> (k, if k = "smoke" then J.Bool true else x)) fs)
    | _ -> d
  in
  let copies d =
    mutants d @ List.map (fun x -> rename x d) (List.sort_uniq compare (strings d))
  in
  let copies =
    List.map (fun c -> (false, c)) (copies d) @ List.map (fun c -> (true, c)) (copies smoke_d)
  in
  let fails_alone (g : G.gate) (smoke, copy) =
    match G.check_doc ~smoke ~file:s.G.file copy with
    | Error [ e ] -> contains e (Printf.sprintf "gate %s.%s " s.G.id g.G.name)
    | _ -> false
  in
  List.iter
    (fun (g, _) ->
      if not (List.exists (fails_alone g) copies) then
        Alcotest.failf "no single change to %s fails gate %s.%s alone" s.G.file s.G.id
          g.G.name)
    (G.evaluate ~smoke:false s d)

(* Each threshold sits exactly where the gate states it: a copy with the
   value at the limit passes, one just past it fails that gate alone. *)
let test_thresholds () =
  let map_field k f = function
    | J.Obj fs -> J.Obj (List.map (fun (k', x) -> (k', if k' = k then f x else x)) fs)
    | x -> x
  in
  let set k v = map_field k (fun _ -> J.Float v) in
  let where list ok f = map_field list (function
      | J.List rs -> J.List (List.map (fun r -> if ok r then f r else r) rs)
      | x -> x) in
  let run g n r = G.str "graph" r = g && G.num "actors" r = n in
  let big r = G.str "kind" r = "solve" && G.num "params" r = 100.0 in
  let rs_big r = G.str "kind" r = "rate_safety" && G.num "params" r = 100.0 in
  let sampled r = G.str "graph" r = "chain" && G.str "mode" r = "sampled" in
  let chain_1e4 =
    G.num "events_per_sec"
      (List.find (run "chain" 1e4) (G.rows "runs" (load G.e17)))
  in
  List.iter
    (fun (s, gate, edit, at, past) ->
      let d = load s in
      let check v = G.check_doc ~smoke:false ~file:s.G.file (edit v d) in
      (match check at with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "%s.%s at its limit: %s" s.G.id gate (String.concat "; " e));
      match check past with
      | Error [ e ] when contains e (Printf.sprintf "gate %s.%s " s.G.id gate) -> ()
      | _ -> Alcotest.failf "%s.%s past its limit did not fail alone" s.G.id gate)
    [
      (G.e17, "fan_cliff", (fun v -> where "runs" (run "fan" 1e4) (set "events_per_sec" v)),
       chain_1e4 /. 10.0, chain_1e4 /. 10.01);
      (G.e17, "compiled_2x", (fun v -> where "runs" (run "chain" 1e3) (set "compiled_vs_interpreted" v)),
       2.0, 1.99);
      (G.e20, "chain_size", (fun v -> where "runs" sampled (set "actors" v)), 1000.0, 999.0);
      (G.e20, "sampled_overhead", (fun v -> where "runs" sampled (set "overhead_vs_off" v)),
       1.05, 1.051);
      (G.e20, "bounded_1e6", (fun v -> map_field "bounded" (set "events_offered" v)),
       1e6, 999_999.0);
      (G.e21, "solve_ms", (fun v -> where "rows" big (set "new_ms" v)), 9.99, 10.0);
      (G.e21, "solve_speedup", (fun v -> where "rows" big (set "speedup" v)), 10.0, 9.99);
      (G.e21, "rate_safety_full", (fun v -> where "rows" rs_big (set "actors" v)), 996.0, 995.0);
      (G.e22, "isolation", (fun v -> set "healthy_p95_ratio" v), 2.0, 2.01);
      (G.e23, "p95_ratio", (fun v -> set "worst_p95_ratio" v), 2.0, 2.01);
    ]

let test_render s () =
  let d = load s in
  Alcotest.(check bool) "parses back" true (J.of_string (G.render d) = Ok d)

let test_unknown_experiment () =
  match
    G.check_doc ~smoke:false ~file:"x.json" (J.Obj [ ("experiment", J.String "E1") ])
  with
  | Error [ e ] ->
      Alcotest.(check bool) "names the field" true
        (contains e "experiment")
  | _ -> Alcotest.fail "an unknown experiment must fail"

let () =
  let per_file name f =
    List.map (fun s -> Alcotest.test_case (s.G.file ^ " " ^ name) `Quick (f s)) G.specs
  in
  Alcotest.run "bench-gates"
    [
      ( "gates",
        per_file "passes" test_passes
        @ per_file "each gate can fail alone" test_gates_can_fail
        @ per_file "renders and parses back" test_render
        @ [
            Alcotest.test_case "thresholds" `Quick test_thresholds;
            Alcotest.test_case "unknown experiment" `Quick test_unknown_experiment;
          ] );
    ]
