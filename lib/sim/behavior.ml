type 'a ctx = {
  actor : string;
  mode : string;
  phase : int;
  index : int;
  now_ms : float;
  inputs : (int * 'a Token.t list) list;
  out_rates : (int * int) list;
}

type 'a t = {
  work : 'a ctx -> (int * 'a Token.t list) list;
  duration_ms : 'a ctx -> float;
}

let const_duration d _ = d

let make ?(duration_ms = const_duration 1.0) work = { work; duration_ms }

let produce_at_rates ctx mk =
  List.filter_map
    (fun (ch, rate) ->
      if rate = 0 then None
      else if rate = 1 then Some (ch, [ mk ch 0 ])
      else Some (ch, List.init rate (fun i -> mk ch i)))
    ctx.out_rates

let fill ?duration_ms v =
  (* one shared token and one shared [mk], not a fresh box and closure
     per firing — [fill] is the default kernel behaviour, so this is on
     every benchmark's hot path *)
  let tok = Token.Data v in
  let mk _ _ = tok in
  make ?duration_ms (fun ctx -> produce_at_rates ctx mk)

let forward ?duration_ms () =
  make ?duration_ms (fun ctx ->
      let pool =
        List.concat_map
          (fun (_, toks) -> List.filter (fun t -> not (Token.is_ctrl t)) toks)
          ctx.inputs
      in
      let pool = ref pool in
      let take ch =
        match !pool with
        | [] ->
            failwith
              (Printf.sprintf
                 "Behavior.forward (%s): not enough input tokens for channel \
                  e%d"
                 ctx.actor ch)
        | t :: rest ->
            pool := rest;
            t
      in
      produce_at_rates ctx (fun ch _ -> take ch))

let sink ?duration_ms f =
  make ?duration_ms (fun ctx ->
      f ctx;
      [])

let emit_mode ?duration_ms f =
  make ?duration_ms (fun ctx ->
      let m = f ctx in
      produce_at_rates ctx (fun _ _ -> Token.Ctrl m))

let first_mode graph kernel =
  match Tpdf_core.Graph.modes graph kernel with
  | m :: _ -> m.Tpdf_core.Mode.name
  | [] -> "default"

let scenario_control graph scenario =
  let skel = Tpdf_core.Graph.skeleton graph in
  let mode_for ch =
    let kernel = (Tpdf_csdf.Graph.channel skel ch).Tpdf_graph.Digraph.dst in
    match List.assoc_opt kernel scenario with
    | Some name -> name
    | None -> first_mode graph kernel
  in
  make (fun ctx -> produce_at_rates ctx (fun ch _ -> Token.Ctrl (mode_for ch)))
