open Tpdf_core
module Csdf = Tpdf_csdf
module Sched = Tpdf_sched
module Intmath = Tpdf_util.Intmath

type verdict = { cost : int; period_ms : float; latency_ms : float }
type outcome = Admitted of verdict | Rejected of string

let check ~graph ~valuation ?deadline_ms ?max_cost () =
  let ( let* ) r f = match r with Ok x -> f x | Error m -> Rejected m in
  let fail fmt = Printf.ksprintf (fun m -> Error m) fmt in
  let* () =
    match Graph.validate graph with
    | Error msgs -> fail "invalid graph: %s" (String.concat "; " msgs)
    | Ok () -> Ok ()
  in
  let* () =
    match
      List.filter
        (fun p -> not (Tpdf_param.Valuation.mem valuation p))
        (Graph.parameters graph)
    with
    | [] -> Ok ()
    | missing -> fail "unbound parameter(s): %s" (String.concat ", " missing)
  in
  let* rep =
    match Analysis.repetition graph with
    | rep -> Ok rep
    | exception Csdf.Repetition.Inconsistent m -> fail "rate inconsistent: %s" m
    | exception Csdf.Repetition.Disconnected -> fail "graph is disconnected"
  in
  let* () =
    match Analysis.rate_safety graph with
    | Ok () -> Ok ()
    | Error (v :: _) ->
        fail "rate unsafe: control %s on channel e%d: %s" v.Analysis.control
          v.Analysis.channel v.Analysis.reason
    | Error [] -> fail "rate unsafe"
  in
  (* Price the valuation before walking it: liveness and the MCR visit
     every firing of one iteration, so a budget bounds admission time. *)
  let* cost =
    match
      List.fold_left
        (fun acc (_, q) -> Intmath.add_exn acc q)
        0
        (Csdf.Repetition.q_int rep valuation)
    with
    | cost -> Ok cost
    | exception Intmath.Overflow ->
        fail "per-iteration cost overflows the native integer range"
  in
  let* () =
    match max_cost with
    | Some budget when cost > budget ->
        fail "per-iteration cost %d firings exceeds the budget of %d" cost
          budget
    | _ -> Ok ()
  in
  (* The cost sums the repetition vector only: a rate can still overflow
     where every firing count fits, so evaluate the rates before walking
     the valuation. *)
  let* conc =
    match Csdf.Concrete.make (Graph.skeleton graph) valuation with
    | conc -> Ok conc
    | exception Intmath.Overflow ->
        fail "channel rates overflow the native integer range under %s"
          (Format.asprintf "%a" Tpdf_param.Valuation.pp valuation)
  in
  (* One walk decides liveness (the last conjunct of Thm 2) and feeds
     its firing order to the max-plus pass. *)
  let* firings =
    match Csdf.Schedule.run ~policy:Csdf.Schedule.Late_first conc with
    | Csdf.Schedule.Complete trace -> Ok trace.Csdf.Schedule.firings
    | Csdf.Schedule.Deadlock { stuck; _ } ->
        fail "not bounded: deadlock under %s (stuck: %s)"
          (Format.asprintf "%a" Tpdf_param.Valuation.pp valuation)
          (String.concat ", " stuck)
  in
  let { Sched.Mcr.period_ms; latency_ms } =
    Sched.Mcr.solve (Sched.Mcr.of_firings conc firings)
  in
  match deadline_ms with
  | Some d when latency_ms > d ->
      Rejected
        (Printf.sprintf
           "one-iteration latency %.3f ms exceeds the %.3f ms deadline \
            (period %.3f ms)"
           latency_ms d period_ms)
  | _ -> Admitted { cost; period_ms; latency_ms }
