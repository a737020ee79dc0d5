open Tpdf_core
module Csdf = Tpdf_csdf
module Sched = Tpdf_sched
module Intmath = Tpdf_util.Intmath

type verdict = { cost : int; period_ms : float }
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
  let* () =
    let r = Liveness.check graph valuation in
    if r.Liveness.live then Ok ()
    else
      fail "not bounded: deadlock under %s (stuck: %s)"
        (Format.asprintf "%a" Tpdf_param.Valuation.pp valuation)
        (String.concat ", " r.Liveness.stuck)
  in
  let period_ms =
    match
      Sched.Mcr.iteration_period_ms (Sched.Mcr.build conc)
    with
    | p -> p
    | exception Failure _ -> Float.nan
  in
  match deadline_ms with
  | Some d when (not (Float.is_nan period_ms)) && period_ms > d ->
      Rejected
        (Printf.sprintf "MCR iteration period %.3f ms exceeds the %.3f ms deadline"
           period_ms d)
  | _ -> Admitted { cost; period_ms }
