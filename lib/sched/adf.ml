module Csdf = Tpdf_csdf

let producer conc ~channel ~consumer_index =
  let ch = Csdf.Concrete.chan conc channel in
  let need k = Csdf.Concrete.firings_needed ch.Csdf.Concrete.prod k - 1 in
  let base =
    Csdf.Concrete.cumulative ch.Csdf.Concrete.cons (consumer_index + 1)
    - ch.Csdf.Concrete.init
  in
  if base > 0 then Some (need base, 0)
  else
    let src = (Csdf.Graph.channel (Csdf.Concrete.graph conc) channel).src in
    let per_iter =
      Csdf.Concrete.cumulative ch.Csdf.Concrete.prod (Csdf.Concrete.q conc src)
    in
    if per_iter = 0 then None
    else
      (* The first iteration whose need outruns the initial tokens. *)
      let d = 1 + (-base / per_iter) in
      Some (need (base + (d * per_iter)), d)

let producer_firing conc ~channel ~consumer_index =
  match producer conc ~channel ~consumer_index with
  | Some (m, 0) -> Some m
  | _ -> None

let consumer_deps conc ~channel ~consumer_count =
  let rec go n acc =
    if n >= consumer_count then List.rev acc
    else
      match producer_firing conc ~channel ~consumer_index:n with
      | None -> go (n + 1) acc
      | Some m -> go (n + 1) ((n, m) :: acc)
  in
  go 0 []
