open Tpdf_core
module Csdf = Tpdf_csdf
module Sched = Tpdf_sched
module Platform = Tpdf_platform.Platform
module Obs = Tpdf_obs.Obs
module Reconfigure = Tpdf_sim.Reconfigure

let run ~graph:g ~valuation:v ~pes ~iterations ?backend () =
  let obs = Obs.create () in
  (* Static analyses. *)
  (try
     ignore (Analysis.repetition ~obs g);
     ignore (Analysis.rate_safety ~obs g);
     ignore
       (Analysis.check_boundedness ~obs g
          ~samples:(Liveness.default_samples g))
   with Csdf.Repetition.Inconsistent _ | Csdf.Repetition.Disconnected -> ());
  (* Scheduling analyses. *)
  let conc = Csdf.Concrete.make (Graph.skeleton g) v in
  (try
     ignore
       (Sched.Mcr.iteration_period_ms ~obs (Sched.Mcr.build ~obs conc))
   with Failure _ -> ());
  let platform = Platform.uniform pes in
  (try
     let period = Sched.Canonical_period.build conc in
     ignore (Sched.List_scheduler.run ~obs ~graph:g period platform);
     ignore (Sched.Throughput.iteration_period_ms ~obs ~graph:g conc platform)
   with Failure _ -> ());
  (* Simulation: sweep every mode scenario so each kernel exercises each of
     its modes (and `reconfig` instants mark the boundaries). *)
  ignore
    (Reconfigure.run_scenarios ~graph:g ?backend ~obs ~iterations ~valuation:v
       ~default:0
       (Reconfigure.mode_scenarios g));
  obs
