(* Clock and host-speed calibration.

   On a shared virtual machine the CPU a run gets is not steady.  On the
   2-vCPU VM this benchmark was built on, [kernel_us] below took about
   16 us in the host's fast state and 25-31 us in slow phases lasting
   1-10 s, and the daemon slowed by the same factor.  A 20 s window
   caught a different share of slow phases on every run, moving request
   rates by 10-30% between identical runs.  The harness therefore times
   the kernel every few milliseconds alongside the load and reports each
   time-based metric at one reference host speed: the CPU part of a time
   is scaled by [reference_us / kernel time], with the kernel timed near
   the measurement, and a rate by the inverse.  The raw end-to-end
   values go to the run's detail line. *)

let now_ms () = Int64.to_float (Monotonic_clock.now ()) /. 1e6

(* Kernel time in the host's fast state on the 2-vCPU VM the benchmark
   was calibrated on; reported numbers are at this speed. *)
let reference_us = 16.0

(* Independent multiply-adds: the loop keeps the core's execution units
   busy, so its time follows both the clock and contention from a busy
   sibling hyperthread, as the daemon's own work does.  (A serial
   dependency chain follows the clock only and missed slow phases that
   cost the daemon 40%.)  bench/e2e/dune fixes the compiler flags this
   is built with. *)
let kernel_us () =
  let t0 = now_ms () in
  let r = ref 0 in
  for i = 1 to 20_000 do
    r := !r + (i * i land 7)
  done;
  ignore (Sys.opaque_identity !r);
  1000.0 *. (now_ms () -. t0)

(* Median kernel time over [n] calls. *)
let sample n =
  let a = Array.init n (fun _ -> kernel_us ()) in
  Array.sort compare a;
  a.(n / 2)

(* Multiply CPU time measured at kernel time [us] by this to get the
   time at the reference speed. *)
let factor us = reference_us /. us

(* The factor for an interval of [wall_ms] of which [cpu_ms] ran on the
   CPU: only the CPU time speeds up, waiting (for the disk, say) does
   not.  Multiply a time by it; divide a rate by it. *)
let effective f ~wall_ms ~cpu_ms =
  if wall_ms <= 0.0 then f
  else
    let cpu = Float.min wall_ms (Float.max 0.0 cpu_ms) in
    ((cpu *. f) +. (wall_ms -. cpu)) /. wall_ms

(* This process's CPU time in ms. *)
let self_cpu_ms () =
  let t = Unix.times () in
  1000.0 *. (t.Unix.tms_utime +. t.Unix.tms_stime)

(* The kernel runs between requests at most this often. *)
let every_ms = 5.0

let last_sample = ref neg_infinity
let last_factor = ref 1.0

(* The factor for a time measured just now, from a kernel sample at most
   [every_ms] old. *)
let current_factor () =
  if now_ms () -. !last_sample > every_ms then begin
    last_factor := factor (sample 3);
    last_sample := now_ms ()
  end;
  !last_factor
