(* The daemon under test as a child process ([tpdf_tool serve]), the one
   closed-loop connection that drives it, and the /proc readings taken
   around a measured window.

   Every daemon gets its own directory (socket, state, log) under the
   run's work root.  [cleanup] — registered with [at_exit] and reached
   from SIGINT/SIGTERM too — kills every daemon still running, reaps it
   and removes the work root, so no process or file outlives the run. *)

type t = {
  pid : int;
  dir : string;
  sock : string;
  mutable conn : (in_channel * out_channel) option;
  mutable exited : bool;
}

let children : t list ref = ref []
let work_root : string option ref = ref None

let rec rm_rf p =
  match Unix.lstat p with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat p f)) (Sys.readdir p);
      Unix.rmdir p
  | _ -> Unix.unlink p
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let reap d =
  if not d.exited then begin
    (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
    (try ignore (Unix.waitpid [] d.pid) with Unix.Unix_error _ -> ());
    d.exited <- true
  end

let cleanup () =
  List.iter reap !children;
  children := [];
  Option.iter (fun root -> try rm_rf root with _ -> ()) !work_root;
  work_root := None

(* The work root lives under the current directory: the benchmark reads
   and writes nothing outside the tree it runs in.  Socket paths stay
   relative, so they fit the 108-byte [sun_path] limit wherever that
   tree is. *)
let init () =
  let root = Printf.sprintf ".e2e-%d" (Unix.getpid ()) in
  rm_rf root;
  Unix.mkdir root 0o700;
  work_root := Some root;
  at_exit cleanup;
  let die _ = exit 130 in
  Sys.set_signal Sys.sigint (Sys.Signal_handle die);
  Sys.set_signal Sys.sigterm (Sys.Signal_handle die);
  (* A dead daemon must surface as a failed write, not kill the harness. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore

let fresh_dir =
  let n = ref 0 in
  fun tag ->
    incr n;
    let dir =
      Filename.concat (Option.get !work_root) (Printf.sprintf "%s%d" tag !n)
    in
    Unix.mkdir dir 0o700;
    dir

(* [args dir] are the [serve] options for a daemon living in [dir]. *)
let spawn ~tool args =
  let dir = fresh_dir "d" in
  let sock = Filename.concat dir "sock" in
  let log =
    Unix.openfile (Filename.concat dir "log")
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ]
      0o600
  in
  let argv = Array.of_list (tool :: "serve" :: sock :: args dir) in
  let pid = Unix.create_process tool argv Unix.stdin log log in
  Unix.close log;
  let d = { pid; dir; sock; conn = None; exited = false } in
  children := d :: !children;
  d

let daemon_log d =
  let path = Filename.concat d.dir "log" in
  match In_channel.with_open_text path In_channel.input_all with
  | s -> String.trim s
  | exception Sys_error _ -> ""

(* A stuck daemon fails the read after this long instead of hanging the
   run. *)
let read_timeout_s = 60.0

let connect d =
  let ep = Tpdf_serve.Server.Unix_path d.sock in
  match Tpdf_serve.Server.connect ~timeout_ms:10_000.0 ep with
  | Error e -> Error (Printf.sprintf "%s (daemon log: %s)" e (daemon_log d))
  | Ok fd ->
      Unix.setsockopt_float fd Unix.SO_RCVTIMEO read_timeout_s;
      d.conn <-
        Some (Unix.in_channel_of_descr fd, Unix.out_channel_of_descr fd);
      Ok ()

let disconnect d =
  match d.conn with
  | Some (ic, _) ->
      d.conn <- None;
      close_in_noerr ic
  | None -> ()

(* One request line out, one response line back. *)
let call d line =
  match d.conn with
  | None -> Error "no connection to the daemon"
  | Some (ic, oc) -> (
      match
        output_string oc line;
        output_char oc '\n';
        flush oc;
        input_line ic
      with
      | resp -> Ok resp
      | exception End_of_file ->
          disconnect d;
          Error "connection closed by the daemon"
      | exception Sys_error e ->
          disconnect d;
          Error e)

(* Orderly stop: [shutdown] persists and exits; a daemon that does not
   exit within 5 s is killed. *)
let stop d =
  if not d.exited then begin
    ignore (call d {|{"op":"shutdown"}|});
    disconnect d;
    let deadline = Unix.gettimeofday () +. 5.0 in
    let rec wait () =
      match Unix.waitpid [ Unix.WNOHANG ] d.pid with
      | 0, _ when Unix.gettimeofday () < deadline ->
          Unix.sleepf 0.005;
          wait ()
      | 0, _ -> reap d
      | _ -> d.exited <- true
      | exception Unix.Unix_error _ -> d.exited <- true
    in
    wait ()
  end;
  children := List.filter (fun c -> c != d) !children;
  rm_rf d.dir

(* ---------- /proc ---------- *)

let read_file p = In_channel.with_open_text p In_channel.input_all
let lines p = String.split_on_char '\n' (read_file p)

let words s =
  List.filter (( <> ) "") (String.split_on_char ' ' (String.trim s))

(* CPU time of a process in ms: the first field of /proc/PID/schedstat,
   in ns.  (utime + stime from /proc/PID/stat count the same time in
   10 ms ticks, too coarse for 1 s sub-windows.) *)
let cpu_ms pid =
  match words (read_file (Printf.sprintf "/proc/%d/schedstat" pid)) with
  | ns :: _ -> Int64.to_float (Int64.of_string ns) /. 1e6
  | [] -> failwith "unreadable /proc/PID/schedstat"

(* A "Key:   N kB" line of /proc/PID/status, in kB. *)
let status_kb pid key =
  lines (Printf.sprintf "/proc/%d/status" pid)
  |> List.find_map (fun line ->
         match Scanf.sscanf line "%s@: %d" (fun k v -> (k, v)) with
         | k, v when k = key -> Some v
         | _ | (exception _) -> None)
  |> Option.value ~default:0

(* (steal, total) jiffies summed over all CPUs, from the first line of
   /proc/stat: user nice system idle iowait irq softirq steal; the guest
   columns that follow are already counted in user and nice. *)
let cpu_steal () =
  match lines "/proc/stat" with
  | line :: _ when String.starts_with ~prefix:"cpu " line ->
      let vals =
        List.filter_map int_of_string_opt (words line)
        |> List.filteri (fun i _ -> i < 8)
      in
      let steal = Option.value (List.nth_opt vals 7) ~default:0 in
      (steal, List.fold_left ( + ) 0 vals)
  | _ -> (0, 0)

let nproc () =
  lines "/proc/cpuinfo"
  |> List.filter (String.starts_with ~prefix:"processor")
  |> List.length
