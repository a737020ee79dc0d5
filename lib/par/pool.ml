type t = {
  n_domains : int;
  mutable workers : unit Domain.t list;
  lock : Mutex.t;
  work_ready : Condition.t; (* tasks queued, or shutdown requested *)
  batch_done : Condition.t; (* a batch's remaining-counter hit zero *)
  queue : (unit -> unit) Queue.t;
  mutable live : bool;
  mutable in_batch : bool;
}

(* Workers block here between batches.  On shutdown they drain whatever
   is still queued (so a batch in flight always completes) and exit. *)
let rec worker_loop t =
  Mutex.lock t.lock;
  while Queue.is_empty t.queue && t.live do
    Condition.wait t.work_ready t.lock
  done;
  if Queue.is_empty t.queue then Mutex.unlock t.lock (* shut down *)
  else begin
    let task = Queue.pop t.queue in
    Mutex.unlock t.lock;
    task ();
    worker_loop t
  end

let create ~domains =
  if domains < 1 then invalid_arg "Pool.create: domains must be >= 1";
  let t =
    {
      n_domains = domains;
      workers = [];
      lock = Mutex.create ();
      work_ready = Condition.create ();
      batch_done = Condition.create ();
      queue = Queue.create ();
      live = true;
      in_batch = false;
    }
  in
  t.workers <-
    List.init (domains - 1) (fun _ -> Domain.spawn (fun () -> worker_loop t));
  t

let domains t = t.n_domains
let recommended () = Domain.recommended_domain_count ()

(* Run all of [thunks] on the calling domain, with the same contract as
   the parallel path: attempt everything, then re-raise the
   lowest-indexed failure. *)
let run_inline thunks =
  let n = Array.length thunks in
  let results = Array.make n None in
  let first_err = ref None in
  for i = 0 to n - 1 do
    match thunks.(i) () with
    | v -> results.(i) <- Some v
    | exception e -> if !first_err = None then first_err := Some e
  done;
  match !first_err with
  | Some e -> raise e
  | None ->
      Array.map (function Some v -> v | None -> assert false) results

let run t thunks =
  let n = Array.length thunks in
  if n = 0 then [||]
  else if n = 1 || t.n_domains = 1 || t.workers = [] then run_inline thunks
  else begin
    let results = Array.make n None in
    let errors = Array.make n None in
    let remaining = ref n in
    (* Each queued closure owns one task index: it records its result or
       exception, then decrements the batch counter under the lock. *)
    let task i () =
      (match thunks.(i) () with
      | v -> results.(i) <- Some v
      | exception e -> errors.(i) <- Some e);
      Mutex.lock t.lock;
      decr remaining;
      if !remaining = 0 then Condition.broadcast t.batch_done;
      Mutex.unlock t.lock
    in
    Mutex.lock t.lock;
    if t.in_batch then begin
      Mutex.unlock t.lock;
      invalid_arg "Pool.run: pool is not reentrant"
    end;
    t.in_batch <- true;
    for i = 0 to n - 1 do
      Queue.add (task i) t.queue
    done;
    Condition.broadcast t.work_ready;
    (* The caller participates: pull tasks until the queue is empty, then
       wait for the stragglers running on workers. *)
    let continue = ref true in
    while !continue do
      match Queue.take_opt t.queue with
      | Some task ->
          Mutex.unlock t.lock;
          task ();
          Mutex.lock t.lock
      | None -> continue := false
    done;
    while !remaining > 0 do
      Condition.wait t.batch_done t.lock
    done;
    t.in_batch <- false;
    Mutex.unlock t.lock;
    (* The lock hand-off above is the synchronization point: every
       [results]/[errors] write happened before its counter decrement. *)
    let first_err = ref None in
    for i = n - 1 downto 0 do
      match errors.(i) with Some e -> first_err := Some e | None -> ()
    done;
    match !first_err with
    | Some e -> raise e
    | None ->
        Array.map (function Some v -> v | None -> assert false) results
  end

let check_chunk = function
  | Some c when c < 1 -> invalid_arg "Pool: chunk must be >= 1"
  | Some c -> Some c
  | None -> None

(* About four chunks per domain: enough slack to absorb uneven task
   costs without drowning in per-chunk overhead. *)
let effective_chunk chunk t ~lo ~hi =
  match check_chunk chunk with
  | Some c -> c
  | None -> max 1 ((hi - lo + (4 * t.n_domains) - 1) / (4 * t.n_domains))

let chunks_of ~lo ~hi chunk = (hi - lo + chunk - 1) / chunk

let parallel_for ?chunk t ~lo ~hi body =
  if hi > lo then begin
    let chunk = effective_chunk chunk t ~lo ~hi in
    let nchunks = chunks_of ~lo ~hi chunk in
    if nchunks = 1 || t.n_domains = 1 || t.workers = [] then
      for i = lo to hi - 1 do
        body i
      done
    else
      ignore
        (run t
           (Array.init nchunks (fun c () ->
                let c_lo = lo + (c * chunk) in
                let c_hi = min hi (c_lo + chunk) in
                for i = c_lo to c_hi - 1 do
                  body i
                done)))
  end
  else ignore (check_chunk chunk)

let parallel_for_reduce ?chunk t ~lo ~hi ~init ~body ~merge =
  if hi <= lo then begin
    ignore (check_chunk chunk);
    init
  end
  else begin
    let chunk = effective_chunk chunk t ~lo ~hi in
    let nchunks = chunks_of ~lo ~hi chunk in
    let fold_range lo hi =
      let acc = ref init in
      for i = lo to hi - 1 do
        acc := body !acc i
      done;
      !acc
    in
    if nchunks = 1 || t.n_domains = 1 || t.workers = [] then fold_range lo hi
    else
      let partials =
        run t
          (Array.init nchunks (fun c () ->
               let c_lo = lo + (c * chunk) in
               fold_range c_lo (min hi (c_lo + chunk))))
      in
      (* Ascending chunk order: index 0 first, exactly the sequential
         left-to-right sweep. *)
      Array.fold_left merge init partials
  end

let shutdown t =
  Mutex.lock t.lock;
  if t.live then begin
    t.live <- false;
    Condition.broadcast t.work_ready;
    let ws = t.workers in
    t.workers <- [];
    Mutex.unlock t.lock;
    List.iter Domain.join ws
  end
  else Mutex.unlock t.lock
