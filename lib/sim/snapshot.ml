(* Plain-data image of a running engine.  Lives below [Engine] so that
   [Tpdf_ckpt] can serialize run state without a dependency cycle: the
   engine produces/consumes this type, the checkpoint library turns it
   into bytes.  Token payloads are already encoded to strings here — the
   snapshot is monomorphic even though the engine is ['a t]. *)

type token = Data of string | Ctrl of string

type firing = {
  f_actor : string;
  f_index : int;
  f_phase : int;
  f_mode : string;
  f_start_ms : float;
  f_finish_ms : float;
}

type heap_event =
  | Complete of {
      c_actor : string;
      c_outputs : (int * token list) list;
      c_record : firing;
    }
  | Tick of string

type heap_entry = { h_time : float; h_seq : int; h_event : heap_event }

type actor_state = {
  a_name : string;
  a_count : int;  (* firings started *)
  a_completed : int;
  a_busy : bool;
  a_last_mode : string;
}

type channel_state = {
  c_id : int;
  c_tokens : token list;  (* front of the queue first *)
  c_debt : int;
  c_dropped : int;
  c_max_occ : int;
}

type t = {
  now : float;
  armed : bool;  (* clock Ticks already scheduled by a previous run *)
  heap_seq : int;  (* the heap's insertion counter *)
  actors : actor_state list;  (* in dense-actor-id order *)
  channels : channel_state list;  (* in skeleton channel order *)
  heap : heap_entry list;  (* in (time, seq) order *)
}
