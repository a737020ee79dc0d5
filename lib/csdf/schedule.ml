type policy = Walk.policy = Eager | Late_first | Min_buffer
type firing = Walk.firing = { actor : string; phase : int; index : int }

type trace = {
  firings : firing list;
  max_occupancy : (int * int) list;
  returned_to_initial : bool;
}

type outcome =
  | Complete of trace
  | Deadlock of { fired : firing list; stuck : string list }

let run ?policy ?(iterations = 1) ?targets ?active_channel c =
  if iterations < 1 then invalid_arg "Schedule.run: iterations must be >= 1";
  let w = Walk.create ?active_channel c in
  match Walk.run ?policy ~iterations ?targets w with
  | firings, [] ->
      Complete
        {
          firings;
          max_occupancy = Walk.max_occupancy w;
          returned_to_initial = Walk.returned_to_initial w;
        }
  | fired, stuck -> Deadlock { fired; stuck }

let is_live c = match run c with Complete _ -> true | Deadlock _ -> false

let compress firings =
  let rec go acc = function
    | [] -> List.rev acc
    | { actor; _ } :: rest -> (
        match acc with
        | (a, n) :: acc' when a = actor -> go ((a, n + 1) :: acc') rest
        | _ -> go ((actor, 1) :: acc) rest)
  in
  go [] firings

let pp_compressed ppf l =
  Format.pp_print_list
    ~pp_sep:(fun ppf () -> Format.pp_print_string ppf " ")
    (fun ppf (a, n) ->
      if n = 1 then Format.pp_print_string ppf a
      else Format.fprintf ppf "(%s)^%d" a n)
    ppf l
