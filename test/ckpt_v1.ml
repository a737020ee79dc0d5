(* Checkpoint images in format version 1, as builds before format 2
   wrote them: a ["tpdf-ckpt 1"] header, and after an engine snapshot's
   event heap a ["trace N"] section of finished firings (empty here).
   The checksum is recomputed, so the image verifies: only its version
   is foreign.  A version-1 image is returned as it is. *)

module Ckpt = Tpdf_ckpt.Ckpt

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let downgrade image =
  let marker = "\nchecksum " in
  let rec find i =
    if String.sub image i (String.length marker) = marker then i
    else find (i - 1)
  in
  let body =
    String.sub image 0 (find (String.length image - String.length marker) + 1)
  in
  let first_nl = String.index body '\n' in
  let rest = String.sub body first_nl (String.length body - first_nl) in
  let rest =
    if contains rest "\nsnapshot 1\n" then
      String.sub rest 0 (String.length rest - String.length "end\n")
      ^ "trace 0\nend\n"
    else rest
  in
  let body = "tpdf-ckpt 1" ^ rest in
  body ^ Printf.sprintf "checksum %016Lx\n" (Ckpt.fnv1a64 body)

let of_image image =
  if String.starts_with ~prefix:"tpdf-ckpt 1\n" image then image
  else downgrade image

(* Rewrite every checkpoint file under [dir], recursively, as version 1. *)
let rec rewrite_dir dir =
  Array.iter
    (fun name ->
      let p = Filename.concat dir name in
      if Sys.is_directory p then rewrite_dir p
      else if Filename.check_suffix name ".tpdfckpt" then begin
        let s = In_channel.with_open_bin p In_channel.input_all in
        Out_channel.with_open_bin p (fun oc ->
            Out_channel.output_string oc (of_image s))
      end)
    (Sys.readdir dir)
