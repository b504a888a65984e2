(* Prints [let digest = "<md5>"], the MD5 of the files named on the
   command line: each file's path and content digest, in path order. *)

let () =
  let files = List.sort String.compare (List.tl (Array.to_list Sys.argv)) in
  let entry f = f ^ " " ^ Digest.to_hex (Digest.file f) ^ "\n" in
  Printf.printf "let digest = %S\n"
    (Digest.to_hex (Digest.string (String.concat "" (List.map entry files))))
