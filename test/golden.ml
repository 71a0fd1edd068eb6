(* Fingerprint goldens shared by the test executables: [check name
   observed] compares [observed] with the committed
   [goldens/NAME.txt].  On a mismatch it writes the observed text next
   to the golden as [NAME.observed.txt] and fails naming the first
   differing line.  The goldens are found from the test binary's own
   directory, where the build copies them, so a suite binary runs from
   any working directory.  [path] resolves the suites' other data files
   the same way. *)

let path rel = Filename.concat (Filename.dirname Sys.executable_name) rel
let dir = path "goldens"

let check name observed =
  let expected =
    In_channel.with_open_bin (Filename.concat dir (name ^ ".txt")) In_channel.input_all
  in
  if observed <> expected then begin
    Out_channel.with_open_bin (Filename.concat dir (name ^ ".observed.txt")) (fun oc ->
        Out_channel.output_string oc observed);
    let lines s = String.split_on_char '\n' s in
    let rec first_diff k = function
      | a :: ra, b :: rb -> if a = b then first_diff (k + 1) (ra, rb) else (k, a, b)
      | a :: _, [] -> (k, a, "<end>")
      | [], b :: _ -> (k, "<end>", b)
      | [], [] -> (k, "", "")
    in
    let k, e, o = first_diff 1 (lines expected, lines observed) in
    Alcotest.failf "%s differs at line %d:\n  expected: %s\n  observed: %s" name k e
      o
  end
