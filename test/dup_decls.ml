(* A hand-built program that declares two locals named [t] (defaults 0
   and 5) and two states named [s] (initial values 1 and 2).
   [Ir.type_check] rejects it; every interpreter must still resolve a
   repeated name to its last declaration. *)

module V = Slim.Value

let prog =
  let open Slim.Ir in
  renumber_decisions
    {
      name = "dups";
      inputs = [ input "x" (V.tint_range 0 10) ];
      outputs = [];
      states =
        [ state "s" (V.tint_range 0 9) (V.Int 1);
          state "s" (V.tint_range 0 9) (V.Int 2) ];
      locals = [ local "t" (V.tint_range 0 10); local "t" (V.tint_range 5 10) ];
      body =
        [
          if_ (lv "t" =: ci 5) [] [];
          if_ (sv "s" =: ci 4) [] [];
        ];
    }

(* A snapshot that tells the two states apart: the body reads 4. *)
let state = [| V.Int 3; V.Int 4 |]
