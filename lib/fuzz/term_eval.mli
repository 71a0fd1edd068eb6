(** The reference evaluator of solver terms: a tree walk over
    {!Solver.Term}, independent of the CSP's compiled sampler. *)

val eval : (string -> Slim.Value.t) -> Solver.Term.t -> Slim.Value.t
(** Concrete evaluation under a full assignment.  Raises
    {!Slim.Value.Type_error} on ill-typed terms, and whatever the
    environment raises for a name it does not bind.  Large shared terms
    evaluate once per unique node; the environment must be a pure
    function of the variable name. *)
