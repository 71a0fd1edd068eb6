(** Falsification campaigns: a requirement table run over the registry
    models, one {!Search.run} per requirement, scheduled on
    {!Harness.Pool}.

    Determinism contract: each requirement's search seed is mixed from
    the campaign seed and the requirement's position in the table
    ({!Util.Splitmix.mix_seed}), every search is a pure function of its seed and
    budgets, and results merge in table order — so {!render} output is
    byte-identical for any [jobs] value. *)

type config = {
  steps : int;  (** trace length fed to every search *)
  segments : int;  (** signal-generator segments *)
  shape : Signal.shape;
  samples : int;  (** random samples per requirement *)
  descent : int;  (** local-descent proposals per requirement *)
  seed : int;  (** campaign seed *)
}

val default_config : seed:int -> config
(** 48 steps (the table's horizons are 40), 6 segments,
    piecewise-constant, 32 samples + 64 descent proposals. *)

type row = {
  f_model : string;
  f_req : string;
  f_fault : bool;
  f_rob : float;  (** minimum robustness over the search *)
  f_falsified : bool;
  f_at_trace : int option;
  f_traces : int;
}

val run_req : config -> Requirements.req -> row
(** Raises [Failure] if the requirement names a model absent from the
    registry. *)

val campaign :
  ?jobs:int -> ?oversubscribe:bool -> config -> Requirements.req list -> row list
(** Rows in input order for any worker count. *)

val render : config -> row list -> string
(** The campaign summary table (trailing newline included) — the byte
    output the determinism gate compares across [--jobs] values. *)
