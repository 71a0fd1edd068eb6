(** The name-keyed reference interpreter of SLIM programs.

    It runs one iteration of a model over name-keyed maps and reports
    the same events as {!Exec.run_step}.  It takes only its event
    type, exception and map module from {!Exec}, none of its
    evaluation, and serves as the independent oracle that the
    differential tests and the fuzz [exec] oracle run {!Exec} against.
    Production paths use {!Exec}. *)

module Smap = Exec.Smap

type snapshot = Value.t Smap.t
(** Immutable map from state-variable name to (deep-copied) value: the
    model state of Definition 2 — data stores, chart locations, delay
    contents all live here. *)

type inputs = Value.t Smap.t
type outputs = Value.t Smap.t

type event = Exec.event =
  | Branch_hit of Branch.key
      (** a decision outcome was executed *)
  | Cond_vector of { id : int; vector : bool array; outcome : bool }
      (** an [If] guard was evaluated: per-atom truth values (in
          {!Ir.atoms_of_condition} order) and the guard's value *)

exception Eval_error of string
(** Alias of {!Exec.Eval_error}: both execution paths raise the same
    exception. *)

val initial_state : Ir.program -> snapshot
(** The default state (root node of the state tree). *)

val run_step_reference :
  ?on_event:(event -> unit) ->
  Ir.program ->
  snapshot ->
  inputs ->
  outputs * snapshot
(** The original map/Hashtbl interpreter, kept as an independent oracle for
    differential testing of {!Exec}.  Not used on any production path. *)

val inputs_of_list : (string * Value.t) list -> inputs

val snapshot_equal : snapshot -> snapshot -> bool
val pp_snapshot : snapshot Fmt.t
