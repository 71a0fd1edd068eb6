(** The solving front-end: propagation + branch-and-prune search with
    concrete verification of every reported solution.

    The solver is budgeted: it reports [Unknown] when the node budget
    runs out, mirroring SLDV-style solver timeouts in the paper.  A
    [Sat] answer always carries an assignment that has been checked by
    concrete evaluation of the constraint, so false positives are
    impossible; [Unsat] is sound because propagation and splitting only
    discard values that cannot satisfy the constraint (real-valued
    leaves that cannot be decided degrade the answer to [Unknown]). *)

module Smap : Map.S with type key = string

type problem = {
  p_vars : (string * Slim.Value.ty) list;  (** decision variables *)
  p_constraint : Term.t;  (** must evaluate to true *)
}

type result =
  | Sat of Slim.Value.t Smap.t
  | Unsat
  | Unknown  (** budget exhausted or real-valued indecision *)

type stats = {
  mutable nodes : int;  (** search nodes visited *)
  mutable propagation_rounds : int;
  mutable samples_tried : int;
  mutable term_size : int;
}

type memo
(** Answers of earlier calls, by constraint: what {!solve} would return
    again, with what it charged.  A memo is bound to one [p_vars] list,
    physically, and one [hc4_memo] setting; a call with another list or
    setting empties it first.  It records a call only if the call
    returned, finished within its node budget and drew nothing from the
    RNG (only the random sampling attempts draw): such a call is a
    function of the problem and the flag alone, up to the budget cut.
    A later call on the same constraint replays the record when its
    [node_budget] covers the recorded [nodes], and solves afresh
    otherwise.  A replay returns equal [stats], draws nothing and bumps
    every [solver.*] counter and histogram the recorded call bumped,
    except [solver.hc4_rounds] and [solver.hc4_memo_hits]; it counts
    [solver.memo_hits].  The memo keeps its constraints alive, so its
    hits do not depend on GC timing.  It holds at most 4,096 answers and
    empties itself when full, counting [solver.memo_clears]. *)

val create_memo : unit -> memo

val solve :
  ?node_budget:int ->
  ?hc4_memo:bool ->
  ?rng:Random.State.t ->
  ?memo:memo ->
  problem ->
  result * stats
(** Default budget: 20_000 nodes.  The RNG only drives sampling
    heuristics; pass a seeded state for reproducible runs.
    [hc4_memo] (default [true]) enables the HC4 projection memo; results
    are bit-identical either way (the memo only skips provable no-ops),
    so the flag exists purely as a test escape hatch.  With [memo], the
    call is replayed from it when it can be ({!memo}), and recorded in
    it when it may be. *)

val recall :
  memo -> ?node_budget:int -> ?hc4_memo:bool -> problem -> (result * stats) option
(** The replay [solve ~memo] would return, with its telemetry, or
    [None] where [solve] would solve afresh.  It first rebinds the memo
    as [solve] does.  A caller that makes its RNG only for a fresh solve
    asks this first, then calls [solve ~memo]. *)

val choose_split : Hc4.layout -> Hc4.store -> int
(** The entry of [p_vars] (by its position in the layout) whose domain
    the search splits when sampling fails: the widest splittable one,
    the first of equals, booleans counting as width 1; -1 when none is
    splittable.  It allocates nothing. *)

val pp_result : result Fmt.t
