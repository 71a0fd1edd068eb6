(** The state tree (paper Definitions 3 and 4).

    Each node is one explored model state: the snapshot itself (a
    slot-addressed {!Slim.Exec.state}), the one-step input that produced
    it from its parent, the set of branches already attempted by the
    solver on this state ([solved]), and the branches confirmed covered
    when executing into this state.  The root holds the model's default
    state.

    Snapshots are interned: every distinct state (under
    {!Slim.Exec.state_equal}) gets a small integer uid, so dedup here and
    solver-result caching in the engine are integer comparisons instead
    of structural equality walks or serialized-string keys.

    Nodes are deduplicated against their parent: executing an input
    that leaves the state unchanged does not grow the tree.

    Layout: nodes sit in a growable array indexed by id.  Children are
    int links per id, first child (the newest) and next sibling, so a
    dedup check walks the parent's children without allocating.  The
    intern table is open-addressed with linear probing over two
    parallel int arrays, structural hash and uid, kept at most half
    full; the snapshots themselves are stored by uid.  An insert
    allocates the node it creates (and, amortised, the growth of those
    arrays); a dedup hit allocates only its result pair. *)

type node = {
  id : int;
  parent : int option;
  state : Slim.Exec.state;
  state_uid : int;
      (** intern uid: [state_uid a = state_uid b] iff the snapshots are
          structurally equal (within one tree) *)
  input : Slim.Exec.inputs option;  (** [None] only for the root *)
  depth : int;
  mutable solved : Set.Make(Int).t;
      (** interned objective ids already attempted on this state
          (Algorithm 1 line 11); the engine assigns each distinct
          coverage target a dense integer id *)
}

type t

val create : Slim.Ir.program -> t
(** Compiles (or reuses) the program's {!Slim.Exec.handle}. *)

val exec : t -> Slim.Exec.t
(** The compiled handle the tree's snapshots are addressed against. *)

val root : t -> node
val node : t -> int -> node
val size : t -> int
val nodes : t -> node list
(** In insertion (BFS-ish) order — the traversal order of Algorithm 1. *)

val add_child :
  t -> parent:node -> input:Slim.Exec.inputs -> Slim.Exec.state -> node * bool
(** [add_child t ~parent ~input state] returns the node for [state]
    reached from [parent] and whether it is new.  If [state] equals
    [parent.state] or an existing child of [parent] reached the same
    state, that node is reused. *)

val path_inputs : t -> node -> Slim.Exec.inputs list
(** Inputs along root -> node, in execution order (Algorithm 2,
    lines 21-25). *)

val random_node : t -> Random.State.t -> node

val mark_solved : node -> int -> unit
val is_solved : node -> int -> bool

val distinct_states : t -> int
(** Number of distinct snapshots in the tree (O(1): maintained by the
    intern table). *)

val pp : t Fmt.t
(** Compact tree rendering (used for the paper's Figure 3(b)). *)
