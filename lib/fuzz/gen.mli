(** Typed random model generation.

    The generator does not build {!Slim.Model.t} values directly: it
    first draws a small, fully-concrete {b spec} AST (below), and the
    spec compiles deterministically to a model ({!to_model} /
    {!program_of}).  Everything downstream leans on that split:

    - the shrinker edits the spec (drop blocks, shrink constants) and
      recompiles, never having to surgery a wired diagram;
    - the reproducer printer renders the spec as a runnable OCaml
      snippet over [Slim.Builder] / [Stateflow.Chart];
    - determinism is trivial to test: same seed, same spec, same
      printed program.

    Two top-level shapes are generated: block diagrams (delays, data
    stores, switch / multiport-switch, conditional subsystems, charts
    as blocks, int/real/bool arithmetic with structurally-guarded
    division) and standalone Stateflow-like charts compiled through
    {!Stateflow.Sf_compile}.  Generated models never raise
    {!Slim.Exec.Eval_error}: division denominators are wrapped in
    [max(abs d, 1)] and chart [Mod] divisors are non-zero constants,
    so every case is a total one-step function — any runtime error is
    itself an oracle violation. *)

(** {1 Spec AST} *)

type sty = S_bool | S_int | S_real  (** scalar type classes *)

type arith = A_add | A_sub | A_mul | A_min | A_max

type node = { n_sty : sty; n_kind : kind }

and kind =
  | In of string  (** inport; the name survives shrinking, so recorded
                      input sequences keep matching *)
  | Const of Slim.Value.t
  | Copy of int  (** identity (gain 1 / 1-input or); shrinker material *)
  | Gain of float * int
  | Abs of int
  | Saturate of float * float * int
  | Arith of arith * int * int
  | Guard_div of int * int  (** num / max(abs den, 1) — never divides by 0 *)
  | Cmp of Slim.Ir.cmpop * int * int
  | Cmp_const of Slim.Ir.cmpop * float * int
  | Not of int
  | Logic of [ `And | `Or | `Xor ] * int list
  | Switch of {
      cmp : Slim.Ir.cmpop;
      threshold : float;
      data1 : int;
      control : int;
      data2 : int;
    }
  | Multiport of { selector : int; cases : (int * int) list; default : int }
  | Unit_delay of Slim.Value.t * int
  | Delay of Slim.Value.t * int * int  (** initial, length, src *)
  | Integrator of { initial : float; igain : float; src : int }
  | Counter of { initial : int; modulo : int }
  | Ds_read of int  (** store index *)
  | Chart of chartspec * int list  (** embedded chart and its input nodes *)
  | Sub_if of { cond : int; ins : int list; then_ : subspec; else_ : subspec }
  | Sub_enabled of { enable : int; held : bool; ins : int list; sub : subspec }

and subspec = {
  sb_name : string;
  sb_nodes : node array;  (** leading nodes are the formal [In]s *)
  sb_out : int;
  sb_writes : (int * int) list;  (** writes to {e outer} stores *)
}

and chartspec = {
  ch_name : string;
  ch_ins : sty list;  (** formal inputs [x0], [x1], … *)
  ch_out : sty;  (** single output [y] *)
  ch_data : (sty * Slim.Value.t) list;  (** persistent data [d0], … *)
  ch_init : int;
  ch_states : cstate array;  (** states [S0], … *)
  ch_trans : ctrans list;  (** tried in priority (list) order *)
}

and cstate = { cs_entry : caction list; cs_during : caction list }

and ctrans = { ct_src : int; ct_dst : int; ct_guard : cexpr; ct_acts : caction list }

and cexpr =
  | CE_true
  | CE_in of int  (** boolean chart input *)
  | CE_data of int  (** boolean chart datum *)
  | CE_cmp of Slim.Ir.cmpop * carith * carith
  | CE_and of cexpr * cexpr
  | CE_or of cexpr * cexpr
  | CE_not of cexpr

and carith =
  | CA_in of int  (** numeric chart input *)
  | CA_data of int  (** numeric chart datum *)
  | CA_const of Slim.Value.t
  | CA_add of carith * carith
  | CA_sub of carith * carith
  | CA_mod of carith * int  (** guarded: the divisor constant is >= 2 *)

and caction =
  | CSet_num of ctarget * carith
  | CSet_bool of ctarget * cexpr

and ctarget = T_data of int | T_out

type spec = {
  sp_name : string;
  sp_stores : (sty * Slim.Value.t) list;  (** data stores [ds0], … *)
  sp_nodes : node array;
  sp_outs : int list;  (** nodes exposed as outports [o0], … *)
  sp_writes : (int * int) list;  (** (store, node) data-store writes *)
}

type model_spec = M_diagram of spec | M_chart of chartspec

(** {1 Generation} *)

val gen_model : Util.Splitmix.t -> size:int -> model_spec
(** Draw a random model spec; [size] bounds the node count of diagrams
    (charts scale state/transition counts from it).  All randomness
    comes from the given generator: equal states generate equal specs. *)

val gen_value : Util.Splitmix.t -> Slim.Value.ty -> Slim.Value.t
(** One biased in-domain draw (used by {!gen_inputs} and by the
    oracles' concrete refutation search). *)

val gen_inputs :
  Util.Splitmix.t ->
  Slim.Ir.program ->
  steps:int ->
  (string * Slim.Value.t) list list
(** One input valuation per step, drawn from the declared input types
    with boundary values (bounds, zero, integer-valued reals) mixed in
    so thresholds actually trip. *)

(** {1 Compilation} *)

val sty_ty : sty -> Slim.Value.ty
val to_model : spec -> Slim.Model.t
val chart_of_spec : chartspec -> Stateflow.Chart.t

val program_of : model_spec -> Slim.Ir.program
(** Diagrams via {!Slim.Compile.to_program}, charts via
    {!Stateflow.Sf_compile.to_program}. *)

(** {1 Structure} *)

val node_deps : kind -> int list
(** Nodes referenced by a kind (not counting subsystem internals). *)

val map_deps : (int -> int) -> kind -> kind
(** Rewrite the node references of a kind in place (not descending
    into subsystem or chart internals); used by the shrinker to hoist
    subsystem-internal nodes to the enclosing scope. *)

val live : spec -> bool array
(** Per-node liveness from outports and data-store writes. *)

val compact : spec -> spec
(** Drop dead nodes and remap references; inport names are preserved,
    so recorded input sequences still apply. *)

val size_of : model_spec -> int
(** Block count of the compiled diagram ({!Slim.Model.block_count}) or
    state + transition count of a chart — the reproducer size metric. *)

(** {1 Reproducer printing} *)

val pp_repro :
  Format.formatter ->
  model_spec * (string * Slim.Value.t) list list ->
  unit
(** Render the case as a runnable OCaml snippet: builds the model with
    [Slim.Builder] / [Stateflow.Chart], binds the input sequence, and
    ends with [prog] and [steps] in scope. *)
