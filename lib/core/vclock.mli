(** Deterministic virtual clock.

    The paper's experiments run each tool for one wall-clock hour on a
    fixed machine.  We reproduce the *relative* cost structure —
    constraint solving is orders of magnitude more expensive than one
    simulation step, which is more expensive than bookkeeping — with a
    virtual clock charged by the algorithms themselves.  This makes
    every experiment deterministic and laptop-scale while preserving
    the shapes of coverage-versus-time curves (Figure 4).

    All durations are in virtual seconds. *)

type t

val create : budget:float -> t
(** [budget] in virtual seconds (the paper uses 3600).  Raises
    [Invalid_argument] unless it is finite and non-negative. *)

val charge : t -> float -> unit
(** Advance the clock; clamps at the budget. *)

val now : t -> float
val expired : t -> bool
val budget : t -> float

(** {1 Cost model}

    Rough virtual costs of the primitive operations, calibrated to the
    latencies of the toolchain the paper used (MATLAB-hosted simulation,
    an external constraint solver): *)

val cost_sim_step : float
(** One model iteration including harness overhead (20 ms). *)

val cost_state_switch : float
(** Restoring a state snapshot into the model (5 ms). *)

val cost_solver_call : float
(** Fixed overhead of one solver invocation (1 s). *)

val cost_solver_node : float
(** Per search-node cost inside the solver (50 us). *)

val cost_term_node : float
(** Constraint construction / transfer per term node (2 us). *)

val cost_path : float
(** Symbolic exploration of one path prefix (6 ms). *)

val cost_solve_episode : float
(** Fixed preparation cost of one symbolic query (120 ms). *)

val charge_solve : t -> Symexec.Explore.cost -> unit
(** Charge a whole symbolic-solving episode from its cost record. *)

val charge_steps : t -> int -> unit
(** Charge [n] simulation steps plus one state switch. *)
