type t = { mutable spent : float; budget : float }

(* [charge] clamps with [Float.min], which never reaches a NaN budget
   and reaches an infinite one only at full coverage: either would run
   forever *)
let create ~budget =
  if not (Float.is_finite budget && budget >= 0.0) then
    invalid_arg "Vclock.create: budget must be finite and non-negative";
  { spent = 0.0; budget }

let charge t d =
  assert (d >= 0.0);
  t.spent <- Float.min t.budget (t.spent +. d)

let now t = t.spent
let expired t = t.spent >= t.budget
let budget t = t.budget

(* Virtual seconds. *)
let cost_sim_step = 0.020
let cost_state_switch = 0.005
let cost_solver_call = 0.25
let cost_solver_node = 0.000_05
let cost_term_node = 0.000_002
let cost_path = 0.006

(* fixed cost of preparing one symbolic query (model extraction,
   state switching, constraint construction) *)
let cost_solve_episode = 0.12

let charge_solve t (c : Symexec.Explore.cost) =
  charge t
    (cost_solve_episode
    +. (float_of_int c.Symexec.Explore.solver_calls *. cost_solver_call)
    +. (float_of_int c.Symexec.Explore.solver_nodes *. cost_solver_node)
    +. (float_of_int c.Symexec.Explore.term_nodes *. cost_term_node)
    +. (float_of_int c.Symexec.Explore.paths_explored *. cost_path))

let charge_steps t n =
  charge t (cost_state_switch +. (float_of_int n *. cost_sim_step))
