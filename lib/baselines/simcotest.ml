module Exec = Slim.Exec
module Value = Slim.Value
module Ir = Slim.Ir
module Branch = Slim.Branch
module Tracker = Coverage.Tracker
module Vclock = Stcg.Vclock
module Testcase = Stcg.Testcase

type config = {
  budget : float;
  horizon : int;
  seed : int;
  gen_overhead : float;
}

let default_config =
  { budget = 3600.0; horizon = 30; seed = 1; gen_overhead = 1.5 }

(* Signal shapes over a horizon, as SimCoTest samples them. *)
type shape =
  | Constant of Value.t
  | Step of Value.t * Value.t * int  (** before, after, switch step *)
  | Pulse of Value.t * Value.t * int * int  (** base, active, start, len *)
  | Ramp_sig of float * float  (** start, slope; numeric types only *)
  | Random_walk of Value.t list  (** presampled values per step *)
  | Piecewise of (int * Value.t) list  (** segment starts and values *)

let sample_scalar rng ty = Value.random rng ty

let sample_shape rng (ty : Value.ty) horizon =
  match ty with
  | Value.Tvec _ ->
    (* vector ports get fresh random values each step *)
    Random_walk (List.init horizon (fun _ -> Value.random rng ty))
  | Value.Tbool | Value.Tint _ | Value.Treal _ -> (
    match Random.State.int rng 6 with
    | 0 -> Constant (sample_scalar rng ty)
    | 1 ->
      Step
        ( sample_scalar rng ty,
          sample_scalar rng ty,
          1 + Random.State.int rng (max 1 (horizon - 1)) )
    | 2 ->
      Pulse
        ( sample_scalar rng ty,
          sample_scalar rng ty,
          Random.State.int rng horizon,
          1 + Random.State.int rng 5 )
    | 3 -> (
      match ty with
      | Value.Treal { lo; hi } ->
        let start = lo +. Random.State.float rng (Float.max 1e-9 (hi -. lo)) in
        let slope = (hi -. lo) /. float_of_int (4 * horizon) in
        Ramp_sig (start, if Random.State.bool rng then slope else -.slope)
      | _ -> Constant (sample_scalar rng ty))
    | 4 -> Random_walk (List.init horizon (fun _ -> sample_scalar rng ty))
    | _ ->
      let segments = 2 + Random.State.int rng 3 in
      Piecewise
        (List.init segments (fun k ->
             (k * horizon / segments, sample_scalar rng ty))))

let value_at (ty : Value.ty) shape step =
  match shape with
  | Constant v -> v
  | Step (a, b, at) -> if step < at then a else b
  | Pulse (base, active, start, len) ->
    if step >= start && step < start + len then active else base
  | Ramp_sig (start, slope) ->
    let raw = start +. (slope *. float_of_int step) in
    (match ty with
     | Value.Treal { lo; hi } -> Value.Real (Float.min hi (Float.max lo raw))
     | Value.Tint { lo; hi } ->
       Value.Int (min hi (max lo (int_of_float raw)))
     | Value.Tbool -> Value.Bool (raw > 0.0)
     | Value.Tvec _ -> Value.default_of_ty ty)
  | Random_walk vs -> (
    match List.nth_opt vs step with
    | Some v -> v
    | None -> Value.default_of_ty ty)
  | Piecewise segs ->
    let rec pick last = function
      | [] -> last
      | (at, v) :: rest -> if step >= at then pick v rest else last
    in
    pick (Value.default_of_ty ty) segs

let candidate rng ex horizon : Exec.inputs list =
  let vars = Exec.input_vars ex in
  let n = Array.length vars in
  let shapes = Array.make n (Value.Tbool, Constant (Value.Bool false)) in
  (* explicit ascending loop: shape sampling consumes the RNG in input
     declaration order, keeping sequences reproducible per seed *)
  for i = 0 to n - 1 do
    let ty = vars.(i).Ir.ty in
    shapes.(i) <- (ty, sample_shape rng ty horizon)
  done;
  List.init horizon (fun step ->
      Array.map (fun (ty, shape) -> value_at ty shape step) shapes)

let run ?(config = default_config) ~model (prog : Ir.program) =
  let ex = Exec.handle prog in
  let tracker = Tracker.create prog in
  let clock = Vclock.create ~budget:config.budget in
  let rng = Random.State.make [| config.seed; 0x51C0 |] in
  let testcases = ref [] in
  let timeline = ref [] in
  let next_tc = ref 0 in
  let decision_total = (Tracker.decision tracker).Tracker.total in
  let record_timeline () =
    let covered = (Tracker.decision tracker).Tracker.covered in
    let pct =
      if decision_total = 0 then 100.0
      else 100.0 *. float covered /. float decision_total
    in
    timeline := (Vclock.now clock, pct) :: !timeline
  in
  while (not (Vclock.expired clock)) && not (Tracker.fully_covered tracker) do
    Vclock.charge clock config.gen_overhead;
    let inputs = candidate rng ex config.horizon in
    let m = Tracker.mark tracker in
    let _, _ =
      Exec.run_sequence ~on_event:(Tracker.observe tracker) ex
        (Exec.initial_state ex) inputs
    in
    Vclock.charge_steps clock (List.length inputs);
    let fresh = Tracker.fresh_since tracker m in
    if not (Branch.Key_set.is_empty fresh) then begin
      let tc =
        {
          Testcase.tc_id = !next_tc;
          steps = inputs;
          origin = Testcase.Random_exec;
          found_at = Vclock.now clock;
          new_branches = Branch.Key_set.elements fresh;
        }
      in
      incr next_tc;
      testcases := tc :: !testcases;
      record_timeline ()
    end
  done;
  {
    Stcg.Run_result.tool = "SimCoTest";
    model;
    tracker;
    testcases = List.rev !testcases;
    timeline = List.rev !timeline;
    markers =
      List.rev_map
        (fun (tc : Testcase.t) -> (tc.Testcase.found_at, tc.Testcase.origin))
        !testcases;
    final_time = Vclock.now clock;
  }
