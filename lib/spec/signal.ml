type shape = Piecewise_constant | Piecewise_linear

let shape_name = function Piecewise_constant -> "pwc" | Piecewise_linear -> "pwl"

let shape_of_name = function
  | "pwc" -> Some Piecewise_constant
  | "pwl" -> Some Piecewise_linear
  | _ -> None

(* One searched coordinate: which input slot it feeds and the float box
   the search may move it in.  Bool inputs search [0,1] and threshold at
   render time; int inputs search the declared range and round. *)
type param = { slot : int; ty : Slim.Value.ty; lo : float; hi : float }

type plan = {
  exec : Slim.Exec.t;
  shape : shape;
  steps : int;
  segments : int;
  params : param array;  (** var-major: [segments] consecutive entries per input *)
}

let plan exec ~shape ~steps ~segments =
  if steps < 1 then invalid_arg "Signal.plan: steps < 1";
  if segments < 1 || segments > steps then
    invalid_arg "Signal.plan: need 1 <= segments <= steps";
  let params = ref [] in
  Array.iteri
    (fun slot (v : Slim.Ir.var) ->
      let box =
        match v.ty with
        | Slim.Value.Tbool -> Some (0.0, 1.0)
        | Slim.Value.Tint { lo; hi } -> Some (float_of_int lo, float_of_int hi)
        | Slim.Value.Treal { lo; hi } -> Some (lo, hi)
        | Slim.Value.Tvec _ -> None
      in
      match box with
      | None -> ()
      | Some (lo, hi) ->
        for _ = 1 to segments do
          params := { slot; ty = v.ty; lo; hi } :: !params
        done)
    (Slim.Exec.input_vars exec);
  { exec; shape; steps; segments; params = Array.of_list (List.rev !params) }

let n_params p = Array.length p.params
let steps p = p.steps
let exec p = p.exec

let domain p i =
  let q = p.params.(i) in
  (q.lo, q.hi)

let random_params p rng =
  Array.map (fun q -> Util.Splitmix.float_in rng q.lo q.hi) p.params

let clamp lo hi v = if v < lo then lo else if v > hi then hi else v

(* Raw float level of one input variable at step [t], from its [segments]
   consecutive parameters starting at [base]. *)
let level p vec base t =
  match p.shape with
  | Piecewise_constant ->
    (* segment k spans steps [k*steps/segments, (k+1)*steps/segments) *)
    let k = t * p.segments / p.steps in
    let k = if k > p.segments - 1 then p.segments - 1 else k in
    vec.(base + k)
  | Piecewise_linear ->
    if p.segments = 1 then vec.(base)
    else begin
      (* control point k sits at step k*(steps-1)/(segments-1) *)
      let pos = float_of_int t *. float_of_int (p.segments - 1)
                /. float_of_int (p.steps - 1) in
      let k = int_of_float (Float.floor pos) in
      let k = if k > p.segments - 2 then p.segments - 2 else k in
      let frac = pos -. float_of_int k in
      let a = vec.(base + k) and b = vec.(base + k + 1) in
      a +. ((b -. a) *. frac)
    end

let value_of_level (q : param) v : Slim.Value.t =
  match q.ty with
  | Slim.Value.Tbool -> Bool (v >= 0.5)
  | Slim.Value.Tint { lo; hi } ->
    Int (clamp lo hi (int_of_float (Float.round v)))
  | Slim.Value.Treal { lo; hi } -> Real (clamp lo hi v)
  | Slim.Value.Tvec _ -> assert false

let render p vec =
  if Array.length vec <> Array.length p.params then
    invalid_arg "Signal.render: wrong parameter count";
  let base = Slim.Exec.default_inputs p.exec in
  List.init p.steps (fun t ->
      let row = Array.map Slim.Value.copy base in
      let i = ref 0 in
      while !i < Array.length p.params do
        let q = p.params.(!i) in
        row.(q.slot) <- value_of_level q (level p vec !i t);
        i := !i + p.segments
      done;
      row)
