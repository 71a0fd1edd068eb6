open Slim
module C = Stateflow.Chart

type sty = S_bool | S_int | S_real

type arith = A_add | A_sub | A_mul | A_min | A_max

type node = { n_sty : sty; n_kind : kind }

and kind =
  | In of string
  | Const of Value.t
  | Copy of int
  | Gain of float * int
  | Abs of int
  | Saturate of float * float * int
  | Arith of arith * int * int
  | Guard_div of int * int
  | Cmp of Ir.cmpop * int * int
  | Cmp_const of Ir.cmpop * float * int
  | Not of int
  | Logic of [ `And | `Or | `Xor ] * int list
  | Switch of {
      cmp : Ir.cmpop;
      threshold : float;
      data1 : int;
      control : int;
      data2 : int;
    }
  | Multiport of { selector : int; cases : (int * int) list; default : int }
  | Unit_delay of Value.t * int
  | Delay of Value.t * int * int
  | Integrator of { initial : float; igain : float; src : int }
  | Counter of { initial : int; modulo : int }
  | Ds_read of int
  | Chart of chartspec * int list
  | Sub_if of { cond : int; ins : int list; then_ : subspec; else_ : subspec }
  | Sub_enabled of { enable : int; held : bool; ins : int list; sub : subspec }

and subspec = {
  sb_name : string;
  sb_nodes : node array;
  sb_out : int;
  sb_writes : (int * int) list;
}

and chartspec = {
  ch_name : string;
  ch_ins : sty list;
  ch_out : sty;
  ch_data : (sty * Value.t) list;
  ch_init : int;
  ch_states : cstate array;
  ch_trans : ctrans list;
}

and cstate = { cs_entry : caction list; cs_during : caction list }

and ctrans = { ct_src : int; ct_dst : int; ct_guard : cexpr; ct_acts : caction list }

and cexpr =
  | CE_true
  | CE_in of int
  | CE_data of int
  | CE_cmp of Ir.cmpop * carith * carith
  | CE_and of cexpr * cexpr
  | CE_or of cexpr * cexpr
  | CE_not of cexpr

and carith =
  | CA_in of int
  | CA_data of int
  | CA_const of Value.t
  | CA_add of carith * carith
  | CA_sub of carith * carith
  | CA_mod of carith * int

and caction =
  | CSet_num of ctarget * carith
  | CSet_bool of ctarget * cexpr

and ctarget = T_data of int | T_out

type spec = {
  sp_name : string;
  sp_stores : (sty * Value.t) list;
  sp_nodes : node array;
  sp_outs : int list;
  sp_writes : (int * int) list;
}

type model_spec = M_diagram of spec | M_chart of chartspec

(* ------------------------------------------------------------------ *)
(* Naming and types                                                    *)

let store_name k = "ds" ^ string_of_int k
let chart_in_name k = "x" ^ string_of_int k
let chart_data_name k = "d" ^ string_of_int k
let chart_state_name k = "S" ^ string_of_int k

let sty_ty = function
  | S_bool -> Value.Tbool
  | S_int -> Value.tint_range (-6) 6
  | S_real -> Value.treal_range (-4.) 4.

let is_num = function S_int | S_real -> true | S_bool -> false

(* ------------------------------------------------------------------ *)
(* Structure                                                           *)

let node_deps = function
  | In _ | Const _ | Counter _ | Ds_read _ -> []
  | Copy j
  | Gain (_, j)
  | Abs j
  | Saturate (_, _, j)
  | Cmp_const (_, _, j)
  | Not j
  | Unit_delay (_, j)
  | Delay (_, _, j)
  | Integrator { src = j; _ } -> [ j ]
  | Arith (_, a, b) | Guard_div (a, b) | Cmp (_, a, b) -> [ a; b ]
  | Logic (_, js) -> js
  | Switch s -> [ s.data1; s.control; s.data2 ]
  | Multiport m -> (m.selector :: List.map snd m.cases) @ [ m.default ]
  | Chart (_, ins) -> ins
  | Sub_if { cond; ins; _ } -> cond :: ins
  | Sub_enabled { enable; ins; _ } -> enable :: ins

let map_deps f = function
  | (In _ | Const _ | Counter _ | Ds_read _) as k -> k
  | Copy j -> Copy (f j)
  | Gain (g, j) -> Gain (g, f j)
  | Abs j -> Abs (f j)
  | Saturate (lo, hi, j) -> Saturate (lo, hi, f j)
  | Cmp_const (op, t, j) -> Cmp_const (op, t, f j)
  | Not j -> Not (f j)
  | Unit_delay (v, j) -> Unit_delay (v, f j)
  | Delay (v, len, j) -> Delay (v, len, f j)
  | Integrator i -> Integrator { i with src = f i.src }
  | Arith (op, a, b) -> Arith (op, f a, f b)
  | Guard_div (a, b) -> Guard_div (f a, f b)
  | Cmp (op, a, b) -> Cmp (op, f a, f b)
  | Logic (op, js) -> Logic (op, List.map f js)
  | Switch s ->
    Switch { s with data1 = f s.data1; control = f s.control; data2 = f s.data2 }
  | Multiport m ->
    Multiport
      {
        selector = f m.selector;
        cases = List.map (fun (k, j) -> (k, f j)) m.cases;
        default = f m.default;
      }
  | Chart (c, ins) -> Chart (c, List.map f ins)
  | Sub_if s -> Sub_if { s with cond = f s.cond; ins = List.map f s.ins }
  | Sub_enabled s ->
    Sub_enabled { s with enable = f s.enable; ins = List.map f s.ins }

let live (s : spec) =
  let alive = Array.make (Array.length s.sp_nodes) false in
  let rec mark i =
    if not alive.(i) then begin
      alive.(i) <- true;
      List.iter mark (node_deps s.sp_nodes.(i).n_kind)
    end
  in
  List.iter mark s.sp_outs;
  List.iter (fun (_, i) -> mark i) s.sp_writes;
  alive

let map_kind f = function
  | (In _ | Const _ | Counter _ | Ds_read _) as k -> k
  | Copy j -> Copy (f j)
  | Gain (g, j) -> Gain (g, f j)
  | Abs j -> Abs (f j)
  | Saturate (lo, hi, j) -> Saturate (lo, hi, f j)
  | Arith (op, a, b) -> Arith (op, f a, f b)
  | Guard_div (a, b) -> Guard_div (f a, f b)
  | Cmp (op, a, b) -> Cmp (op, f a, f b)
  | Cmp_const (op, t, j) -> Cmp_const (op, t, f j)
  | Not j -> Not (f j)
  | Logic (op, js) -> Logic (op, List.map f js)
  | Switch s ->
    Switch { s with data1 = f s.data1; control = f s.control; data2 = f s.data2 }
  | Multiport m ->
    Multiport
      {
        selector = f m.selector;
        cases = List.map (fun (l, j) -> (l, f j)) m.cases;
        default = f m.default;
      }
  | Unit_delay (v, j) -> Unit_delay (v, f j)
  | Delay (v, n, j) -> Delay (v, n, f j)
  | Integrator i -> Integrator { i with src = f i.src }
  | Chart (c, ins) -> Chart (c, List.map f ins)
  | Sub_if s -> Sub_if { s with cond = f s.cond; ins = List.map f s.ins }
  | Sub_enabled s ->
    Sub_enabled { s with enable = f s.enable; ins = List.map f s.ins }

let compact (s : spec) =
  let alive = live s in
  let n = Array.length s.sp_nodes in
  let remap = Array.make n (-1) in
  let next = ref 0 in
  for i = 0 to n - 1 do
    if alive.(i) then begin
      remap.(i) <- !next;
      incr next
    end
  done;
  let kept = ref [] in
  for i = n - 1 downto 0 do
    if alive.(i) then
      kept :=
        { (s.sp_nodes.(i)) with
          n_kind = map_kind (fun j -> remap.(j)) s.sp_nodes.(i).n_kind }
        :: !kept
  done;
  {
    s with
    sp_nodes = Array.of_list !kept;
    sp_outs = List.map (fun i -> remap.(i)) s.sp_outs;
    sp_writes = List.map (fun (k, i) -> (k, remap.(i))) s.sp_writes;
  }

(* ------------------------------------------------------------------ *)
(* Chart spec -> Stateflow chart                                       *)

let rec ir_of_carith = function
  | CA_in k -> Ir.iv (chart_in_name k)
  | CA_data k -> Ir.sv (chart_data_name k)
  | CA_const v -> Ir.Const v
  | CA_add (a, b) -> Ir.Binop (Ir.Add, ir_of_carith a, ir_of_carith b)
  | CA_sub (a, b) -> Ir.Binop (Ir.Sub, ir_of_carith a, ir_of_carith b)
  | CA_mod (a, k) -> Ir.Binop (Ir.Mod, ir_of_carith a, Ir.ci k)

let rec ir_of_cexpr = function
  | CE_true -> Ir.cb true
  | CE_in k -> Ir.iv (chart_in_name k)
  | CE_data k -> Ir.sv (chart_data_name k)
  | CE_cmp (op, a, b) -> Ir.Cmp (op, ir_of_carith a, ir_of_carith b)
  | CE_and (a, b) -> Ir.And (ir_of_cexpr a, ir_of_cexpr b)
  | CE_or (a, b) -> Ir.Or (ir_of_cexpr a, ir_of_cexpr b)
  | CE_not a -> Ir.not_ (ir_of_cexpr a)

let stmt_of_caction = function
  | CSet_num (T_data k, e) -> Ir.assign_state (chart_data_name k) (ir_of_carith e)
  | CSet_num (T_out, e) -> Ir.assign_out "y" (ir_of_carith e)
  | CSet_bool (T_data k, e) -> Ir.assign_state (chart_data_name k) (ir_of_cexpr e)
  | CSet_bool (T_out, e) -> Ir.assign_out "y" (ir_of_cexpr e)

let chart_of_spec (c : chartspec) : C.t =
  let states =
    Array.to_list
      (Array.mapi
         (fun i st ->
           C.state
             ~entry:(List.map stmt_of_caction st.cs_entry)
             ~during:(List.map stmt_of_caction st.cs_during)
             (chart_state_name i))
         c.ch_states)
  in
  let transitions =
    List.map
      (fun t ->
        C.trans
          ~guard:(ir_of_cexpr t.ct_guard)
          ~action:(List.map stmt_of_caction t.ct_acts)
          (chart_state_name t.ct_src) (chart_state_name t.ct_dst))
      c.ch_trans
  in
  C.chart ~name:c.ch_name
    ~inputs:(List.mapi (fun k s -> Ir.input (chart_in_name k) (sty_ty s)) c.ch_ins)
    ~outputs:[ Ir.output "y" (sty_ty c.ch_out) ]
    ~data:
      (List.mapi
         (fun k (s, init) -> Ir.state (chart_data_name k) (sty_ty s) init)
         c.ch_data)
    (C.region ~initial:(chart_state_name c.ch_init) ~transitions states)

(* ------------------------------------------------------------------ *)
(* Spec -> Model                                                       *)

let singleton_wire = function
  | [ w ] -> w
  | ws -> Fmt.invalid_arg "fuzz: expected 1 subsystem output, got %d" (List.length ws)

let rec build_nodes b (nodes : node array) : Builder.wire array =
  let wires = Array.make (Array.length nodes) None in
  let wire i =
    match wires.(i) with
    | Some w -> w
    | None -> Fmt.invalid_arg "fuzz: forward reference to node %d" i
  in
  Array.iteri
    (fun i node ->
      let w =
        match node.n_kind with
        | In name -> Builder.inport b name (sty_ty node.n_sty)
        | Const v -> Builder.const b v
        | Copy j -> (
          match node.n_sty with
          | S_bool -> Builder.or_ b [ wire j ]
          | S_int | S_real -> Builder.gain b 1.0 (wire j))
        | Gain (g, j) -> Builder.gain b g (wire j)
        | Abs j -> Builder.abs_ b (wire j)
        | Saturate (lo, hi, j) -> Builder.saturation b ~lower:lo ~upper:hi (wire j)
        | Arith (op, x, y) -> (
          let x = wire x and y = wire y in
          match op with
          | A_add -> Builder.sum b [ x; y ]
          | A_sub -> Builder.diff b x y
          | A_mul -> Builder.prod b [ x; y ]
          | A_min -> Builder.min_ b [ x; y ]
          | A_max -> Builder.max_ b [ x; y ])
        | Guard_div (x, y) ->
          let one =
            match nodes.(y).n_sty with
            | S_int -> Builder.const_i b 1
            | _ -> Builder.const_r b 1.0
          in
          let den = Builder.max_ b [ Builder.abs_ b (wire y); one ] in
          Builder.divide b (wire x) den
        | Cmp (op, x, y) -> Builder.relational b op (wire x) (wire y)
        | Cmp_const (op, t, j) -> Builder.compare_const b op t (wire j)
        | Not j -> Builder.not_ b (wire j)
        | Logic (op, js) -> (
          let ws = List.map wire js in
          match op with
          | `And -> Builder.and_ b ws
          | `Or -> Builder.or_ b ws
          | `Xor -> Builder.xor_ b ws)
        | Switch s ->
          Builder.switch b ~cmp:s.cmp ~threshold:s.threshold ~data1:(wire s.data1)
            ~control:(wire s.control) ~data2:(wire s.data2) ()
        | Multiport m ->
          Builder.multiport b ~selector:(wire m.selector)
            (List.map (fun (l, j) -> (l, wire j)) m.cases)
            ~default:(wire m.default)
        | Unit_delay (init, j) -> Builder.unit_delay b init (wire j)
        | Delay (init, length, j) -> Builder.delay b ~initial:init ~length (wire j)
        | Integrator { initial; igain; src } ->
          Builder.integrator b ~gain:igain ~lower:(-100.) ~upper:100. ~initial
            (wire src)
        | Counter { initial; modulo } -> Builder.counter b ~initial ~modulo ()
        | Ds_read k -> Builder.ds_read b (store_name k)
        | Chart (c, ins) ->
          singleton_wire
            (Builder.chart b
               (Stateflow.Sf_compile.compile (chart_of_spec c))
               (List.map wire ins))
        | Sub_if { cond; ins; then_; else_ } ->
          singleton_wire
            (Builder.if_else b ~then_sys:(sub_model then_) ~else_sys:(sub_model else_)
               ~cond:(wire cond) (List.map wire ins))
        | Sub_enabled { enable; held; ins; sub } ->
          singleton_wire
            (Builder.enabled b ~held (sub_model sub) ~enable:(wire enable)
               (List.map wire ins))
      in
      wires.(i) <- Some w)
    nodes;
  Array.map Option.get wires

(* Subsystems may reference the enclosing model's data stores, so they
   must skip standalone validation; the outer [finish] re-validates them
   with the full store environment in scope. *)
and sub_model (ss : subspec) : Model.t =
  let b = Builder.create ss.sb_name in
  let wires = build_nodes b ss.sb_nodes in
  Builder.outport b "o" wires.(ss.sb_out);
  List.iter (fun (k, i) -> Builder.ds_write b (store_name k) wires.(i)) ss.sb_writes;
  Builder.finish_unvalidated b

let to_model (s : spec) : Model.t =
  let b = Builder.create s.sp_name in
  List.iteri
    (fun k (sty, init) -> Builder.data_store b (store_name k) (sty_ty sty) init)
    s.sp_stores;
  let wires = build_nodes b s.sp_nodes in
  List.iteri
    (fun k i -> Builder.outport b ("o" ^ string_of_int k) wires.(i))
    s.sp_outs;
  List.iter (fun (k, i) -> Builder.ds_write b (store_name k) wires.(i)) s.sp_writes;
  Builder.finish b

let program_of = function
  | M_diagram s -> Compile.to_program (to_model s)
  | M_chart c -> Stateflow.Sf_compile.to_program (chart_of_spec c)

let size_of = function
  | M_diagram s -> Model.block_count (to_model s)
  | M_chart c -> Array.length c.ch_states + List.length c.ch_trans

(* ------------------------------------------------------------------ *)
(* Random generation                                                   *)

let gen_sty rng =
  Util.Splitmix.weighted rng [ (3, S_bool); (4, S_int); (3, S_real) ]

let gen_const rng = function
  | S_bool -> Value.Bool (Util.Splitmix.bool rng)
  | S_int -> Value.Int (Util.Splitmix.int_in rng (-5) 5)
  | S_real -> (
    match Util.Splitmix.int rng 4 with
    | 0 -> Value.Real (float_of_int (Util.Splitmix.int_in rng (-4) 4))
    | 1 -> Value.Real 0.5
    | _ -> Value.Real (Util.Splitmix.float_in rng (-4.) 4.))

let gen_cmpop rng =
  Util.Splitmix.choose rng [ Ir.Eq; Ir.Ne; Ir.Lt; Ir.Le; Ir.Gt; Ir.Ge ]

(* thresholds land on small integers (and the occasional half) so that
   comparisons against the bounded input domains actually flip *)
let gen_threshold rng =
  if Util.Splitmix.int rng 4 = 0 then 0.5
  else float_of_int (Util.Splitmix.int_in rng (-3) 3)

(* ---- charts ---- *)

let gen_chart rng ~name ~ins ~out ~size : chartspec =
  let ndata = Util.Splitmix.int rng 3 in
  let data =
    List.init ndata (fun _ ->
        let s =
          Util.Splitmix.weighted rng [ (2, S_bool); (4, S_int); (2, S_real) ]
        in
        (s, gen_const rng s))
  in
  let idxs p l = List.filteri (fun _ x -> p x) (List.mapi (fun i _ -> i) l) in
  let num_ins = idxs (fun i -> is_num (List.nth ins i)) ins in
  let bool_ins = idxs (fun i -> List.nth ins i = S_bool) ins in
  let num_data = idxs (fun i -> is_num (fst (List.nth data i))) data in
  let bool_data = idxs (fun i -> fst (List.nth data i) = S_bool) data in
  let rec arith depth =
    let tag =
      Util.Splitmix.weighted rng
        [
          ((if num_ins <> [] then 3 else 0), `In);
          ((if num_data <> [] then 3 else 0), `Data);
          (2, `Const);
          ((if depth > 0 then 3 else 0), `Add);
          ((if depth > 0 then 2 else 0), `Sub);
          ((if depth > 0 then 2 else 0), `Mod);
        ]
    in
    match tag with
    | `In -> CA_in (Util.Splitmix.choose rng num_ins)
    | `Data -> CA_data (Util.Splitmix.choose rng num_data)
    | `Const ->
      CA_const (gen_const rng (Util.Splitmix.choose rng [ S_int; S_int; S_real ]))
    | `Add -> CA_add (arith (depth - 1), arith (depth - 1))
    | `Sub -> CA_sub (arith (depth - 1), arith (depth - 1))
    | `Mod -> CA_mod (arith (depth - 1), Util.Splitmix.int_in rng 2 5)
  in
  let rec cexpr depth =
    let tag =
      Util.Splitmix.weighted rng
        [
          (5, `Cmp);
          ((if bool_ins <> [] then 2 else 0), `In);
          ((if bool_data <> [] then 2 else 0), `Data);
          ((if depth > 0 then 2 else 0), `And);
          ((if depth > 0 then 2 else 0), `Or);
          ((if depth > 0 then 2 else 0), `Not);
          (1, `True);
        ]
    in
    match tag with
    | `Cmp -> CE_cmp (gen_cmpop rng, arith 1, arith 1)
    | `In -> CE_in (Util.Splitmix.choose rng bool_ins)
    | `Data -> CE_data (Util.Splitmix.choose rng bool_data)
    | `And -> CE_and (cexpr (depth - 1), cexpr (depth - 1))
    | `Or -> CE_or (cexpr (depth - 1), cexpr (depth - 1))
    | `Not -> CE_not (cexpr (depth - 1))
    | `True -> CE_true
  in
  let targets =
    (T_out, out) :: List.mapi (fun k (s, _) -> (T_data k, s)) data
  in
  let action () =
    let t, s = Util.Splitmix.choose rng targets in
    if s = S_bool then CSet_bool (t, cexpr 1) else CSet_num (t, arith 2)
  in
  let actions n = List.init (Util.Splitmix.int rng (n + 1)) (fun _ -> action ()) in
  let nstates = Util.Splitmix.int_in rng 2 (2 + min 2 (size / 8)) in
  let states =
    Array.init nstates (fun _ -> { cs_entry = actions 2; cs_during = actions 2 })
  in
  let ntrans = Util.Splitmix.int_in rng (nstates - 1) (2 * nstates) in
  let trans =
    List.init ntrans (fun _ ->
        {
          ct_src = Util.Splitmix.int rng nstates;
          ct_dst = Util.Splitmix.int rng nstates;
          ct_guard = cexpr 2;
          ct_acts = actions 1;
        })
  in
  {
    ch_name = name;
    ch_ins = ins;
    ch_out = out;
    ch_data = data;
    ch_init = Util.Splitmix.int rng nstates;
    ch_states = states;
    ch_trans = trans;
  }

(* ---- diagrams ---- *)

type gctx = {
  rng : Util.Splitmix.t;
  mutable acc : node list;  (* newest first *)
  mutable count : int;
  stores : (sty * Value.t) list;
}

let add ctx n =
  let i = ctx.count in
  ctx.acc <- n :: ctx.acc;
  ctx.count <- i + 1;
  i

let candidates ctx p =
  let rec go i acc = function
    | [] -> acc
    | n :: rest -> go (i - 1) (if p n then i :: acc else acc) rest
  in
  go (ctx.count - 1) [] ctx.acc

let store_idxs ctx p =
  let rec go i = function
    | [] -> []
    | (s, _) :: rest -> if p s then i :: go (i + 1) rest else go (i + 1) rest
  in
  go 0 ctx.stores

let gen_gain_int rng = float_of_int (Util.Splitmix.choose rng [ -2; -1; 2; 3 ])
let gen_gain_real rng = Util.Splitmix.choose rng [ 0.5; 1.5; -0.5; -1.25 ]

(* [gen_node ctx ~depth ~allow_in s] draws one node of class [s] whose
   operands all come from already-generated nodes.  [depth] = 0 at the
   top level, where charts and conditional subsystems are allowed. *)
let rec gen_node ctx ~depth ~allow_in s : node =
  let rng = ctx.rng in
  let bools = candidates ctx (fun n -> n.n_sty = S_bool) in
  let ints = candidates ctx (fun n -> n.n_sty = S_int) in
  let reals = candidates ctx (fun n -> n.n_sty = S_real) in
  let nums = ints @ reals in
  let stores_of p = store_idxs ctx p in
  let top = depth = 0 in
  let w c w tag = ((if c then w else 0), tag) in
  let pick l = Util.Splitmix.choose rng l in
  let kind =
    match s with
    | S_bool -> (
      let tag =
        Util.Splitmix.weighted rng
          [
            w allow_in 3 `In;
            w true 1 `Const;
            w (nums <> []) 4 `Cmp;
            w (nums <> []) 3 `Cmp_const;
            w (bools <> []) 2 `Not;
            w (bools <> []) 3 `Logic;
            w (bools <> []) 2 `Delay1;
            w (bools <> [] && nums <> []) 2 `Switch;
            w (bools <> [] && ints <> []) 1 `Multiport;
            w (stores_of (fun s -> s = S_bool) <> []) 2 `Ds_read;
            w (top && nums @ bools <> []) 2 `Chart;
            w (top && bools <> []) 1 `Sub_if;
          ]
      in
      match tag with
      | `In -> In ("i" ^ string_of_int ctx.count)
      | `Const -> Const (gen_const rng S_bool)
      | `Cmp -> Cmp (gen_cmpop rng, pick nums, pick nums)
      | `Cmp_const -> Cmp_const (gen_cmpop rng, gen_threshold rng, pick nums)
      | `Not -> Not (pick bools)
      | `Logic ->
        let op = Util.Splitmix.choose rng [ `And; `Or; `Xor ] in
        let arity = Util.Splitmix.int_in rng 2 3 in
        Logic (op, List.init arity (fun _ -> pick bools))
      | `Delay1 -> Unit_delay (gen_const rng S_bool, pick bools)
      | `Switch ->
        Switch
          {
            cmp = gen_cmpop rng;
            threshold = gen_threshold rng;
            data1 = pick bools;
            control = pick nums;
            data2 = pick bools;
          }
      | `Multiport -> gen_multiport ctx ~pool:bools ~ints
      | `Ds_read -> Ds_read (pick (stores_of (fun s -> s = S_bool)))
      | `Chart -> gen_chart_node ctx ~out:S_bool
      | `Sub_if -> gen_sub_if ctx ~out:S_bool ~bools)
    | S_int -> (
      let tag =
        Util.Splitmix.weighted rng
          [
            w allow_in 3 `In;
            w true 2 `Const;
            w true 2 `Counter;
            w (ints <> []) 4 `Arith;
            w (ints <> []) 2 `Div;
            w (ints <> []) 1 `Abs;
            w (ints <> []) 2 `Gain;
            w (ints <> []) 2 `Delay1;
            w (ints <> []) 2 `DelayN;
            w (ints <> [] && nums <> []) 3 `Switch;
            w (ints <> []) 2 `Multiport;
            w (stores_of (fun s -> s = S_int) <> []) 2 `Ds_read;
            w (top && nums @ bools <> []) 1 `Chart;
            w (top && bools <> []) 1 `Sub_if;
            w (top && bools <> []) 1 `Sub_en;
          ]
      in
      match tag with
      | `In -> In ("i" ^ string_of_int ctx.count)
      | `Const -> Const (gen_const rng S_int)
      | `Counter ->
        let modulo = Util.Splitmix.int_in rng 2 6 in
        Counter { initial = Util.Splitmix.int rng modulo; modulo }
      | `Arith ->
        let op =
          Util.Splitmix.weighted rng
            [ (3, A_add); (3, A_sub); (1, A_mul); (2, A_min); (2, A_max) ]
        in
        Arith (op, pick ints, pick ints)
      | `Div -> Guard_div (pick ints, pick ints)
      | `Abs -> Abs (pick ints)
      | `Gain -> Gain (gen_gain_int rng, pick ints)
      | `Delay1 -> Unit_delay (gen_const rng S_int, pick ints)
      | `DelayN ->
        Delay (gen_const rng S_int, Util.Splitmix.int_in rng 1 4, pick ints)
      | `Switch ->
        Switch
          {
            cmp = gen_cmpop rng;
            threshold = gen_threshold rng;
            data1 = pick ints;
            control = pick nums;
            data2 = pick ints;
          }
      | `Multiport -> gen_multiport ctx ~pool:ints ~ints
      | `Ds_read -> Ds_read (pick (stores_of (fun s -> s = S_int)))
      | `Chart -> gen_chart_node ctx ~out:S_int
      | `Sub_if -> gen_sub_if ctx ~out:S_int ~bools
      | `Sub_en -> gen_sub_enabled ctx ~out:S_int ~bools)
    | S_real -> (
      let tag =
        Util.Splitmix.weighted rng
          [
            w allow_in 3 `In;
            w true 2 `Const;
            w (reals <> []) 4 `Arith;
            w (reals <> []) 2 `Div;
            w (nums <> []) 2 `Gain;
            w (reals <> []) 2 `Sat;
            w (nums <> []) 2 `Integr;
            w (reals <> []) 2 `Delay1;
            w (reals <> []) 1 `DelayN;
            w (reals <> [] && nums <> []) 2 `Switch;
            w (stores_of (fun s -> s = S_real) <> []) 2 `Ds_read;
            w (top && nums @ bools <> []) 1 `Chart;
            w (top && bools <> []) 1 `Sub_en;
          ]
      in
      match tag with
      | `In -> In ("i" ^ string_of_int ctx.count)
      | `Const -> Const (gen_const rng S_real)
      | `Arith ->
        let op =
          Util.Splitmix.weighted rng
            [ (3, A_add); (3, A_sub); (1, A_mul); (2, A_min); (2, A_max) ]
        in
        Arith (op, pick reals, pick nums)
      | `Div ->
        (* at least one real operand so the quotient is real *)
        let x = pick nums in
        let y = if List.mem x reals then pick nums else pick reals in
        Guard_div (x, y)
      | `Gain -> Gain (gen_gain_real rng, pick nums)
      | `Sat ->
        let lo = float_of_int (Util.Splitmix.int_in rng (-3) 0) in
        let hi = lo +. float_of_int (Util.Splitmix.int_in rng 1 4) in
        Saturate (lo, hi, pick reals)
      | `Integr ->
        Integrator
          {
            initial = float_of_int (Util.Splitmix.int_in rng (-2) 2);
            igain = Util.Splitmix.choose rng [ 1.0; 0.5; 2.0; -1.0 ];
            src = pick nums;
          }
      | `Delay1 -> Unit_delay (gen_const rng S_real, pick reals)
      | `DelayN ->
        Delay (gen_const rng S_real, Util.Splitmix.int_in rng 1 4, pick reals)
      | `Switch ->
        Switch
          {
            cmp = gen_cmpop rng;
            threshold = gen_threshold rng;
            data1 = pick reals;
            control = pick nums;
            data2 = pick reals;
          }
      | `Ds_read -> Ds_read (pick (stores_of (fun s -> s = S_real)))
      | `Chart -> gen_chart_node ctx ~out:S_real
      | `Sub_en -> gen_sub_enabled ctx ~out:S_real ~bools)
  in
  { n_sty = s; n_kind = kind }

and gen_multiport ctx ~pool ~ints =
  let rng = ctx.rng in
  let ncases = Util.Splitmix.int_in rng 1 3 in
  Multiport
    {
      selector = Util.Splitmix.choose rng ints;
      cases = List.init ncases (fun l -> (l, Util.Splitmix.choose rng pool));
      default = Util.Splitmix.choose rng pool;
    }

and gen_chart_node ctx ~out =
  let rng = ctx.rng in
  let all = candidates ctx (fun _ -> true) in
  let ndeps = Util.Splitmix.int_in rng 1 2 in
  let deps = List.init ndeps (fun _ -> Util.Splitmix.choose rng all) in
  let nodes = Array.of_list (List.rev ctx.acc) in
  let ins = List.map (fun i -> nodes.(i).n_sty) deps in
  let c =
    gen_chart rng
      ~name:("c" ^ string_of_int ctx.count)
      ~ins ~out ~size:(8 + Util.Splitmix.int rng 8)
  in
  Chart (c, deps)

and gen_sub_if ctx ~out ~bools =
  let rng = ctx.rng in
  let cond = Util.Splitmix.choose rng bools in
  let formals, ins = gen_sub_formals ctx in
  let base = "sub" ^ string_of_int ctx.count in
  let then_ = gen_sub ctx ~formals ~out ~name:(base ^ "t") in
  let else_ = gen_sub ctx ~formals ~out ~name:(base ^ "e") in
  Sub_if { cond; ins; then_; else_ }

and gen_sub_enabled ctx ~out ~bools =
  let rng = ctx.rng in
  let enable = Util.Splitmix.choose rng bools in
  let formals, ins = gen_sub_formals ctx in
  let sub = gen_sub ctx ~formals ~out ~name:("sub" ^ string_of_int ctx.count) in
  Sub_enabled { enable; held = Util.Splitmix.bool rng; ins; sub }

and gen_sub_formals ctx =
  let rng = ctx.rng in
  let all = candidates ctx (fun _ -> true) in
  let ndeps = Util.Splitmix.int rng 3 in
  let deps = List.init ndeps (fun _ -> Util.Splitmix.choose rng all) in
  let nodes = Array.of_list (List.rev ctx.acc) in
  (List.map (fun i -> nodes.(i).n_sty) deps, deps)

(* A subsystem body: formal inports first, then a small node soup, then
   (if needed) a coercion node guaranteeing something of the requested
   output class exists. *)
and gen_sub ctx ~formals ~out ~name : subspec =
  let rng = ctx.rng in
  let sctx = { rng; acc = []; count = 0; stores = ctx.stores } in
  List.iteri
    (fun k s ->
      ignore (add sctx { n_sty = s; n_kind = In ("i" ^ string_of_int k) }))
    formals;
  let budget = Util.Splitmix.int_in rng 3 6 in
  for _ = 1 to budget do
    let s = gen_sty rng in
    ignore (add sctx (gen_node sctx ~depth:1 ~allow_in:false s))
  done;
  let of_out = candidates sctx (fun n -> n.n_sty = out) in
  let out_idx =
    match of_out with
    | _ :: _ -> Util.Splitmix.choose rng of_out
    | [] ->
      let nums = candidates sctx (fun n -> is_num n.n_sty) in
      let coercion =
        match (out, nums) with
        | S_bool, j :: _ -> { n_sty = S_bool; n_kind = Cmp_const (Ir.Gt, 0.0, j) }
        | S_real, j :: _ -> { n_sty = S_real; n_kind = Gain (0.5, j) }
        | S_int, j :: _ when (Array.of_list (List.rev sctx.acc)).(j).n_sty = S_int
          -> { n_sty = S_int; n_kind = Copy j }
        | s, _ -> { n_sty = s; n_kind = Const (gen_const rng s) }
      in
      add sctx coercion
  in
  let writes =
    let numeric_stores = store_idxs sctx is_num in
    let bool_stores = store_idxs sctx (fun s -> s = S_bool) in
    if Util.Splitmix.bool rng then []
    else
      let num_nodes = candidates sctx (fun n -> is_num n.n_sty) in
      let bool_nodes = candidates sctx (fun n -> n.n_sty = S_bool) in
      match
        Util.Splitmix.weighted rng
          [
            ((if numeric_stores <> [] && num_nodes <> [] then 2 else 0), `Num);
            ((if bool_stores <> [] && bool_nodes <> [] then 1 else 0), `Bool);
            (1, `None);
          ]
      with
      | `Num ->
        [
          ( Util.Splitmix.choose rng numeric_stores,
            Util.Splitmix.choose rng num_nodes );
        ]
      | `Bool ->
        [
          ( Util.Splitmix.choose rng bool_stores,
            Util.Splitmix.choose rng bool_nodes );
        ]
      | `None -> []
  in
  {
    sb_name = name;
    sb_nodes = Array.of_list (List.rev sctx.acc);
    sb_out = out_idx;
    sb_writes = writes;
  }

let gen_spec rng ~size ~name : spec =
  let nstores =
    Util.Splitmix.weighted rng [ (3, 0); (3, 1); (2, 2); (1, 3) ]
  in
  let stores =
    List.init nstores (fun _ ->
        let s = gen_sty rng in
        (s, gen_const rng s))
  in
  let ctx = { rng; acc = []; count = 0; stores } in
  let nseed = Util.Splitmix.int_in rng 2 4 in
  for _ = 1 to nseed do
    let s = gen_sty rng in
    ignore (add ctx { n_sty = s; n_kind = In ("i" ^ string_of_int ctx.count) })
  done;
  let budget = max 1 (size - nseed) in
  for _ = 1 to budget do
    let s = gen_sty rng in
    ignore (add ctx (gen_node ctx ~depth:0 ~allow_in:true s))
  done;
  let n = ctx.count in
  let nouts = Util.Splitmix.int_in rng 1 3 in
  let outs =
    List.sort_uniq compare (List.init nouts (fun _ -> Util.Splitmix.int rng n))
  in
  let nodes = Array.of_list (List.rev ctx.acc) in
  let nwrites = Util.Splitmix.weighted rng [ (4, 0); (3, 1); (1, 2) ] in
  let writes = ref [] in
  for _ = 1 to nwrites do
    if stores <> [] then begin
      let k = Util.Splitmix.int rng (List.length stores) in
      if not (List.mem_assoc k !writes) then begin
        let ssty = fst (List.nth stores k) in
        let ok n = if ssty = S_bool then n.n_sty = S_bool else is_num n.n_sty in
        match candidates ctx ok with
        | [] -> ()
        | l -> writes := (k, Util.Splitmix.choose rng l) :: !writes
      end
    end
  done;
  {
    sp_name = name;
    sp_stores = stores;
    sp_nodes = nodes;
    sp_outs = outs;
    sp_writes = List.rev !writes;
  }

let gen_model rng ~size =
  if Util.Splitmix.int rng 5 = 0 then
    let nins = Util.Splitmix.int_in rng 1 3 in
    let ins = List.init nins (fun _ -> gen_sty rng) in
    let out = gen_sty rng in
    M_chart (gen_chart rng ~name:"fuzz_chart" ~ins ~out ~size)
  else M_diagram (gen_spec rng ~size ~name:"fuzz")

(* ---- inputs ---- *)

let rec gen_value rng (ty : Value.ty) =
  match ty with
  | Value.Tbool -> Value.Bool (Util.Splitmix.bool rng)
  | Value.Tint { lo; hi } -> (
    match
      Util.Splitmix.weighted rng [ (5, `U); (1, `Lo); (1, `Hi); (2, `Zero) ]
    with
    | `U -> Value.Int (Util.Splitmix.int_in rng lo hi)
    | `Lo -> Value.Int lo
    | `Hi -> Value.Int hi
    | `Zero -> Value.Int (if lo <= 0 && 0 <= hi then 0 else lo))
  | Value.Treal { lo; hi } -> (
    match
      Util.Splitmix.weighted rng
        [ (4, `U); (2, `Intv); (1, `Lo); (1, `Hi); (2, `Zero) ]
    with
    | `U -> Value.Real (Util.Splitmix.float_in rng lo hi)
    | `Intv ->
      let ilo = int_of_float (Float.ceil lo)
      and ihi = int_of_float (Float.floor hi) in
      if ilo > ihi then Value.Real (Util.Splitmix.float_in rng lo hi)
      else Value.Real (float_of_int (Util.Splitmix.int_in rng ilo ihi))
    | `Lo -> Value.Real lo
    | `Hi -> Value.Real hi
    | `Zero -> Value.Real (if lo <= 0. && 0. <= hi then 0. else lo))
  | Value.Tvec (ety, n) -> Value.Vec (Array.init n (fun _ -> gen_value rng ety))

let gen_inputs rng (prog : Ir.program) ~steps =
  List.init steps (fun _ ->
      List.map (fun (v : Ir.var) -> (v.Ir.name, gen_value rng v.Ir.ty)) prog.Ir.inputs)

(* ------------------------------------------------------------------ *)
(* Reproducer printing                                                 *)

let float_lit r =
  if Float.is_nan r then "Float.nan"
  else if r = Float.infinity then "Float.infinity"
  else if r = Float.neg_infinity then "Float.neg_infinity"
  else if Float.is_integer r && Float.abs r < 1e16 then Fmt.str "(%.1f)" r
  else Fmt.str "(%.17g)" r

let rec pp_value ppf (v : Value.t) =
  match v with
  | Value.Bool b -> Fmt.pf ppf "(Value.Bool %b)" b
  | Value.Int i -> Fmt.pf ppf "(Value.Int (%d))" i
  | Value.Real r -> Fmt.pf ppf "(Value.Real %s)" (float_lit r)
  | Value.Vec vs ->
    Fmt.pf ppf "(Value.Vec [| %a |])"
      Fmt.(array ~sep:(any "; ") pp_value)
      vs

let rec pp_ty ppf (ty : Value.ty) =
  match ty with
  | Value.Tbool -> Fmt.string ppf "Value.Tbool"
  | Value.Tint { lo; hi } -> Fmt.pf ppf "(Value.tint_range (%d) (%d))" lo hi
  | Value.Treal { lo; hi } ->
    Fmt.pf ppf "(Value.treal_range %s %s)" (float_lit lo) (float_lit hi)
  | Value.Tvec (ety, n) -> Fmt.pf ppf "(Value.Tvec (%a, %d))" pp_ty ety n

let cmp_lit = function
  | Ir.Eq -> "Ir.Eq"
  | Ir.Ne -> "Ir.Ne"
  | Ir.Lt -> "Ir.Lt"
  | Ir.Le -> "Ir.Le"
  | Ir.Gt -> "Ir.Gt"
  | Ir.Ge -> "Ir.Ge"

let binop_lit = function
  | Ir.Add -> "Ir.Add"
  | Ir.Sub -> "Ir.Sub"
  | Ir.Mul -> "Ir.Mul"
  | Ir.Div -> "Ir.Div"
  | Ir.Mod -> "Ir.Mod"
  | Ir.Min -> "Ir.Min"
  | Ir.Max -> "Ir.Max"

(* the subset of IR that chart guards/actions use, as OCaml constructors *)
let rec pp_ir_expr ppf (e : Ir.expr) =
  match e with
  | Ir.Const v -> Fmt.pf ppf "(Ir.Const %a)" pp_value v
  | Ir.Var (Ir.Input, n) -> Fmt.pf ppf "(Ir.iv %S)" n
  | Ir.Var (Ir.State, n) -> Fmt.pf ppf "(Ir.sv %S)" n
  | Ir.Var (Ir.Local, n) -> Fmt.pf ppf "(Ir.lv %S)" n
  | Ir.Var (Ir.Output, n) -> Fmt.pf ppf "(Ir.Var (Ir.Output, %S))" n
  | Ir.Binop (op, a, b) ->
    Fmt.pf ppf "(Ir.Binop (%s, %a, %a))" (binop_lit op) pp_ir_expr a pp_ir_expr b
  | Ir.Cmp (op, a, b) ->
    Fmt.pf ppf "(Ir.Cmp (%s, %a, %a))" (cmp_lit op) pp_ir_expr a pp_ir_expr b
  | Ir.And (a, b) -> Fmt.pf ppf "(Ir.And (%a, %a))" pp_ir_expr a pp_ir_expr b
  | Ir.Or (a, b) -> Fmt.pf ppf "(Ir.Or (%a, %a))" pp_ir_expr a pp_ir_expr b
  | Ir.Unop (Ir.Not, a) -> Fmt.pf ppf "(Ir.not_ %a)" pp_ir_expr a
  | Ir.Unop _ | Ir.Ite _ | Ir.Index _ ->
    Fmt.pf ppf "(* unsupported expr %a *)" Ir.pp_expr e

let pp_ir_stmt ppf (s : Ir.stmt) =
  match s with
  | Ir.Assign (Ir.Lvar (Ir.State, n), e) ->
    Fmt.pf ppf "Ir.assign_state %S %a" n pp_ir_expr e
  | Ir.Assign (Ir.Lvar (Ir.Output, n), e) ->
    Fmt.pf ppf "Ir.assign_out %S %a" n pp_ir_expr e
  | _ -> Fmt.pf ppf "(* unsupported stmt %a *)" Ir.pp_stmt s

let pp_chart_expr ppf (c : chartspec) =
  let pp_actions ppf acts =
    Fmt.pf ppf "[ %a ]" Fmt.(list ~sep:(any "; ") pp_ir_stmt)
      (List.map stmt_of_caction acts)
  in
  Fmt.pf ppf "@[<v 2>Stateflow.Chart.chart ~name:%S@," c.ch_name;
  Fmt.pf ppf "~inputs:[ %a ]@,"
    Fmt.(
      list ~sep:(any "; ") (fun ppf (k, s) ->
          Fmt.pf ppf "Ir.input %S %a" (chart_in_name k) pp_ty (sty_ty s)))
    (List.mapi (fun k s -> (k, s)) c.ch_ins);
  Fmt.pf ppf "~outputs:[ Ir.output \"y\" %a ]@," pp_ty (sty_ty c.ch_out);
  Fmt.pf ppf "~data:[ %a ]@,"
    Fmt.(
      list ~sep:(any "; ") (fun ppf (k, (s, init)) ->
          Fmt.pf ppf "Ir.state %S %a %a" (chart_data_name k) pp_ty (sty_ty s)
            pp_value init))
    (List.mapi (fun k d -> (k, d)) c.ch_data);
  Fmt.pf ppf "@[<v 2>(Stateflow.Chart.region ~initial:%S@,"
    (chart_state_name c.ch_init);
  Fmt.pf ppf "~transitions:@[<v 2>[ %a ]@]@,"
    Fmt.(
      list ~sep:(any ";@,") (fun ppf t ->
          Fmt.pf ppf "Stateflow.Chart.trans ~guard:%a ~action:%a %S %S" pp_ir_expr
            (ir_of_cexpr t.ct_guard) pp_actions t.ct_acts
            (chart_state_name t.ct_src) (chart_state_name t.ct_dst)))
    c.ch_trans;
  Fmt.pf ppf "@[<v 2>[ %a ])@]@]@]"
    Fmt.(
      list ~sep:(any ";@,") (fun ppf (k, st) ->
          Fmt.pf ppf "Stateflow.Chart.state ~entry:%a ~during:%a %S" pp_actions
            st.cs_entry pp_actions st.cs_during (chart_state_name k)))
    (Array.to_list (Array.mapi (fun k st -> (k, st)) c.ch_states))

let rec pp_node_build ~b ~var ppf ((nodes : node array), (node : node)) =
  let n j = var j in
  match node.n_kind with
  | In name -> Fmt.pf ppf "Builder.inport %s %S %a" b name pp_ty (sty_ty node.n_sty)
  | Const v -> Fmt.pf ppf "Builder.const %s %a" b pp_value v
  | Copy j -> (
    match node.n_sty with
    | S_bool -> Fmt.pf ppf "Builder.or_ %s [ %s ]" b (n j)
    | _ -> Fmt.pf ppf "Builder.gain %s 1.0 %s" b (n j))
  | Gain (g, j) -> Fmt.pf ppf "Builder.gain %s %s %s" b (float_lit g) (n j)
  | Abs j -> Fmt.pf ppf "Builder.abs_ %s %s" b (n j)
  | Saturate (lo, hi, j) ->
    Fmt.pf ppf "Builder.saturation %s ~lower:%s ~upper:%s %s" b (float_lit lo)
      (float_lit hi) (n j)
  | Arith (op, x, y) -> (
    match op with
    | A_add -> Fmt.pf ppf "Builder.sum %s [ %s; %s ]" b (n x) (n y)
    | A_sub -> Fmt.pf ppf "Builder.diff %s %s %s" b (n x) (n y)
    | A_mul -> Fmt.pf ppf "Builder.prod %s [ %s; %s ]" b (n x) (n y)
    | A_min -> Fmt.pf ppf "Builder.min_ %s [ %s; %s ]" b (n x) (n y)
    | A_max -> Fmt.pf ppf "Builder.max_ %s [ %s; %s ]" b (n x) (n y))
  | Guard_div (x, y) ->
    let one =
      match nodes.(y).n_sty with
      | S_int -> Fmt.str "Builder.const_i %s 1" b
      | _ -> Fmt.str "Builder.const_r %s 1.0" b
    in
    Fmt.pf ppf "Builder.divide %s %s (Builder.max_ %s [ Builder.abs_ %s %s; %s ])"
      b (n x) b b (n y) one
  | Cmp (op, x, y) ->
    Fmt.pf ppf "Builder.relational %s %s %s %s" b (cmp_lit op) (n x) (n y)
  | Cmp_const (op, t, j) ->
    Fmt.pf ppf "Builder.compare_const %s %s %s %s" b (cmp_lit op) (float_lit t) (n j)
  | Not j -> Fmt.pf ppf "Builder.not_ %s %s" b (n j)
  | Logic (op, js) ->
    let f = match op with `And -> "and_" | `Or -> "or_" | `Xor -> "xor_" in
    Fmt.pf ppf "Builder.%s %s [ %s ]" f b (String.concat "; " (List.map n js))
  | Switch s ->
    Fmt.pf ppf
      "Builder.switch %s ~cmp:%s ~threshold:%s ~data1:%s ~control:%s ~data2:%s ()"
      b (cmp_lit s.cmp) (float_lit s.threshold) (n s.data1) (n s.control)
      (n s.data2)
  | Multiport m ->
    Fmt.pf ppf "Builder.multiport %s ~selector:%s [ %s ] ~default:%s" b
      (n m.selector)
      (String.concat "; "
         (List.map (fun (l, j) -> Fmt.str "(%d, %s)" l (n j)) m.cases))
      (n m.default)
  | Unit_delay (init, j) ->
    Fmt.pf ppf "Builder.unit_delay %s %a %s" b pp_value init (n j)
  | Delay (init, len, j) ->
    Fmt.pf ppf "Builder.delay %s ~initial:%a ~length:%d %s" b pp_value init len (n j)
  | Integrator { initial; igain; src } ->
    Fmt.pf ppf
      "Builder.integrator %s ~gain:%s ~lower:(-100.0) ~upper:100.0 ~initial:%s %s"
      b (float_lit igain) (float_lit initial) (n src)
  | Counter { initial; modulo } ->
    Fmt.pf ppf "Builder.counter %s ~initial:%d ~modulo:%d ()" b initial modulo
  | Ds_read k -> Fmt.pf ppf "Builder.ds_read %s %S" b (store_name k)
  | Chart (c, ins) ->
    Fmt.pf ppf
      "(match Builder.chart %s (Stateflow.Sf_compile.compile@ (%a))@ [ %s ] with@ \
       | [ w ] -> w | _ -> assert false)"
      b pp_chart_expr c
      (String.concat "; " (List.map n ins))
  | Sub_if { cond; ins; then_; else_ } ->
    Fmt.pf ppf
      "(match Builder.if_else %s ~then_sys:%a ~else_sys:%a ~cond:%s [ %s ] with@ \
       | [ w ] -> w | _ -> assert false)"
      b pp_sub_expr then_ pp_sub_expr else_ (n cond)
      (String.concat "; " (List.map n ins))
  | Sub_enabled { enable; held; ins; sub } ->
    Fmt.pf ppf
      "(match Builder.enabled %s ~held:%b %a ~enable:%s [ %s ] with@ | [ w ] -> w \
       | _ -> assert false)"
      b held pp_sub_expr sub (n enable)
      (String.concat "; " (List.map n ins))

and pp_sub_expr ppf (ss : subspec) =
  let b = "sb" in
  let var j = "m" ^ string_of_int j in
  Fmt.pf ppf "@[<v 2>(let %s = Builder.create %S in@," b ss.sb_name;
  Array.iteri
    (fun i node ->
      Fmt.pf ppf "let %s = %a in@," (var i) (pp_node_build ~b ~var)
        (ss.sb_nodes, node))
    ss.sb_nodes;
  Fmt.pf ppf "Builder.outport %s \"o\" %s;@," b (var ss.sb_out);
  List.iter
    (fun (k, i) ->
      Fmt.pf ppf "Builder.ds_write %s %S %s;@," b (store_name k) (var i))
    ss.sb_writes;
  Fmt.pf ppf "Builder.finish_unvalidated %s)@]" b

let pp_steps ppf steps =
  Fmt.pf ppf "@[<v 2>let steps =@,[@,";
  List.iter
    (fun row ->
      Fmt.pf ppf "  [ %a ];@,"
        Fmt.(
          list ~sep:(any "; ") (fun ppf (name, v) ->
              Fmt.pf ppf "(%S, %a)" name pp_value v))
        row)
    steps;
  Fmt.pf ppf "]@]@,in@,"

let pp_repro ppf ((m : model_spec), steps) =
  Fmt.pf ppf "@[<v>(* minimal fuzz reproducer; paste into a test *)@,";
  Fmt.pf ppf "let open Slim in@,";
  (match m with
  | M_diagram s ->
    Fmt.pf ppf "let b = Builder.create %S in@," s.sp_name;
    List.iteri
      (fun k (sty, init) ->
        Fmt.pf ppf "Builder.data_store b %S %a %a;@," (store_name k) pp_ty
          (sty_ty sty) pp_value init)
      s.sp_stores;
    let var j = "n" ^ string_of_int j in
    Array.iteri
      (fun i node ->
        Fmt.pf ppf "let %s = %a in@," (var i)
          (pp_node_build ~b:"b" ~var)
          (s.sp_nodes, node))
      s.sp_nodes;
    List.iteri
      (fun k i -> Fmt.pf ppf "Builder.outport b \"o%d\" %s;@," k (var i))
      s.sp_outs;
    List.iter
      (fun (k, i) ->
        Fmt.pf ppf "Builder.ds_write b %S %s;@," (store_name k) (var i))
      s.sp_writes;
    Fmt.pf ppf "let prog = Compile.to_program (Builder.finish b) in@,"
  | M_chart c ->
    Fmt.pf ppf "let prog = Stateflow.Sf_compile.to_program@ (%a)@,in@,"
      pp_chart_expr c);
  pp_steps ppf steps;
  Fmt.pf ppf "ignore (prog, steps)@]"
