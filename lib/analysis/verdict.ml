module Branch = Slim.Branch
module I = Solver.Interval

let tel_dead = Telemetry.Counter.make "analysis.verdict.dead"
let tel_reachable = Telemetry.Counter.make "analysis.verdict.reachable"
let tel_unknown = Telemetry.Counter.make "analysis.verdict.unknown"

type t = Reachable | Dead | Unknown

let pp ppf v =
  Fmt.string ppf
    (match v with
    | Reachable -> "reachable"
    | Dead -> "dead"
    | Unknown -> "unknown")

type summary = {
  v_result : Analyzer.result;
  v_branches : (Branch.key * t) list;
  v_conditions : ((int * int * bool) * t) list;
  v_mcdc : ((int * int) * t) list;
}

let b3_constant (b : I.bool3) = not (b.bt && b.bf)
let b3_excludes (b : I.bool3) value = if value then not b.bt else not b.bf
let b3_forced (b : I.bool3) value = if value then not b.bf else not b.bt

let of_result (r : Analyzer.result) : summary =
  let crit = Coverage.Criteria.of_program r.r_prog in
  let v_branches =
    List.map
      (fun (b : Branch.t) ->
        let v =
          match Analyzer.branch_reach r b.key with
          | Analyzer.Never -> Dead
          | Analyzer.Must -> Reachable
          | Analyzer.May -> Unknown
        in
        (b.key, v))
      crit.branches
  in
  let v_conditions, v_mcdc =
    List.fold_left
      (fun (conds, mcdc) (d : Coverage.Criteria.decision_info) ->
        if d.d_atom_count = 0 then (conds, mcdc)
        else
          match Analyzer.guard_fact r d.d_id with
          | None -> (conds, mcdc)
          | Some gf ->
            let dead_decision = gf.g_reach = Analyzer.Never in
            let conds = ref conds and mcdc = ref mcdc in
            for i = 0 to d.d_atom_count - 1 do
              let atom = gf.g_atoms.(i) in
              List.iter
                (fun value ->
                  let v =
                    if dead_decision || b3_excludes atom value then Dead
                    else if gf.g_reach = Analyzer.Must && b3_forced atom value
                    then Reachable
                    else Unknown
                  in
                  conds := ((d.d_id, i, value), v) :: !conds)
                [ true; false ];
              let mv =
                if dead_decision || b3_constant atom || b3_constant gf.g_val
                then Dead
                else Unknown
              in
              mcdc := ((d.d_id, i), mv) :: !mcdc
            done;
            (!conds, !mcdc))
      ([], []) crit.decisions
  in
  let s =
    {
      v_result = r;
      v_branches;
      v_conditions = List.rev v_conditions;
      v_mcdc = List.rev v_mcdc;
    }
  in
  let bump = function
    | Dead -> Telemetry.Counter.incr tel_dead
    | Reachable -> Telemetry.Counter.incr tel_reachable
    | Unknown -> Telemetry.Counter.incr tel_unknown
  in
  List.iter (fun (_, v) -> bump v) s.v_branches;
  List.iter (fun (_, v) -> bump v) s.v_conditions;
  List.iter (fun (_, v) -> bump v) s.v_mcdc;
  s

let of_program ?config prog = of_result (Analyzer.analyze ?config prog)

let branch s key =
  match
    List.find_opt (fun (k, _) -> Branch.equal_key k key) s.v_branches
  with
  | Some (_, v) -> v
  | None -> Unknown

let condition s d i value =
  match List.assoc_opt (d, i, value) s.v_conditions with
  | Some v -> v
  | None -> Unknown

let mcdc s d i =
  match List.assoc_opt (d, i) s.v_mcdc with Some v -> v | None -> Unknown

let keep verdict l = List.filter_map (fun (k, v) -> if v = verdict then Some k else None) l
let dead_branches s = keep Dead s.v_branches
let dead_conditions s = keep Dead s.v_conditions
let dead_mcdc s = keep Dead s.v_mcdc

let counts s v =
  let c l = List.length (keep v l) in
  (c s.v_branches, c s.v_conditions, c s.v_mcdc)
