(* The coverage tracker as it was before the objective index: name-keyed
   sets and tables, and no mark.  Kept verbatim as an independent
   reference for the differential property in test_coverage.ml. *)

module Criteria = Coverage.Criteria

module Exec = Slim.Exec
module Branch = Slim.Branch

(* Observed condition vectors are interned per decision as strings of
   'T'/'F' so the set stays small and hashable. *)
let key_of_vector (v : bool array) =
  String.init (Array.length v) (fun i -> if v.(i) then 'T' else 'F')

let vector_of_key s =
  Array.init (String.length s) (fun i -> s.[i] = 'T')

type t = {
  criteria : Criteria.t;
  info : (int, Criteria.decision_info) Hashtbl.t;
  mutable branches : Branch.Key_set.t;
  cond_seen : (int * int * bool, unit) Hashtbl.t;
  vectors : (int, (string, bool) Hashtbl.t) Hashtbl.t;
      (* decision id -> vector key -> outcome *)
  mutable progress : int;
      (* bumped whenever genuinely new information arrives *)
  (* objectives justified by static analysis (proven dead): excluded
     from denominators and from the uncovered lists, mirroring
     SLDV-style dead-logic justification *)
  mutable j_branches : Branch.Key_set.t;
  mutable j_conds : (int * int * bool) list;
  mutable j_mcdc : (int * int) list;
}

let create prog =
  let criteria = Criteria.of_program prog in
  let info = Hashtbl.create 64 in
  List.iter
    (fun (d : Criteria.decision_info) -> Hashtbl.replace info d.d_id d)
    criteria.decisions;
  {
    criteria;
    info;
    branches = Branch.Key_set.empty;
    cond_seen = Hashtbl.create 256;
    vectors = Hashtbl.create 64;
    progress = 0;
    j_branches = Branch.Key_set.empty;
    j_conds = [];
    j_mcdc = [];
  }

let criteria t = t.criteria

let set_justified t ~branches ~conditions ~mcdc =
  t.j_branches <- Branch.Key_set.of_list branches;
  t.j_conds <- List.sort_uniq compare conditions;
  t.j_mcdc <- List.sort_uniq compare mcdc;
  t.progress <- t.progress + 1

let justified_counts t =
  (Branch.Key_set.cardinal t.j_branches, List.length t.j_conds,
   List.length t.j_mcdc)

let observe t = function
  | Exec.Branch_hit key ->
    if not (Branch.Key_set.mem key t.branches) then begin
      t.branches <- Branch.Key_set.add key t.branches;
      t.progress <- t.progress + 1
    end
  | Exec.Cond_vector { id; vector; outcome } ->
    Array.iteri
      (fun i b ->
        if not (Hashtbl.mem t.cond_seen (id, i, b)) then begin
          Hashtbl.replace t.cond_seen (id, i, b) ();
          t.progress <- t.progress + 1
        end)
      vector;
    let tbl =
      match Hashtbl.find_opt t.vectors id with
      | Some tbl -> tbl
      | None ->
        let tbl = Hashtbl.create 8 in
        Hashtbl.replace t.vectors id tbl;
        tbl
    in
    let vk = key_of_vector vector in
    if not (Hashtbl.mem tbl vk) then begin
      Hashtbl.replace tbl vk outcome;
      t.progress <- t.progress + 1
    end

let progress t = t.progress

let covered_branches t = t.branches
let is_branch_covered t key = Branch.Key_set.mem key t.branches

type ratio = { covered : int; total : int }

let pct r = if r.total = 0 then 100.0 else 100.0 *. float r.covered /. float r.total

let decision t =
  { covered = Branch.Key_set.cardinal (Branch.Key_set.diff t.branches t.j_branches);
    total = t.criteria.decision_total - Branch.Key_set.cardinal t.j_branches }

let condition t =
  let covered =
    Hashtbl.fold
      (fun k () acc -> if List.mem k t.j_conds then acc else acc + 1)
      t.cond_seen 0
  in
  { covered; total = t.criteria.condition_total - List.length t.j_conds }

let mcdc t =
  let covered = ref 0 in
  List.iter
    (fun (d : Criteria.decision_info) ->
      if d.d_atom_count > 0 then begin
        let observed =
          match Hashtbl.find_opt t.vectors d.d_id with
          | None -> []
          | Some tbl ->
            Hashtbl.fold (fun k o acc -> (vector_of_key k, o) :: acc) tbl []
        in
        for i = 0 to d.d_atom_count - 1 do
          if not (List.mem (d.d_id, i) t.j_mcdc) then
            let ok =
              List.exists
                (fun p1 ->
                  List.exists
                    (fun p2 -> Criteria.mcdc_pair_ok d.d_fn i p1 p2)
                    observed)
                observed
            in
            if ok then incr covered
        done
      end)
    t.criteria.decisions;
  { covered = !covered; total = t.criteria.mcdc_total - List.length t.j_mcdc }

let is_condition_covered t decision atom value =
  Hashtbl.mem t.cond_seen (decision, atom, value)

let observed_vectors t decision =
  match Hashtbl.find_opt t.vectors decision with
  | None -> []
  | Some tbl ->
    Hashtbl.fold (fun k o acc -> (vector_of_key k, o) :: acc) tbl []

let find_decision t id = Hashtbl.find_opt t.info id

let uncovered_mcdc t =
  List.concat_map
    (fun (d : Criteria.decision_info) ->
      if d.d_atom_count = 0 then []
      else begin
        let observed = observed_vectors t d.d_id in
        List.filter_map
          (fun i ->
            if List.mem (d.d_id, i) t.j_mcdc then None
            else
              let ok =
                List.exists
                  (fun p1 ->
                    List.exists
                      (fun p2 -> Criteria.mcdc_pair_ok d.d_fn i p1 p2)
                      observed)
                  observed
              in
              if ok then None else Some (d.d_id, i))
          (List.init d.d_atom_count Fun.id)
      end)
    t.criteria.decisions

let uncovered_branches t =
  List.filter
    (fun (b : Branch.t) ->
      (not (Branch.Key_set.mem b.key t.branches))
      && not (Branch.Key_set.mem b.key t.j_branches))
    t.criteria.branches

let fully_covered t =
  let d = decision t in
  d.covered = d.total

let copy t =
  {
    criteria = t.criteria;
    info = t.info;
    branches = t.branches;
    cond_seen = Hashtbl.copy t.cond_seen;
    vectors =
      (let v = Hashtbl.create (Hashtbl.length t.vectors) in
       Hashtbl.iter (fun k tbl -> Hashtbl.replace v k (Hashtbl.copy tbl)) t.vectors;
       v);
    progress = t.progress;
    j_branches = t.j_branches;
    j_conds = t.j_conds;
    j_mcdc = t.j_mcdc;
  }

let pp_summary ppf t =
  let d = decision t and c = condition t and m = mcdc t in
  Fmt.pf ppf "decision %d/%d (%.1f%%)  condition %d/%d (%.1f%%)  mcdc %d/%d (%.1f%%)"
    d.covered d.total (pct d) c.covered c.total (pct c) m.covered m.total
    (pct m);
  let jb, jc, jm = justified_counts t in
  if jb + jc + jm > 0 then
    Fmt.pf ppf "  justified (%d,%d,%d)" jb jc jm
