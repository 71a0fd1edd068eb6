module Exec = Slim.Exec
module Branch = Slim.Branch

(* Layout.  Objectives are numbered by the program's objective index
   (see {!Slim.Exec.branch_id}): branches, condition outcomes and MC/DC
   pairs each live in a bitset, and the condition vectors of each
   decision in one table keyed by the vector.  Observing an event that
   adds nothing allocates nothing.  Covered branches are also logged in
   the order they were first covered, so the branches a step (or a
   sequence of steps) covered are a slice of that log: a [mark] is the
   log length when it was taken. *)

module Bits = struct
  let create n = Bytes.make ((n + 7) lsr 3) '\000'
  let mem b i = Char.code (Bytes.get b (i lsr 3)) land (1 lsl (i land 7)) <> 0

  let add b i =
    let c = Char.code (Bytes.get b (i lsr 3)) in
    Bytes.set b (i lsr 3) (Char.unsafe_chr (c lor (1 lsl (i land 7))))

  (* members of [b] below [n] that are not in [j] *)
  let count_without b j n =
    let c = ref 0 in
    for i = 0 to n - 1 do
      if mem b i && not (mem j i) then incr c
    done;
    !c
end

(* The hash reads the vector in place and a bucket hit is confirmed
   element by element, so a probe allocates nothing at any width. *)
module Vec_tbl = Hashtbl.Make (struct
  type t = bool array

  let equal (a : t) (b : t) =
    let n = Array.length a in
    let same = ref (n = Array.length b) in
    let i = ref 0 in
    while !same && !i < n do
      same := Bool.equal a.(!i) b.(!i);
      incr i
    done;
    !same

  let hash (v : t) =
    let h = ref (Array.length v) in
    for i = 0 to Array.length v - 1 do
      h := (!h * 31) + Bool.to_int v.(i)
    done;
    !h land max_int
end)

type entry = {
  vec : bool array;  (** the tracker's own copy *)
  out : bool;
  legacy_hash : int;
      (** hash of the vector's 'T'/'F' string, which fixes the order of
          {!observed_vectors} *)
}

type vectors = {
  seen : unit Vec_tbl.t;
  mutable entries : entry list;  (** newest first *)
  mutable count : int;
}

(* Shared by every decision with no observed vector yet; never
   written. *)
let no_vectors = { seen = Vec_tbl.create 1; entries = []; count = 0 }

type t = {
  criteria : Criteria.t;
  ex : Exec.t;
  decisions : Criteria.decision_info array;  (** by decision position *)
  keys : Branch.key array;  (** by branch id *)
  mutable branches : Branch.Key_set.t;
  b_bits : Bytes.t;
  log : int array;  (** branch ids in the order first covered *)
  mutable n_covered : int;
  c_bits : Bytes.t;  (** condition outcomes observed *)
  m_bits : Bytes.t;  (** MC/DC pairs shown *)
  vectors : vectors array;  (** by decision position *)
  mutable progress : int;
      (* bumped whenever genuinely new information arrives *)
  (* objectives justified by static analysis (proven dead): excluded
     from denominators and from the uncovered lists, mirroring
     SLDV-style dead-logic justification.  The counts are of the
     distinct objectives given, as the denominators subtract them. *)
  mutable jb_bits : Bytes.t;
  mutable jc_bits : Bytes.t;
  mutable jm_bits : Bytes.t;
  mutable j_counts : int * int * int;
}

let create prog =
  let criteria = Criteria.of_program prog in
  let ex = Exec.handle prog in
  let nb = Exec.n_branches ex and na = Exec.n_atoms ex in
  {
    criteria;
    ex;
    decisions = Array.of_list criteria.decisions;
    keys = Array.of_list (List.map (fun (b : Branch.t) -> b.key) criteria.branches);
    branches = Branch.Key_set.empty;
    b_bits = Bits.create nb;
    log = Array.make nb 0;
    n_covered = 0;
    c_bits = Bits.create (2 * na);
    m_bits = Bits.create na;
    vectors = Array.make (Exec.n_decisions ex) no_vectors;
    progress = 0;
    jb_bits = Bits.create nb;
    jc_bits = Bits.create (2 * na);
    jm_bits = Bits.create na;
    j_counts = (0, 0, 0);
  }

let criteria t = t.criteria

(* Ids of the objectives the program has; entries it does not have
   still count as justified in the denominators, as they always did. *)
let bits_of n id l =
  let b = Bits.create n in
  List.iter
    (fun x ->
      match id x with
      | i -> Bits.add b i
      | exception (Not_found | Invalid_argument _) -> ())
    l;
  b

let set_justified t ~branches ~conditions ~mcdc =
  let nb = Exec.n_branches t.ex and na = Exec.n_atoms t.ex in
  t.jb_bits <- bits_of nb (Exec.branch_id t.ex) branches;
  t.jc_bits <-
    bits_of (2 * na) (fun (d, a, v) -> Exec.condition_id t.ex d a v) conditions;
  t.jm_bits <- bits_of na (fun (d, a) -> Exec.mcdc_id t.ex d a) mcdc;
  t.j_counts <-
    ( Branch.Key_set.cardinal (Branch.Key_set.of_list branches),
      List.length (List.sort_uniq compare conditions),
      List.length (List.sort_uniq compare mcdc) );
  t.progress <- t.progress + 1

let justified_counts t = t.j_counts

let legacy_hash v =
  Hashtbl.hash (String.init (Array.length v) (fun i -> if v.(i) then 'T' else 'F'))

(* A new vector of the decision at [pos]: pair it with every earlier
   one to see which MC/DC pairs it shows, then store a copy. *)
let add_vector t pos vector outcome =
  let vs =
    match t.vectors.(pos) with
    | vs when vs == no_vectors ->
      let vs = { seen = Vec_tbl.create 8; entries = []; count = 0 } in
      t.vectors.(pos) <- vs;
      vs
    | vs -> vs
  in
  let vec = Array.copy vector in
  let d = t.decisions.(pos) in
  let base = Exec.atom_base t.ex pos in
  for i = 0 to Array.length vec - 1 do
    if
      (not (Bits.mem t.m_bits (base + i)))
      && List.exists
           (fun e -> Criteria.mcdc_pair_ok d.d_fn i (vec, outcome) (e.vec, e.out))
           vs.entries
    then Bits.add t.m_bits (base + i)
  done;
  Vec_tbl.replace vs.seen vec ();
  vs.entries <- { vec; out = outcome; legacy_hash = legacy_hash vec } :: vs.entries;
  vs.count <- vs.count + 1;
  t.progress <- t.progress + 1

let observe t = function
  | Exec.Branch_hit key ->
    let b =
      match Exec.branch_id t.ex key with
      | b -> b
      | exception Not_found -> invalid_arg "Tracker.observe: unknown branch"
    in
    if not (Bits.mem t.b_bits b) then begin
      Bits.add t.b_bits b;
      t.branches <- Branch.Key_set.add key t.branches;
      t.log.(t.n_covered) <- b;
      t.n_covered <- t.n_covered + 1;
      t.progress <- t.progress + 1
    end
  | Exec.Cond_vector { id; vector; outcome } ->
    let pos =
      match Exec.decision_pos t.ex id with
      | p -> p
      | exception Not_found -> invalid_arg "Tracker.observe: unknown decision"
    in
    let base = Exec.atom_base t.ex pos in
    if Array.length vector <> Exec.atom_base t.ex (pos + 1) - base then
      invalid_arg "Tracker.observe: condition vector width";
    for i = 0 to Array.length vector - 1 do
      let c = (2 * (base + i)) + Bool.to_int vector.(i) in
      if not (Bits.mem t.c_bits c) then begin
        Bits.add t.c_bits c;
        t.progress <- t.progress + 1
      end
    done;
    if not (Vec_tbl.mem t.vectors.(pos).seen vector) then
      add_vector t pos vector outcome

let progress t = t.progress

type mark = int

let mark t = t.n_covered

let fresh_since t m =
  let s = ref Branch.Key_set.empty in
  for i = m to t.n_covered - 1 do
    s := Branch.Key_set.add t.keys.(t.log.(i)) !s
  done;
  !s

let covered_branches t = t.branches

let is_branch_covered t key =
  match Exec.branch_id t.ex key with
  | b -> Bits.mem t.b_bits b
  | exception Not_found -> false

type ratio = { covered : int; total : int }

let pct r = if r.total = 0 then 100.0 else 100.0 *. float r.covered /. float r.total

let decision t =
  let jb, _, _ = t.j_counts in
  { covered = Bits.count_without t.b_bits t.jb_bits (Exec.n_branches t.ex);
    total = t.criteria.decision_total - jb }

let condition t =
  let _, jc, _ = t.j_counts in
  { covered = Bits.count_without t.c_bits t.jc_bits (2 * Exec.n_atoms t.ex);
    total = t.criteria.condition_total - jc }

let mcdc t =
  let _, _, jm = t.j_counts in
  { covered = Bits.count_without t.m_bits t.jm_bits (Exec.n_atoms t.ex);
    total = t.criteria.mcdc_total - jm }

let is_condition_covered t decision atom value =
  match Exec.condition_id t.ex decision atom value with
  | c -> Bits.mem t.c_bits c
  | exception (Not_found | Invalid_argument _) -> false

let vectors_of t decision =
  match Exec.decision_pos t.ex decision with
  | p -> t.vectors.(p)
  | exception Not_found -> no_vectors

let is_vector_observed t decision vector =
  Vec_tbl.mem (vectors_of t decision).seen vector

(* Fresh copies, in the order the former string-keyed table
   ([Hashtbl.create 8], 'T'/'F' keys) folded them into a list: by
   bucket, last bucket first, oldest first within a bucket.  The
   dynamic MC/DC sweep proposes flips in this order, so the solves and
   test cases of a run depend on it. *)
let observed_vectors t decision =
  let vs = vectors_of t decision in
  let rec buckets b = if vs.count > 2 * b then buckets (2 * b) else b in
  let mask = buckets 16 - 1 in
  List.rev vs.entries
  |> List.stable_sort (fun a b ->
         Int.compare (b.legacy_hash land mask) (a.legacy_hash land mask))
  |> List.map (fun e -> (Array.copy e.vec, e.out))

let uncovered_mcdc t =
  List.concat
    (List.mapi
       (fun pos (d : Criteria.decision_info) ->
         let base = Exec.atom_base t.ex pos in
         List.filter_map
           (fun i ->
             if Bits.mem t.m_bits (base + i) || Bits.mem t.jm_bits (base + i)
             then None
             else Some (d.d_id, i))
           (List.init d.d_atom_count Fun.id))
       t.criteria.decisions)

let uncovered_branches t =
  List.filter
    (fun (b : Branch.t) ->
      let i = Exec.branch_id t.ex b.key in
      not (Bits.mem t.b_bits i || Bits.mem t.jb_bits i))
    t.criteria.branches

let fully_covered t =
  let d = decision t in
  d.covered = d.total

let copy t =
  {
    t with
    b_bits = Bytes.copy t.b_bits;
    log = Array.copy t.log;
    c_bits = Bytes.copy t.c_bits;
    m_bits = Bytes.copy t.m_bits;
    vectors =
      Array.map
        (fun vs ->
          if vs == no_vectors then vs
          else { vs with seen = Vec_tbl.copy vs.seen })
        t.vectors;
  }

let pp_summary ppf t =
  let d = decision t and c = condition t and m = mcdc t in
  Fmt.pf ppf "decision %d/%d (%.1f%%)  condition %d/%d (%.1f%%)  mcdc %d/%d (%.1f%%)"
    d.covered d.total (pct d) c.covered c.total (pct c) m.covered m.total
    (pct m);
  let jb, jc, jm = justified_counts t in
  if jb + jc + jm > 0 then
    Fmt.pf ppf "  justified (%d,%d,%d)" jb jc jm
