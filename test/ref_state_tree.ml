(* The state tree as it was before its array-backed layout: nodes in a
   list and an id table, children in a table of lists, and an intern
   table of hash buckets.  Kept verbatim as an independent reference
   for the differential property in test_engine.ml. *)

module Exec = Slim.Exec
module Iset = Set.Make (Int)

type node = {
  id : int;
  parent : int option;
  state : Exec.state;
  state_uid : int;
  input : Exec.inputs option;
  depth : int;
  mutable solved : Iset.t;
}

type t = {
  exec : Exec.t;
  mutable nodes_rev : node list;
  mutable count : int;
  children : (int, int list ref) Hashtbl.t;
  by_id : (int, node) Hashtbl.t;
  intern : (int, (Exec.state * int) list ref) Hashtbl.t;
      (* structural hash -> (state, uid) bucket; two states get the same
         uid iff they are [Exec.state_equal] *)
  mutable distinct : int;
}

(* Map a snapshot to a small integer uid, unique per distinct state.  Uids
   make dedup (here) and solver caching (Engine) O(1) comparisons instead
   of structural equality walks or serialized-string keys. *)
let intern_state t state =
  let h = Exec.state_hash state in
  match Hashtbl.find_opt t.intern h with
  | None ->
    let uid = t.distinct in
    t.distinct <- uid + 1;
    Hashtbl.replace t.intern h (ref [ (state, uid) ]);
    uid
  | Some bucket ->
    (match List.find_opt (fun (s, _) -> Exec.state_equal s state) !bucket with
     | Some (_, uid) -> uid
     | None ->
       let uid = t.distinct in
       t.distinct <- uid + 1;
       bucket := (state, uid) :: !bucket;
       uid)

let create prog =
  let exec = Exec.handle prog in
  let t =
    {
      exec;
      nodes_rev = [];
      count = 0;
      children = Hashtbl.create 64;
      by_id = Hashtbl.create 64;
      intern = Hashtbl.create 256;
      distinct = 0;
    }
  in
  let state = Exec.initial_state exec in
  let root =
    {
      id = 0;
      parent = None;
      state;
      state_uid = intern_state t state;
      input = None;
      depth = 0;
      solved = Iset.empty;
    }
  in
  t.nodes_rev <- [ root ];
  t.count <- 1;
  Hashtbl.replace t.by_id 0 root;
  t

let exec t = t.exec
let root t = Hashtbl.find t.by_id 0
let node t id = Hashtbl.find t.by_id id
let size t = t.count
let nodes t = List.rev t.nodes_rev

let children_of t id =
  match Hashtbl.find_opt t.children id with
  | Some l -> !l
  | None -> []

let add_child t ~parent ~input state =
  let uid = intern_state t state in
  if uid = parent.state_uid then (parent, false)
  else
    let existing =
      List.find_opt
        (fun cid -> (node t cid).state_uid = uid)
        (children_of t parent.id)
    in
    match existing with
    | Some cid -> (node t cid, false)
    | None ->
      let n =
        {
          id = t.count;
          parent = Some parent.id;
          state;
          state_uid = uid;
          input = Some input;
          depth = parent.depth + 1;
          solved = Iset.empty;
        }
      in
      t.count <- t.count + 1;
      t.nodes_rev <- n :: t.nodes_rev;
      Hashtbl.replace t.by_id n.id n;
      (match Hashtbl.find_opt t.children parent.id with
       | Some l -> l := n.id :: !l
       | None -> Hashtbl.replace t.children parent.id (ref [ n.id ]));
      (n, true)

let path_inputs t n =
  let rec go acc n =
    match n.parent, n.input with
    | None, _ -> acc
    | Some pid, Some input -> go (input :: acc) (node t pid)
    | Some pid, None -> go acc (node t pid)
  in
  go [] n

let random_node t rng =
  let k = Random.State.int rng t.count in
  node t k

let mark_solved n key = n.solved <- Iset.add key n.solved
let is_solved n key = Iset.mem key n.solved

let distinct_states t = t.distinct

let pp ppf t =
  let rec render indent id =
    let n = node t id in
    Fmt.pf ppf "%sS%d" indent n.id;
    (match n.input with
     | Some input -> Fmt.pf ppf "  <- %a" (Exec.pp_inputs t.exec) input
     | None -> Fmt.pf ppf "  (initial state)");
    Fmt.pf ppf "@,";
    List.iter (render (indent ^ "  ")) (List.rev (children_of t id))
  in
  Fmt.pf ppf "@[<v>";
  render "" 0;
  Fmt.pf ppf "@]"
