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
  nodes : node Dynarr.t;  (* by id *)
  first_child : int Dynarr.t;  (* by id: newest child, or -1 *)
  next_sibling : int Dynarr.t;  (* by id: next older sibling, or -1 *)
  states : Exec.state Dynarr.t;  (* by uid: the first snapshot seen *)
  mutable slot_hash : int array;
  mutable slot_uid : int array;
      (* open-addressed intern table, linear probing, parallel arrays:
         slot [i] holds a uid ([-1] when empty) and that state's
         structural hash.  Two states get the same uid iff they are
         [Exec.state_equal]. *)
}

(* Spread the structural hash before masking: its low bits come from
   small float payloads and cluster. *)
let slot_of h mask = ((h * 0x1E3779B97F4A7C15) lsr 24) land mask

(* The slot holding [state], or the empty slot where it would go. *)
let rec probe t h state i =
  let uid = Array.unsafe_get t.slot_uid i in
  if
    uid < 0
    || (Array.unsafe_get t.slot_hash i = h
        && Exec.state_equal (Dynarr.get t.states uid) state)
  then i
  else probe t h state ((i + 1) land (Array.length t.slot_uid - 1))

(* Double the table; it is kept at most half full. *)
let grow t =
  let cap = 2 * Array.length t.slot_uid in
  let hashes = Array.make cap 0 and uids = Array.make cap (-1) in
  Array.iteri
    (fun i uid ->
      if uid >= 0 then begin
        let h = t.slot_hash.(i) in
        let j = ref (slot_of h (cap - 1)) in
        while uids.(!j) >= 0 do
          j := (!j + 1) land (cap - 1)
        done;
        hashes.(!j) <- h;
        uids.(!j) <- uid
      end)
    t.slot_uid;
  t.slot_hash <- hashes;
  t.slot_uid <- uids

(* Map a snapshot to a small integer uid, unique per distinct state.  Uids
   make dedup (here) and solver caching (Engine) O(1) comparisons instead
   of structural equality walks or serialized-string keys. *)
let intern_state t state =
  let h = Exec.state_hash state in
  let i = probe t h state (slot_of h (Array.length t.slot_uid - 1)) in
  if t.slot_uid.(i) >= 0 then t.slot_uid.(i)
  else begin
    let uid = Dynarr.length t.states in
    Dynarr.push t.states state;
    t.slot_hash.(i) <- h;
    t.slot_uid.(i) <- uid;
    if 2 * (uid + 1) > Array.length t.slot_uid then grow t;
    uid
  end

let push_node t n =
  Dynarr.push t.nodes n;
  Dynarr.push t.first_child (-1);
  Dynarr.push t.next_sibling (-1)

let create prog =
  let exec = Exec.handle prog in
  let t =
    {
      exec;
      nodes = Dynarr.create ();
      first_child = Dynarr.create ();
      next_sibling = Dynarr.create ();
      states = Dynarr.create ();
      slot_hash = Array.make 256 0;
      slot_uid = Array.make 256 (-1);
    }
  in
  let state = Exec.initial_state exec in
  push_node t
    {
      id = 0;
      parent = None;
      state;
      state_uid = intern_state t state;
      input = None;
      depth = 0;
      solved = Iset.empty;
    };
  t

let exec t = t.exec
let node t id = Dynarr.get t.nodes id
let root t = node t 0
let size t = Dynarr.length t.nodes
let nodes t = List.init (size t) (node t)

(* The child of [parent] whose state has [uid], or -1, walking the
   sibling links from the newest child. *)
let rec find_child t c uid =
  if c < 0 || (node t c).state_uid = uid then c
  else find_child t (Dynarr.get t.next_sibling c) uid

let add_child t ~parent ~input state =
  let uid = intern_state t state in
  if uid = parent.state_uid then (parent, false)
  else
    match find_child t (Dynarr.get t.first_child parent.id) uid with
    | -1 ->
      let n =
        {
          id = size t;
          parent = Some parent.id;
          state;
          state_uid = uid;
          input = Some input;
          depth = parent.depth + 1;
          solved = Iset.empty;
        }
      in
      push_node t n;
      Dynarr.set t.next_sibling n.id (Dynarr.get t.first_child parent.id);
      Dynarr.set t.first_child parent.id n.id;
      (n, true)
    | cid -> (node t cid, false)

let path_inputs t n =
  let rec go acc n =
    match n.parent, n.input with
    | None, _ -> acc
    | Some pid, Some input -> go (input :: acc) (node t pid)
    | Some pid, None -> go acc (node t pid)
  in
  go [] n

let random_node t rng =
  let k = Random.State.int rng (size t) in
  node t k

let mark_solved n key = n.solved <- Iset.add key n.solved
let is_solved n key = Iset.mem key n.solved

let distinct_states t = Dynarr.length t.states

let pp ppf t =
  (* children oldest first: the sibling links run newest first *)
  let rec children acc c =
    if c < 0 then acc else children (c :: acc) (Dynarr.get t.next_sibling c)
  in
  let rec render indent id =
    let n = node t id in
    Fmt.pf ppf "%sS%d" indent n.id;
    (match n.input with
     | Some input -> Fmt.pf ppf "  <- %a" (Exec.pp_inputs t.exec) input
     | None -> Fmt.pf ppf "  (initial state)");
    Fmt.pf ppf "@,";
    List.iter (render (indent ^ "  ")) (children [] (Dynarr.get t.first_child id))
  in
  Fmt.pf ppf "@[<v>";
  render "" 0;
  Fmt.pf ppf "@]"
