type 'a t = {
  mutable data : 'a array;  (* physical storage, length >= len *)
  mutable len : int;
}

let create () = { data = [||]; len = 0 }
let length t = t.len

let push t x =
  let cap = Array.length t.data in
  if t.len = cap then begin
    let cap' = if cap = 0 then 8 else 2 * cap in
    (* [x] seeds the fresh slots; they are overwritten before any read
       because [get] bounds-checks against [len] *)
    let data' = Array.make cap' x in
    Array.blit t.data 0 data' 0 t.len;
    t.data <- data'
  end;
  t.data.(t.len) <- x;
  t.len <- t.len + 1

let get t i =
  if i < 0 || i >= t.len then invalid_arg "Dynarr.get";
  t.data.(i)

let set t i x =
  if i < 0 || i >= t.len then invalid_arg "Dynarr.set";
  t.data.(i) <- x
