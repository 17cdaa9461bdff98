(* Array-backed binary heap. Each entry carries an insertion sequence
   number; comparison is (priority, seq), making equal-priority pops
   FIFO and the whole structure deterministic.

   Entries live in three parallel columns, so a push allocates nothing
   beyond growth and a sift moves an unboxed float and an int. Sifts
   move a hole but make the comparisons a swap-based sift makes, in the
   same order, so the layout and every pop are those of the textbook
   heap even for priorities that do not compare (nan). *)

type 'a t = {
  mutable prio : float array;
  mutable seq : int array;
  mutable value : 'a array;
  mutable size : int;
  mutable next_seq : int;
}

let create () =
  { prio = [||]; seq = [||]; value = [||]; size = 0; next_seq = 0 }


(* The sifts are plain loops over local refs: no closure, and the
   moving entry's priority stays an unboxed local. *)

let[@inline] move t ~src ~dst =
  Array.unsafe_set t.prio dst (Array.unsafe_get t.prio src);
  Array.unsafe_set t.seq dst (Array.unsafe_get t.seq src);
  Array.unsafe_set t.value dst (Array.unsafe_get t.value src)

(* Place the entry (p, s, v) at or above the hole [i]. *)
let sift_up t i p s v =
  let i = ref i and moving = ref true in
  while !moving && !i > 0 do
    let parent = (!i - 1) / 2 in
    let pp = Array.unsafe_get t.prio parent in
    if p < pp || (p = pp && s < Array.unsafe_get t.seq parent) then begin
      move t ~src:parent ~dst:!i;
      i := parent
    end
    else moving := false
  done;
  Array.unsafe_set t.prio !i p;
  Array.unsafe_set t.seq !i s;
  Array.unsafe_set t.value !i v

(* Place the entry at slot [src] (outside the live prefix) at or below
   the hole [i]. The left child is tested against the entry, then the
   right child against the winner so far, as a swap-based sift does. *)
let sift_down t i ~src =
  let p = Array.unsafe_get t.prio src and s = Array.unsafe_get t.seq src in
  let v = Array.unsafe_get t.value src in
  let n = t.size in
  let i = ref i and moving = ref true in
  while !moving && (2 * !i) + 1 < n do
    let l = (2 * !i) + 1 in
    let lp = Array.unsafe_get t.prio l and ls = Array.unsafe_get t.seq l in
    let c = ref (if lp < p || (lp = p && ls < s) then l else -1) in
    let r = l + 1 in
    if r < n then begin
      let rp = Array.unsafe_get t.prio r and rs = Array.unsafe_get t.seq r in
      if
        if !c < 0 then rp < p || (rp = p && rs < s)
        else rp < lp || (rp = lp && rs < ls)
      then c := r
    end;
    if !c < 0 then moving := false
    else begin
      move t ~src:!c ~dst:!i;
      i := !c
    end
  done;
  Array.unsafe_set t.prio !i p;
  Array.unsafe_set t.seq !i s;
  Array.unsafe_set t.value !i v

let grow t v =
  let cap = max 16 (2 * t.size) in
  let prio = Array.make cap 0.0 and seq = Array.make cap 0 in
  let value = Array.make cap v in
  Array.blit t.prio 0 prio 0 t.size;
  Array.blit t.seq 0 seq 0 t.size;
  Array.blit t.value 0 value 0 t.size;
  t.prio <- prio;
  t.seq <- seq;
  t.value <- value

let push t prio value =
  let s = t.next_seq in
  t.next_seq <- s + 1;
  if t.size = Array.length t.prio then grow t value;
  let i = t.size in
  t.size <- i + 1;
  sift_up t i prio s value

let pop t =
  if t.size = 0 then None
  else begin
    let top = (t.prio.(0), t.value.(0)) in
    let n = t.size - 1 in
    t.size <- n;
    if n > 0 then sift_down t 0 ~src:n;
    Some top
  end

let peek t = if t.size = 0 then None else Some (t.prio.(0), t.value.(0))

let to_list t =
  let order = Array.init t.size Fun.id in
  Array.sort
    (fun i j ->
      match compare t.prio.(i) t.prio.(j) with
      | 0 -> compare t.seq.(i) t.seq.(j)
      | c -> c)
    order;
  Array.to_list (Array.map (fun i -> (t.prio.(i), t.value.(i))) order)
