(* Contiguous-buffer representation: a waveform's segments live in one
   int array, each entry packing the segment's value (low 3 bits) with
   its cumulative start offset (upper bits).  [start 0 = 0] always;
   widths are recovered as start-offset differences (the last segment
   extends to the period).  Tail access, segment counts and point
   lookups (binary search) are O(1)/O(log n) instead of the old list
   walks, and a million-net design carries one small array per net
   instead of a spine of list cells. *)

type t = {
  period : Timebase.ps;
  n_segs : int; (* >= 1 *)
  segs : int array; (* length n_segs; (start lsl 3) lor value code *)
  early : Timebase.ps; (* <= 0 *)
  late : Timebase.ps; (* >= 0 *)
}

let code = function
  | Tvalue.V0 -> 0
  | Tvalue.V1 -> 1
  | Tvalue.Rise -> 2
  | Tvalue.Fall -> 3
  | Tvalue.Stable -> 4
  | Tvalue.Change -> 5
  | Tvalue.Unknown -> 6

let decode = function
  | 0 -> Tvalue.V0
  | 1 -> Tvalue.V1
  | 2 -> Tvalue.Rise
  | 3 -> Tvalue.Fall
  | 4 -> Tvalue.Stable
  | 5 -> Tvalue.Change
  | _ -> Tvalue.Unknown

let seg_code w i = w.segs.(i) land 7

let seg_val w i = decode (seg_code w i)

let seg_start w i = w.segs.(i) asr 3

let period w = w.period

let skew w = (w.early, w.late)

let n_segments w = w.n_segs

let seg_width w i =
  (if i = w.n_segs - 1 then w.period else seg_start w (i + 1)) - seg_start w i

let segments w =
  let rec go i acc =
    if i < 0 then acc else go (i - 1) ((seg_val w i, seg_width w i) :: acc)
  in
  go (w.n_segs - 1) []

let wrap p x =
  let r = x mod p in
  if r < 0 then r + p else r

(* ---- normalized construction ---------------------------------------- *)

(* Build from a transient [(value, width)] list, merging adjacent equal
   values into the contiguous array in one pass.  Widths must be
   positive and sum to the period (checked by the public [create]). *)
let of_segs ~period ~early ~late segs =
  let n_merged =
    let rec count prev n = function
      | [] -> n
      | (v, _) :: rest ->
        (match prev with
        | Some pv when Tvalue.equal pv v -> count prev n rest
        | _ -> count (Some v) (n + 1) rest)
    in
    count None 0 segs
  in
  if n_merged = 0 then invalid_arg "Waveform: empty segment list";
  let arr = Array.make n_merged 0 in
  let rec fill i at = function
    | [] -> ()
    | (v, width) :: rest ->
      let c = code v in
      if i > 0 && arr.(i - 1) land 7 = c then fill i (at + width) rest
      else begin
        arr.(i) <- (at lsl 3) lor c;
        fill (i + 1) (at + width) rest
      end
  in
  fill 0 0 segs;
  { period; n_segs = n_merged; segs = arr; early; late }

let create ~period segs =
  if period <= 0 then invalid_arg "Waveform.create: period must be positive";
  List.iter
    (fun (_, w) -> if w <= 0 then invalid_arg "Waveform.create: segment width must be positive")
    segs;
  let total = List.fold_left (fun acc (_, w) -> acc + w) 0 segs in
  if total <> period then
    invalid_arg
      (Printf.sprintf "Waveform.create: segment widths sum to %d, period is %d" total period);
  of_segs ~period ~early:0 ~late:0 segs

let const ~period v = create ~period [ (v, period) ]

let with_skew ~early ~late w =
  if early > 0 || late < 0 then invalid_arg "Waveform.with_skew: need early <= 0 <= late";
  { w with early; late }

let equal a b =
  a.period = b.period && a.early = b.early && a.late = b.late && a.n_segs = b.n_segs
  &&
  let rec go i = i >= a.n_segs || (a.segs.(i) = b.segs.(i) && go (i + 1)) in
  go 0

(* ---- array construction ---------------------------------------------- *)

(* Append a piece starting at [s] with value code [c] to the normalized
   prefix [a.(0 .. n-1)] and return the new length.  Pieces arrive in
   strictly increasing start order from 0; an equal value extends the
   last piece instead of starting a new one. *)
let push a n s c =
  if n > 0 && a.(n - 1) land 7 = c then n
  else begin
    a.(n) <- (s lsl 3) lor c;
    n + 1
  end

let finish ~period ~early ~late a n =
  { period; n_segs = n; segs = (if n = Array.length a then a else Array.sub a 0 n);
    early; late }

(* Index of the segment covering instant [t] in [0, period): the largest
   [i] with [start i <= t]. *)
let seg_index w t =
  let lo = ref 0 and hi = ref (w.n_segs - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi + 1) / 2 in
    if w.segs.(mid) asr 3 <= t then lo := mid else hi := mid - 1
  done;
  !lo

let value_at w t = seg_val w (seg_index w (wrap w.period t))

(* ---- modular intervals ----------------------------------------------- *)

(* An interval is (start, width) with start in [0, period), 0 <= width <=
   period.  [covers] tests membership of an instant. *)

let iv_covers p (s, width) x =
  if width >= p then true else wrap p (x - s) < width

let iv_intersect p (s1, w1) (s2, w2) =
  if w1 = 0 || w2 = 0 then false
  else if w1 >= p || w2 >= p then true
  else wrap p (s2 - s1) < w1 || wrap p (s1 - s2) < w2

(* ---- sweep construction ---------------------------------------------- *)

(* Build a zero-skew waveform by sampling [value_of] at the start of
   each elementary region delimited by the breakpoints [bps.(0 .. nb-1)]
   (taken modulo the period, sorted in place: an insertion sort, since
   there are a handful and they arrive in runs of ascending order). *)
let sample ~period bps nb value_of =
  for i = 0 to nb - 1 do
    let x = wrap period bps.(i) in
    let j = ref (i - 1) in
    while !j >= 0 && bps.(!j) > x do
      bps.(!j + 1) <- bps.(!j);
      decr j
    done;
    bps.(!j + 1) <- x
  done;
  let out = Array.make (nb + 1) 0 in
  let n = ref (push out 0 0 (code (value_of 0))) and prev = ref 0 in
  for i = 0 to nb - 1 do
    let x = bps.(i) in
    if x <> !prev then begin
      n := push out !n x (code (value_of x));
      prev := x
    end
  done;
  finish ~period ~early:0 ~late:0 out !n

let of_intervals ~period ~inside ~outside ivals =
  (* (start, stop): stop < start wraps; stop = start is empty. *)
  let width (s, e) =
    let d = e - s in
    if d = 0 then 0 else if d < 0 then d + period else min d period
  in
  let k = List.fold_left (fun k iv -> if width iv > 0 then k + 1 else k) 0 ivals in
  if k = 0 then const ~period outside
  else begin
    let starts = Array.make k 0 and widths = Array.make k 0 in
    let bps = Array.make (2 * k) 0 in
    let j = ref 0 in
    List.iter
      (fun ((s, _) as iv) ->
        let wd = width iv in
        if wd > 0 then begin
          starts.(!j) <- wrap period s;
          widths.(!j) <- wd;
          bps.(2 * !j) <- s;
          bps.((2 * !j) + 1) <- s + wd;
          incr j
        end)
      ivals;
    sample ~period bps (2 * k) (fun x ->
        let rec covered j =
          j < k && (widths.(j) >= period || wrap period (x - starts.(j)) < widths.(j)
                    || covered (j + 1))
        in
        if covered 0 then inside else outside)
  end

(* ---- rotation and delay ---------------------------------------------- *)

(* Split at the period boundary: the segment covering [period - d]
   opens the result at time 0, the later segments follow, then the
   earlier ones shifted by [d], then the head of the split segment. *)
let rotate w d =
  let p = w.period and n = w.n_segs in
  let d = wrap p d in
  if d = 0 then w
  else begin
    let q = seg_index w (p - d) in
    let out = Array.make (n + 1) 0 in
    let k = ref (push out 0 0 (seg_code w q)) in
    for i = q + 1 to n - 1 do
      k := push out !k (seg_start w i + d - p) (seg_code w i)
    done;
    for i = 0 to q do
      if seg_start w i + d < p then k := push out !k (seg_start w i + d) (seg_code w i)
    done;
    finish ~period:p ~early:w.early ~late:w.late out !k
  end

let delay ~dmin ~dmax w =
  if dmin < 0 || dmax < dmin then invalid_arg "Waveform.delay: need 0 <= dmin <= dmax";
  let w = rotate w dmin in
  { w with late = w.late + (dmax - dmin) }

(* ---- materialization --------------------------------------------------- *)

(* One window per transition: the wrap transition at time 0 when the
   last and first values differ, then one per later segment start.
   Regions covered by no window keep the nominal value. *)
let materialize w =
  if w.early = 0 && w.late = 0 then w
  else if w.n_segs = 1 then { w with early = 0; late = 0 }
  else
    let p = w.period and n = w.n_segs in
    let width = w.late - w.early in
    let first = if seg_code w 0 = seg_code w (n - 1) then 1 else 0 in
    let k = n - first in
    let ws = Array.make k 0 and wv = Array.make k Tvalue.Unknown in
    for j = 0 to k - 1 do
      let i = j + first in
      ws.(j) <- wrap p (seg_start w i + w.early);
      wv.(j) <-
        Tvalue.worst_edge ~before:(seg_val w ((i + n - 1) mod n)) ~after:(seg_val w i)
    done;
    if width >= p then
      (* Uncertainty covers the whole cycle: every instant may be in
         some transition window. *)
      const ~period:p (Array.fold_left Tvalue.merge_uncertain wv.(0) wv)
    else begin
      let bps = Array.make (n + (2 * k)) 0 in
      for i = 0 to n - 1 do
        bps.(i) <- seg_start w i
      done;
      for j = 0 to k - 1 do
        bps.(n + (2 * j)) <- ws.(j);
        bps.(n + (2 * j) + 1) <- ws.(j) + width
      done;
      sample ~period:p bps (n + (2 * k)) (fun x ->
          let v = ref Tvalue.Unknown and hit = ref false in
          for j = 0 to k - 1 do
            if wrap p (x - ws.(j)) < width then begin
              v := if !hit then Tvalue.merge_uncertain !v wv.(j) else wv.(j);
              hit := true
            end
          done;
          if !hit then !v else value_at w x)
    end

(* ---- pointwise maps ---------------------------------------------------- *)

let map f w =
  let out = Array.make w.n_segs 0 in
  let k = ref 0 in
  for i = 0 to w.n_segs - 1 do
    k := push out !k (seg_start w i) (code (f (seg_val w i)))
  done;
  finish ~period:w.period ~early:w.early ~late:w.late out !k

let is_const w = w.n_segs = 1

let check_periods ws =
  match ws with
  | [] -> invalid_arg "Waveform: empty input list"
  | w :: rest ->
    List.iter
      (fun w' -> if w'.period <> w.period then invalid_arg "Waveform: period mismatch")
      rest;
    w.period

let mapn f ws =
  let p = check_periods ws in
  (* If all inputs but (at most) one are constant, the combination cannot
     fold skews together, so the varying input's skew is preserved — this
     is what keeps pulse widths intact through gated clocks whose other
     inputs are stable (§2.8). *)
  let n_varying = List.fold_left (fun k w -> if is_const w then k else k + 1) 0 ws in
  if n_varying = 0 then const ~period:p (f (List.map (fun w -> seg_val w 0) ws))
  else if n_varying = 1 then
    let v = List.find (fun w -> not (is_const w)) ws in
    map (fun x -> f (List.map (fun w -> if w == v then x else seg_val w 0) ws)) v
  else begin
    (* k-way merge of the materialized inputs' segment starts *)
    let ms = Array.of_list ws in
    let cap = ref 0 in
    for i = 0 to Array.length ms - 1 do
      ms.(i) <- materialize ms.(i);
      cap := !cap + ms.(i).n_segs
    done;
    let k = Array.length ms in
    let idx = Array.make k 0 in
    let out = Array.make !cap 0 in
    let rec values i acc =
      if i < 0 then acc else values (i - 1) (seg_val ms.(i) idx.(i) :: acc)
    in
    let rec go x n =
      let n = push out n x (code (f (values (k - 1) []))) in
      let next = ref p in
      for i = 0 to k - 1 do
        if idx.(i) + 1 < ms.(i).n_segs then next := Int.min !next (seg_start ms.(i) (idx.(i) + 1))
      done;
      if !next >= p then n
      else begin
        for i = 0 to k - 1 do
          if idx.(i) + 1 < ms.(i).n_segs && seg_start ms.(i) (idx.(i) + 1) = !next then
            idx.(i) <- idx.(i) + 1
        done;
        go !next n
      end
    in
    finish ~period:p ~early:0 ~late:0 out (go 0 0)
  end

let map2 f a b =
  mapn (function [ x; y ] -> f x y | _ -> assert false) [ a; b ]

let map3 f a b c =
  mapn (function [ x; y; z ] -> f x y z | _ -> assert false) [ a; b; c ]

(* ---- windows and stability -------------------------------------------- *)

type window = { w_start : Timebase.ps; w_stop : Timebase.ps }

(* Circular pieces: the segments with a wrap-spanning one (equal first
   and last values) counted once.  Piece [k] of the [n_segs - off]
   pieces is segment [k + off], indices taken circularly. *)
let circ_off w =
  let n = w.n_segs in
  if n >= 3 && seg_code w 0 = seg_code w (n - 1) then 1 else 0

let circ_val w off k =
  let nc = w.n_segs - off in
  seg_val w (((k + nc) mod nc) + off)

(* Windows over the circular pieces of a materialized waveform, in start
   order: [select prev v next] takes the whole piece ([`Piece], whose
   stop passes the period when it spans the wrap), the instant of the
   boundary into it ([`Instant]), or neither. *)
let circular_windows m select =
  let n = m.n_segs in
  if n <= 1 then []
  else
    let off = circ_off m in
    let nc = n - off in
    let rec go k acc =
      if k < 0 then acc
      else
        let s = seg_start m (k + off) in
        match select (circ_val m off (k - 1)) (circ_val m off k) (circ_val m off (k + 1)) with
        | `Piece ->
          let e = if k + 1 < nc then seg_start m (k + 1 + off) else seg_start m off + m.period in
          go (k - 1) ({ w_start = s; w_stop = e } :: acc)
        | `Instant -> go (k - 1) ({ w_start = s; w_stop = s } :: acc)
        | `Neither -> go (k - 1) acc
    in
    go (nc - 1) []

(* [edge] pieces, [Change]/[Unknown] pieces between [from_v] and [to_v],
   and instantaneous [from_v] -> [to_v] boundaries. *)
let edge_windows ~from_v ~to_v ~edge w =
  circular_windows (materialize w) (fun prev v next ->
      match v with
      | Tvalue.Change | Tvalue.Unknown
        when Tvalue.equal prev from_v && Tvalue.equal next to_v -> `Piece
      | _ when Tvalue.equal v edge -> `Piece
      | _ -> if Tvalue.equal prev from_v && Tvalue.equal v to_v then `Instant else `Neither)

let rising_windows m = edge_windows ~from_v:Tvalue.V0 ~to_v:Tvalue.V1 ~edge:Tvalue.Rise m

let falling_windows m = edge_windows ~from_v:Tvalue.V1 ~to_v:Tvalue.V0 ~edge:Tvalue.Fall m

let change_windows w =
  circular_windows (materialize w) (fun prev v _ ->
      if Tvalue.is_changing v then `Piece
      else if Tvalue.is_stable prev && Tvalue.is_stable v && not (Tvalue.equal prev v)
      then `Instant
      else `Neither)

(* Maximal runs of consecutive segments satisfying [pred], as (start,
   width); a run touching time 0 joins a run ending at the period. *)
let runs_where pred w =
  let n = w.n_segs and p = w.period in
  let ok i = pred (seg_val w i) in
  let rec head i = if i < n && ok i then head (i + 1) else i in
  let h = head 0 in
  if h = n then [ (0, p) ]
  else
    let e0 = if h = 0 then 0 else seg_start w h in
    let rec go i acc =
      if i < h then acc
      else if not (ok i) then go (i - 1) acc
      else
        let rec first j = if ok (j - 1) then first (j - 1) else j in
        let j = first i in
        let s = seg_start w j in
        let e = if i = n - 1 then p + e0 else seg_start w (i + 1) in
        go (j - 1) ((s, e - s) :: acc)
    in
    let runs = go (n - 1) [] in
    if h > 0 && not (ok (n - 1)) then (0, e0) :: runs else runs

let intervals_where pred w = runs_where pred (materialize w)

let delay_rise_fall ~rise:(rmin, rmax) ~fall:(fmin, fmax) w =
  if rmin < 0 || rmax < rmin || fmin < 0 || fmax < fmin then
    invalid_arg "Waveform.delay_rise_fall: bad delay ranges";
  let m = materialize w in
  let value_known =
    let rec go i =
      i >= m.n_segs
      || (match seg_val m i with
         | Tvalue.V0 | Tvalue.V1 | Tvalue.Rise | Tvalue.Fall -> go (i + 1)
         | Tvalue.Stable | Tvalue.Change | Tvalue.Unknown -> false)
    in
    go 0
  in
  (* The per-edge reconstruction assumes a coherent signal: every Rise
     window sits between a 0 and a 1, every Fall window between a 1 and
     a 0.  Degenerate patterns (e.g. a Rise returning to 0) fall back to
     the conservative envelope. *)
  let coherent =
    let off = circ_off m in
    let rec go k =
      k >= m.n_segs - off
      || (match circ_val m off k with
         | Tvalue.Rise ->
           Tvalue.equal (circ_val m off (k - 1)) Tvalue.V0
           && Tvalue.equal (circ_val m off (k + 1)) Tvalue.V1
         | Tvalue.Fall ->
           Tvalue.equal (circ_val m off (k - 1)) Tvalue.V1
           && Tvalue.equal (circ_val m off (k + 1)) Tvalue.V0
         | Tvalue.V0 | Tvalue.V1 | Tvalue.Stable | Tvalue.Change | Tvalue.Unknown -> true)
         && go (k + 1)
    in
    m.n_segs <= 1 || go 0
  in
  if not (value_known && coherent) then None
  else
    let p = m.period in
    let rising = rising_windows m and falling = falling_windows m in
    if rising = [] && falling = [] then Some m
    else
      (* Each transition window moves by its own edge delay; between
         windows the level is the post-value of the nearest preceding
         window.  Overlapping windows merge to Change. *)
      let windows =
        List.map
          (fun { w_start; w_stop } ->
            (wrap p (w_start + rmin), w_stop - w_start + (rmax - rmin), Tvalue.Rise,
             Tvalue.V1))
          rising
        @ List.map
            (fun { w_start; w_stop } ->
              (wrap p (w_start + fmin), w_stop - w_start + (fmax - fmin), Tvalue.Fall,
               Tvalue.V0))
            falling
      in
      (* The delayed windows must preserve the source's transition
         ordering: for every source-consecutive pair of edges
         (circularly, including the wrap), the earlier edge must finish
         its delayed window before the later edge's begins.  A slow fall
         completing after the next cycle's fast rise violates this, and
         the exact reconstruction below would be wrong — fall back to
         the conservative envelope instead. *)
      let ordered =
        let tagged =
          List.map (fun w -> (w, rmin, rmax)) rising
          @ List.map (fun w -> (w, fmin, fmax)) falling
        in
        let in_source_order =
          Array.of_list
            (List.sort
               (fun ({ w_start = a; _ }, _, _) ({ w_start = b; _ }, _, _) ->
                 Int.compare a b)
               tagged)
        in
        let k = Array.length in_source_order in
        let pairs_ok = ref true in
        for i = 0 to k - 2 do
          let { w_stop = e1; _ }, _, dmax1 = in_source_order.(i) in
          let { w_start = s2; _ }, dmin2, _ = in_source_order.(i + 1) in
          if e1 + dmax1 > s2 + dmin2 then pairs_ok := false
        done;
        if k <= 1 then true
        else
          let { w_start = s0; _ }, dmin0, _ = in_source_order.(0) in
          let { w_stop = el; _ }, _, dmaxl = in_source_order.(k - 1) in
          !pairs_ok && el + dmaxl <= s0 + p + dmin0
      in
      if not ordered then None
      else
        let bps =
          Array.of_list (List.concat_map (fun (s, width, _, _) -> [ s; s + width ]) windows)
        in
        let value_of x =
          let covering =
            List.filter_map
              (fun (s, width, v, _) -> if iv_covers p (s, width) x then Some v else None)
              windows
          in
          match covering with
          | v :: rest -> List.fold_left Tvalue.merge_uncertain v rest
          | [] ->
            (* level after the nearest window ending before x; sound
               because the windows are disjoint and in source order *)
            let best =
              List.fold_left
                (fun acc (s, width, _, post) ->
                  let stop = wrap p (s + width) in
                  let d = wrap p (x - stop) in
                  match acc with
                  | Some (bd, _) when bd <= d -> acc
                  | _ -> Some (d, post))
                None windows
            in
            (match best with Some (_, post) -> post | None -> Tvalue.V0)
        in
        Some (sample ~period:p bps (Array.length bps) value_of)

let pulse_intervals v w = runs_where (Tvalue.equal v) w

let stable_everywhere w =
  let m = materialize w in
  let rec go i = i >= m.n_segs || (Tvalue.is_stable (seg_val m i) && go (i + 1)) in
  go 0

let stable_over w ~start ~width =
  if width <= 0 then true
  else if width >= w.period then stable_everywhere w
  else
    let unstable = intervals_where (fun v -> not (Tvalue.is_stable v)) w in
    let target = (wrap w.period start, width) in
    not (List.exists (fun iv -> iv_intersect w.period iv target) unstable)

let stable_interval_around w t =
  let t = wrap w.period t in
  let stable = intervals_where Tvalue.is_stable w in
  List.find_opt (fun iv -> iv_covers w.period iv t) stable

(* ---- printing ---------------------------------------------------------- *)

let pp ppf w =
  for i = 0 to w.n_segs - 1 do
    if i > 0 then Format.pp_print_string ppf "  ";
    Format.fprintf ppf "%a %a" Tvalue.pp (seg_val w i) Timebase.pp_ns (seg_start w i)
  done;
  if w.early <> 0 || w.late <> 0 then
    Format.fprintf ppf "  (skew %a/+%a)" Timebase.pp_ns w.early Timebase.pp_ns w.late
