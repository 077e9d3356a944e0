(* Mergeable log-bucketed histogram for latencies and sizes.

   Buckets are geometric with ratio 2^(1/4) (four buckets per octave,
   ~9% relative width), so the structure is a fixed 169-slot int array:
   no allocation per [add], deterministic quantiles (a quantile depends
   only on the multiset of bucket indices, never on insertion order or
   timing), and [merge] is pointwise addition.  Bucket [i] covers
   values in (2^((i-1)/4), 2^(i/4)]; bucket 0 absorbs everything <= 1,
   the last bucket everything above 2^42 (~51 days in microseconds). *)

let n_buckets = 169
let bound i = Float.pow 2.0 (float_of_int i /. 4.0)

(* 4 / ln 2: buckets per octave over the natural log the libm call
   actually computes *)
let inv_log2_4 = 4.0 /. Float.log 2.0

let index v =
  if v <= 1.0 then 0
  else
    let i = int_of_float (Float.ceil (inv_log2_4 *. Float.log v)) in
    if i < 0 then 0 else if i >= n_buckets then n_buckets - 1 else i

type t = {
  buckets : int array;
  mutable count : int;
  stats : float array; (* sum, min, max: unboxed, so [add] allocates nothing *)
}

let create () =
  { buckets = Array.make n_buckets 0; count = 0; stats = Array.make 3 0.0 }

let add t v =
  let v = if v < 0.0 then 0.0 else v in
  let i = index v in
  t.buckets.(i) <- t.buckets.(i) + 1;
  let st = t.stats in
  if t.count = 0 then begin
    st.(1) <- v;
    st.(2) <- v
  end
  else begin
    if v < st.(1) then st.(1) <- v;
    if v > st.(2) then st.(2) <- v
  end;
  t.count <- t.count + 1;
  st.(0) <- st.(0) +. v

let count t = t.count
let sum t = t.stats.(0)
let min_value t = t.stats.(1)
let max_value t = t.stats.(2)
let mean t = if t.count = 0 then 0.0 else t.stats.(0) /. float_of_int t.count

let quantile t q =
  if t.count = 0 then 0.0
  else
    let q = if q < 0.0 then 0.0 else if q > 1.0 then 1.0 else q in
    let rank =
      let r = int_of_float (Float.ceil (q *. float_of_int t.count)) in
      if r < 1 then 1 else r
    in
    let rec walk i cum =
      if i >= n_buckets then t.stats.(2)
      else
        let cum = cum + t.buckets.(i) in
        if cum >= rank then
          (* Report the bucket's upper bound, clamped to the observed
             range so p0/p100 are exact and a one-element histogram
             returns the element itself. *)
          let b = bound i in
          if b < t.stats.(1) then t.stats.(1) else if b > t.stats.(2) then t.stats.(2) else b
        else walk (i + 1) cum
    in
    walk 0 0

let merge a b =
  let t = create () in
  Array.iteri (fun i n -> t.buckets.(i) <- n + b.buckets.(i)) a.buckets;
  t.count <- a.count + b.count;
  t.stats.(0) <- a.stats.(0) +. b.stats.(0);
  (if a.count = 0 then begin
     t.stats.(1) <- b.stats.(1);
     t.stats.(2) <- b.stats.(2)
   end
   else if b.count = 0 then begin
     t.stats.(1) <- a.stats.(1);
     t.stats.(2) <- a.stats.(2)
   end
   else begin
     t.stats.(1) <- Float.min a.stats.(1) b.stats.(1);
     t.stats.(2) <- Float.max a.stats.(2) b.stats.(2)
   end);
  t

let clear t =
  Array.fill t.buckets 0 n_buckets 0;
  t.count <- 0;
  Array.fill t.stats 0 3 0.0
