type span = {
  s_name : string;
  s_ts_us : float;
  s_dur_us : float;
  s_depth : int;
  s_lane : int;
}

type t = {
  clock : unit -> float;
  t0 : float;
  mutable depth : int;
  mutable lane : int;
  mutable n_completed : int;
  (* The spans kept since creation or the last [forget], oldest first,
     in parallel arrays: a list of records would cost four heap blocks
     per span, which the major GC keeps marking for as long as a
     long-lived daemon keeps them. *)
  mutable kept : int;
  mutable names : string array;
  mutable starts : float array;
  mutable durs : float array;
  mutable depths : int array;
  mutable lanes : int array;
}

let create ?(clock = Unix.gettimeofday) () =
  {
    clock;
    t0 = clock ();
    depth = 0;
    lane = 0;
    n_completed = 0;
    kept = 0;
    names = [||];
    starts = [||];
    durs = [||];
    depths = [||];
    lanes = [||];
  }

let now_us t = (t.clock () -. t.t0) *. 1e6
let set_lane t lane = t.lane <- lane
let lane t = t.lane

let grow a fill =
  let b = Array.make (max 64 (2 * Array.length a)) fill in
  Array.blit a 0 b 0 (Array.length a);
  b

let record t name ~start ~dur ~depth =
  if t.kept = Array.length t.names then begin
    t.names <- grow t.names "";
    t.starts <- grow t.starts 0.;
    t.durs <- grow t.durs 0.;
    t.depths <- grow t.depths 0;
    t.lanes <- grow t.lanes 0
  end;
  let k = t.kept in
  t.names.(k) <- name;
  t.starts.(k) <- start;
  t.durs.(k) <- dur;
  t.depths.(k) <- depth;
  t.lanes.(k) <- t.lane;
  t.kept <- k + 1;
  t.n_completed <- t.n_completed + 1

let with_span t name f =
  let start = now_us t in
  let depth = t.depth in
  t.depth <- depth + 1;
  match f () with
  | v ->
    t.depth <- depth;
    record t name ~start ~dur:(now_us t -. start) ~depth;
    v
  | exception e ->
    t.depth <- depth;
    record t name ~start ~dur:(now_us t -. start) ~depth;
    raise e

let probe_span = with_span

let mark t name = record t name ~start:(now_us t) ~dur:0. ~depth:t.depth

let span_at t k =
  {
    s_name = t.names.(k);
    s_ts_us = t.starts.(k);
    s_dur_us = t.durs.(k);
    s_depth = t.depths.(k);
    s_lane = t.lanes.(k);
  }

let forget t = t.kept <- 0
let spans t = List.init t.kept (span_at t)
let n_completed t = t.n_completed

(* The newest [k] kept spans, newest first.  O(k): lets a caller
   read exactly the spans one request produced without copying the
   whole (ever-growing) history per request. *)
let recent t k = List.init (min k t.kept) (fun j -> span_at t (t.kept - 1 - j))

let iter_recent t k f =
  for j = max 0 (t.kept - k) to t.kept - 1 do
    f t.names.(j) t.durs.(j)
  done

let total_us t name =
  let acc = ref 0. in
  for k = 0 to t.kept - 1 do
    if t.names.(k) = name then acc := !acc +. t.durs.(k)
  done;
  !acc

let pp ppf t =
  Format.fprintf ppf "@[<v>PHASE PROFILE@,";
  (* present parents before children: sort by start time, then by depth *)
  let by_start =
    List.stable_sort
      (fun a b ->
        match compare a.s_ts_us b.s_ts_us with 0 -> compare a.s_depth b.s_depth | c -> c)
      (spans t)
  in
  List.iter
    (fun s ->
      Format.fprintf ppf "  %s%-*s %10.1f us@," (String.make (2 * s.s_depth) ' ')
        (max 1 (28 - (2 * s.s_depth)))
        s.s_name s.s_dur_us)
    by_start;
  Format.fprintf ppf "@]"
