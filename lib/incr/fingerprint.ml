open Scald_core

(* ---- canonical serialization --------------------------------------------- *)

(* A netlist's identity for the session store is a two-level hash of its
   canonical encoding: one MD5 per net record and one per instance
   record, kept side by side in a table, and one MD5 of the whole table
   on top.  An edit changes a handful of records, so a session re-hashes
   only those and the digest costs one MD5 over 16 bytes per record —
   never a re-encoding of the netlist.  Two digests are computed with
   the same encoders:

   - [digest]: everything — structure plus every editable parameter
     (wire delays, assertions, primitive parameters, connection
     directives).  Equal digests mean a cold run would produce the very
     same report: full session reuse.
   - [skeleton]: structure only — names, widths, connectivity, primitive
     shape.  Equal skeletons mean the designs differ only in parameters
     every one of which is expressible as an {!Edit.t}, so an existing
     session can be adopted by replaying the parameter diff. *)

let add_int b i =
  Buffer.add_char b 'i';
  Buffer.add_string b (string_of_int i);
  Buffer.add_char b ';'

let add_str b s =
  Buffer.add_char b 's';
  add_int b (String.length s);
  Buffer.add_string b s

let add_bool b v = Buffer.add_char b (if v then 'T' else 'F')

let add_opt f b = function
  | None -> Buffer.add_char b 'N'
  | Some v ->
    Buffer.add_char b 'S';
    f b v

let add_delay b (d : Delay.t) =
  add_int b d.dmin;
  add_int b d.dmax;
  add_opt
    (fun b ((rmin, rmax), (fmin, fmax)) ->
      add_int b rmin;
      add_int b rmax;
      add_int b fmin;
      add_int b fmax)
    b d.rise_fall

let add_assertion b a = add_str b (Assertion.to_string a)
let add_directive b d = add_str b (Directive.to_string d)

let gate_fn_tag = function
  | Primitive.And -> 0
  | Primitive.Or -> 1
  | Primitive.Xor -> 2
  | Primitive.Chg -> 3

(* [params = false] records only the shape of the primitive — the
   constructor and whatever decides its input count.  Note that [invert]
   and checker margins are parameters: a NAND differs from an AND only
   in a parameter, replayable with {!Netlist.replace_prim}. *)
let add_prim ~params b (p : Primitive.t) =
  match p with
  | Primitive.Gate g ->
    Buffer.add_char b 'G';
    add_int b (gate_fn_tag g.fn);
    add_int b g.n_inputs;
    if params then begin
      add_bool b g.invert;
      add_delay b g.delay
    end
  | Primitive.Buf bu ->
    Buffer.add_char b 'B';
    if params then begin
      add_bool b bu.invert;
      add_delay b bu.delay
    end
  | Primitive.Mux2 m ->
    Buffer.add_char b 'M';
    if params then begin
      add_delay b m.delay;
      add_delay b m.select_extra
    end
  | Primitive.Reg r ->
    Buffer.add_char b 'R';
    add_bool b r.has_set_reset;
    if params then add_delay b r.delay
  | Primitive.Latch l ->
    Buffer.add_char b 'L';
    add_bool b l.has_set_reset;
    if params then add_delay b l.delay
  | Primitive.Setup_hold_check c ->
    Buffer.add_char b 'H';
    if params then begin
      add_int b c.setup;
      add_int b c.hold
    end
  | Primitive.Setup_rise_hold_fall_check c ->
    Buffer.add_char b 'W';
    if params then begin
      add_int b c.setup;
      add_int b c.hold
    end
  | Primitive.Min_pulse_width c ->
    Buffer.add_char b 'P';
    if params then begin
      add_int b c.high;
      add_int b c.low
    end
  | Primitive.Const v ->
    Buffer.add_char b 'C';
    if params then Buffer.add_char b (Tvalue.to_char v)

(* One record per net and per instance.  Net ids are dense and
   instance ids are dense, so a record's slot in the table is its id —
   instances after the nets. *)
let add_net ~params b (n : Netlist.net) =
  add_str b n.n_name;
  add_int b n.n_width;
  if params then begin
    add_opt add_assertion b n.n_assertion;
    add_opt add_delay b n.n_wire_delay
  end

let add_inst ~params b (i : Netlist.inst) =
  add_str b i.i_name;
  add_prim ~params b i.i_prim;
  add_int b (Array.length i.i_inputs);
  Array.iter
    (fun (c : Netlist.conn) ->
      add_int b c.c_net;
      add_bool b c.c_invert;
      if params then add_directive b c.c_directive)
    i.i_inputs;
  add_opt add_int b i.i_output

(* ---- the record table ----------------------------------------------------- *)

(* The table is the byte image the digest hashes: the header, then one
   16-byte record hash per net and per instance, then (digest only) the
   hash of the corner table.  Edits change parameters, never the header
   fields or the counts, so the image keeps its layout for the netlist's
   lifetime and a digest hashes it in place. *)

let hash_len = 16

type table = { params : bool; base : int; image : Bytes.t; scratch : Buffer.t }

let store t slot add x =
  Buffer.clear t.scratch;
  add ~params:t.params t.scratch x;
  Bytes.blit_string (Digest.string (Buffer.contents t.scratch)) 0 t.image
    (t.base + (slot * hash_len)) hash_len

let rehash t nl ~nets ~insts =
  List.iter (fun id -> store t id add_net (Netlist.net nl id)) nets;
  let base = Netlist.n_nets nl in
  List.iter (fun id -> store t (base + id) add_inst (Netlist.inst nl id)) insts

let build ~params nl =
  let n_nets = Netlist.n_nets nl and n_insts = Netlist.n_insts nl in
  let h = Buffer.create 256 in
  let tb = Netlist.timebase nl in
  add_int h (Timebase.period tb);
  add_int h (Timebase.clock_unit tb);
  add_delay h (Netlist.default_wire_delay nl);
  add_int h n_nets;
  add_int h n_insts;
  let base = Buffer.length h in
  let slots = n_nets + n_insts + if params then 1 else 0 in
  let image = Bytes.create (base + (slots * hash_len)) in
  Buffer.blit h 0 image 0 base;
  let t = { params; base; image; scratch = h } in
  Netlist.iter_nets nl (fun n -> store t n.n_id add_net n);
  Netlist.iter_insts nl (fun i -> store t (n_nets + i.i_id) add_inst i);
  t

let table nl = build ~params:true nl

(* The corner table is a replayable parameter (Edit.Corners), so it
   belongs to [digest] but not to [skeleton]; its slot is refreshed on
   every digest rather than tracked per edit. *)
let digest_of t nl =
  if t.params then
    store t
      (Netlist.n_nets nl + Netlist.n_insts nl)
      (fun ~params:_ b c -> add_str b (Corner.table_to_string c))
      (Netlist.corners nl);
  Digest.to_hex (Digest.bytes t.image)

let digest nl = digest_of (table nl) nl
let skeleton nl = digest_of (build ~params:false nl) nl
