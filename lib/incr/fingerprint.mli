(** Content addressing for the session store (doc/SERVICE.md).

    Two views of a netlist's identity, both two-level hashes of the same
    canonical record encoding:

    - {!digest}: structure {e and} every parameter.  Equal digests mean
      a cold verify would produce the very same report, so a session
      holding this digest can be reused outright.
    - {!skeleton}: structure only — names, widths, connectivity,
      primitive shape.  Equal skeletons mean the two designs differ only
      in parameters, every one of which is expressible as an
      {!Edit.t} — an existing session can be {e adopted} by replaying
      the parameter diff ({!Edit.diff}) instead of reloading cold.

    The first level is a {!table}: one 16-byte MD5 per net record and
    one per instance record.  The digest is the MD5 of a small header
    (timebase, default wire delay, net and instance counts), then the
    table, then the hash of the corner table.  An edit changes only the
    records of the ids {!Edit.apply} reports, so a session keeps its
    table current with {!rehash} and pays one MD5 over 16 bytes per
    record for a digest, instead of re-encoding the whole netlist. *)

open Scald_core

type table
(** Per-record hashes of one netlist, parameters included. *)

val table : Netlist.t -> table
(** Hash every net and instance record of the netlist. *)

val rehash : table -> Netlist.t -> nets:int list -> insts:int list -> unit
(** Re-hash the records of the given net and instance ids after an
    in-place edit of the netlist the table was built from.  Every record
    whose content changed must be listed; listing an unchanged one is
    harmless. *)

val digest_of : table -> Netlist.t -> string
(** Hex digest of the table and the netlist's header and corner table.
    Equals {!digest} of the netlist as long as the table is current. *)

val digest : Netlist.t -> string
(** Hex digest of structure plus all parameters, including the delay
    corner table ({!Scald_core.Netlist.corners}): a corner change is a
    parameter change and must miss the session cache. *)

val skeleton : Netlist.t -> string
(** Hex digest of structure only. *)
