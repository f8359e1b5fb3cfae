(** Versioned, checksummed binary snapshots of prognostic state.

    Where {!State_io} is the line-oriented text dump for humans and
    interop, this codec is the serving layer's checkpoint format: a
    compact little-endian binary image of one or more members'
    prognostic fields plus the batch step they were taken at, framed by
    a magic tag, a format version and a trailing FNV-1a 64-bit
    checksum.  Decoding validates the frame before touching the
    payload: a truncated, bit-flipped or otherwise damaged image raises
    {!Corrupt} — it never loads silently and never reads out of
    bounds.

    The member payload is the flat [h]/[u] layout of {!Fields.state}
    (the layout every ensemble member already holds its state in), so
    a snapshot of a batch member restores bit for bit: encode∘decode
    is the identity on every float, and a restarted integration
    continues exactly as the uninterrupted one. *)

exception Corrupt of string
(** The image fails structural validation (bad magic, unknown version,
    truncation, length mismatch) or its checksum. *)

type t = {
  sn_step : int;  (** batch step the snapshot was taken at *)
  sn_members : (int * Fields.state) list;
      (** tagged member states, in encoding order; tags are
          caller-chosen (the serving layer uses job ids) *)
}

val encode : t -> string
(** @raise Invalid_argument on a negative step or tracer rows (the
    ensemble state is tracerless). *)

val decode : string -> t
(** Inverse of {!encode}.  @raise Corrupt as described above. *)

val singleton : step:int -> int -> Fields.state -> t
(** [singleton ~step tag state] wraps one member. *)

val version : int
(** Current format version, for reporting. *)

val checksum : string -> int64
(** The FNV-1a 64 checksum used by the frame (exposed for tests). *)

val save : t -> string -> unit
(** Write an encoded image to a file (binary mode). *)

val load : string -> t
(** Read and decode a file.  @raise Corrupt on damage, [Sys_error] on
    missing files. *)
