(** Table I instances expressed in the stencil IR.

    Each entry names the fields it reads (matching
    [Mpas_swe.Fields.diagnostics] vocabulary) and produces one output
    field; multi-output instances appear once per output
    (H1 -> grad_pv_n / grad_pv_t, X3/X4/X5 are trivial pointwise
    updates and are omitted).  Gravity and the APVM factor are baked as
    constants where needed.

    Every spec keeps the operation order of its handwritten
    [Mpas_swe.Operators] kernel (products nested left, operands in the
    kernel's order), so {!Stencil.run} is bitwise equal to the kernel
    and serves as its reference.  The extensions beyond Table I are
    covered too: both B1 PV averages, the centered tracer edge value,
    the tracer tendency and the velocity Laplacian (C1's term).  Upwind
    [tracer_edge] is not expressible: the IR has no conditional. *)

(** [specs ~gravity ~apvm_dt] — every expressible instance, keyed by a
    descriptive name. *)
val specs : gravity:float -> apvm_dt:float -> (string * Stencil.kernel) list

(** Look up one spec. @raise Not_found for unknown names. *)
val spec : gravity:float -> apvm_dt:float -> string -> Stencil.kernel
