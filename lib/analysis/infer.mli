(** Access inference by shadow instrumentation.

    Every registry instance is compiled through [Runtime.Bind] — the
    exact closures the task runtime schedules — and run against
    randomized shadow field arrays.  Writes are found by diffing two
    runs from two independent random bases; reads by poisoning one cell
    at a time with NaN and watching (bit-for-bit) whether any written
    cell changes.  The result is a {!Footprint} per task, diffed
    against the Table I declarations.

    Limitation: a read that influences no written cell (e.g. a branch
    producing identical values on both arms) is invisible to the probe;
    none of the registry kernels has that shape. *)

open Mpas_mesh
open Mpas_swe
open Mpas_patterns
open Mpas_runtime

type t

(** The configuration probing runs under: every conditional kernel
    enabled (nonzero [visc2] and [bottom_drag], fourth-order
    advection). *)
val probe_config : Config.t

(** Build a probe harness on [mesh] (a copy with a strict-subset
    boundary mask is used, so [X2] has real work).  Footprints are
    memoized per (instance, part, phase). *)
val create : ?config:Config.t -> Mesh.t -> t

(** The (masked) mesh the harness probes on. *)
val mesh : t -> Mesh.t

(** Inferred footprint of one task, as the runtime would execute it
    ([part = None] walks the full range, [Some _] the part's one-span
    set). *)
val task_footprint : t -> final:bool -> Spec.task -> Footprint.t

val instance_footprint :
  t -> final:bool -> part:(float * float) option -> Pattern.instance ->
  Footprint.t

(** Footprints aligned with [spec.early.tasks] and [spec.final.tasks];
    the schedule race detector's input. *)
val spec_footprints : t -> Spec.t -> Footprint.t array * Footprint.t array

(** How to drive the instance: [Csr] (full-range walks), [Index_set]
    (the [?on] span-set walk over the whole space as a one-span set),
    or [Parts f] (two part tasks splitting at [f], footprints
    unioned). *)
type mode = Csr | Index_set | Parts of float

val mode_name : mode -> string

type violation =
  | Undeclared_read of string  (** slot read but not among the inputs *)
  | Undeclared_write of string  (** slot written but not among the outputs *)
  | Unread_input of string  (** declared input never read *)
  | Unwritten_output of string  (** declared output never written *)

val violation_message : violation -> string

type report = {
  r_instance : string;
  r_phase : [ `Early | `Final ];
  r_mode : mode;
  r_violations : violation list;
}

(** Diff one instance's inferred footprint against its declarations.
    A declared input that is also an output counts as read when the
    write covers a strict subset of the space (partial-write carry:
    the preserved complement is the dependency). *)
val check_instance :
  t -> final:bool -> mode:mode -> Pattern.instance -> violation list

val default_modes : mode list

(** Every instance of both runtime phases (early and final, the latter
    with the renamed diagnostics and the publishing accumulators) in
    every mode. *)
val check_registry : ?modes:mode list -> t -> report list

(** Diff a fused super-task's inferred footprint (the compiled
    super-kernel of [Bind], run as one body) against the {e union} of
    its members' Table I declarations, in chain order:

    - reads/writes of slots outside the union are undeclared;
    - every member's declared outputs must be written — a fusion that
      drops a member's write set is caught here;
    - a member input produced by an earlier member is {e internal}
      (register-carried), so reading the array is optional; external
      declared inputs must be read (partial-write carry as in
      {!check_instance}).

    Violations are tagged ["ID:var"].  Singleton lists degrade to the
    per-instance check.

    [body] (default: the members) is the chain actually compiled and
    probed — passing a different list seeds a planner bug, e.g.
    validating the declarations of [D1; C2; D2] against a body that
    only runs [D1; C2] must report [D2]'s output unwritten. *)
val check_fused :
  ?body:Pattern.instance list ->
  t -> final:bool -> mode:mode -> Pattern.instance list -> violation list

val default_fused_modes : mode list

(** [check_fused] over every chain the fusing planner actually builds
    ([Spec.build ~fuse:true]), both phases.  [r_instance] joins member
    ids with ["+"]. *)
val check_fused_spec : ?modes:mode list -> t -> report list

(** Reports with at least one violation. *)
val failed : report list -> report list
