(** Shard micropools: stage groups pinned to worker domains.

    [k] worker domains each cooperatively round-robin the stage groups
    assigned to them (for PINT, one group is one shard's {writer, lreader,
    rreader} treap triple) until every stage reports [`Done], backing off
    with {!Backoff} when everything a worker holds is unproductive.  A
    submitted group is assigned to exactly one worker and never migrates,
    so every single-owner invariant the stages rely on still sees one
    writing domain (OWNERSHIP.md).  The workers may outlive any one
    detector: a per-run pool ([Par_exec], [Replay.run ?pools]) is
    [shared k] + one {!submit} of its [k] groups + {!await} + {!shutdown};
    a long-lived service (pint_serve) submits one tenant's groups at a
    time.  See DESIGN.md §13 and §14.3. *)

type shared

(** A submission handle: the stage groups of one tenant. *)
type lease

(** [shared ?rings k] spawns [k] long-lived worker domains.  [rings.(i)]
    is worker [i]'s obs track for park events. *)
val shared : ?rings:Evring.t array -> int -> shared

(** [submit ?on_done sh groups] assigns each group to the least-loaded
    worker, ties broken round-robin, so [k] groups submitted to a fresh
    [k]-worker pool run one per worker domain.  The groups' stages must
    not be driven by anyone else from this point; they run until each
    reports [`Done] (for a detector: after its run's [on_done] has fired
    and its lanes drained).

    [on_done] fires exactly once per lease, once {!lease_done} reads true:
    on the worker domain that retires the lease's last group, or on the
    caller before [submit] returns when [groups] is empty.  It runs on the
    worker's loop, so it must be short and must not raise (a wake-up
    write, not the follow-up work).
    @raise Invalid_argument after {!shutdown} has begun. *)
val submit : ?on_done:(unit -> unit) -> shared -> Stage.t list list -> lease

(** True once every stage of the lease has reported [`Done]. *)
val lease_done : lease -> bool

(** Spin (with {!Backoff}) until {!lease_done}. *)
val await : lease -> unit

(** Stop and join every worker.  All outstanding leases must be able to
    finish (sessions ended or aborted): workers exit only when their
    assigned groups are done. *)
val shutdown : shared -> unit

(** Park episodes summed over shared workers (idle diagnostics). *)
val shared_parks : shared -> int

val n_shared_workers : shared -> int
