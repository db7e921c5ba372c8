(** Deterministic SMP enclave scheduler.

    Runs N enclaves (each behind its own {!Hyperenclave_sdk.Urts} handle)
    across M simulated cores.  Every core owns a {!Hyperenclave_hw.Cycles}
    clock and a run queue; execution itself happens on the shared platform
    clock (monitor, MMU and caches are per-platform), and each slice's
    elapsed delta is charged to the core that ran it — so per-core totals
    decompose the platform's work deterministically.

    Scheduling is discrete-event: the core with the earliest local clock
    runs next (ties to the lowest id), which makes runs bit-reproducible
    for a fixed submission order and config.  A slice executes requests
    until the quantum is consumed; the job's AEX timer is armed for the
    duration, so one long request is sheared by genuine AEX + ERESUME
    round trips through the monitor (SSA spill/restore) at each quantum
    boundary.  Unfinished jobs requeue at the back; a drained core steals
    from the richest queue (work stealing) when enabled.

    With [batch > 1], each dispatch stages up to [batch] requests in the
    marshalling-buffer call ring ({!Hyperenclave_sdk.Urts.ecall_batch})
    and serves them under a single world switch. *)

open Hyperenclave_hw
open Hyperenclave_sdk

type config = {
  cores : int;
  quantum : int;  (** slice budget in cycles; also the AEX timer period *)
  work_stealing : bool;
  batch : int;  (** ring batch size per dispatch; 1 = plain ECALLs *)
  steal_penalty : int;
      (** cycles charged to the thief per stolen job (cold working set) *)
  drop_on_error : bool;
      (** drop a request that ends in a typed error (injected permanent
          fault, SDK refusal) instead of aborting the run — lets chaos
          schedules drain; monitor violations always propagate *)
}

val default_config : config
(** 2 cores, 250k-cycle quantum, stealing on, unbatched, strict errors. *)

type t

type core_stats = {
  core_id : int;
  cycles : int;  (** final core-local clock (busy + penalties + idle) *)
  busy : int;  (** cycles spent executing slices *)
  steals : int;
  preempts : int;  (** slice-boundary requeues *)
  completed : int;  (** requests completed on this core *)
}

type stats = {
  total_requests : int;
  failed_requests : int;
  makespan : int;  (** max final core clock — the run's wall time *)
  per_core : core_stats array;
  steals : int;
  preempts : int;
  aex_preempts : int;  (** mid-request AEX timer firings *)
}

val create :
  ?on_preempt:(core_id:int -> unit) ->
  shared_clock:Cycles.t ->
  telemetry:Hyperenclave_obs.Telemetry.t ->
  config ->
  t
(** [on_preempt] fires at every preemption — both slice-boundary requeues
    and mid-request AEX timer firings (after the ERESUME, with monitor
    state settled) — the hook the chaos suite uses to run
    [Invariants.check] at each one. *)

val submit :
  t ->
  ?core:int ->
  ?label:string ->
  ?on_result:(index:int -> (bytes, string) result -> unit) ->
  ?on_slice:(cycles:int -> unit) ->
  urts:Urts.t ->
  (int * bytes) list ->
  unit
(** Queue a job: a list of [(ecall_id, payload)] requests against one
    enclave.  Jobs land on [core] when given, else round-robin by
    submission order.  All requests use [In_out] marshalling.

    [label] names the service this job belongs to: every completed
    request additionally bumps the [sched.svc.<label>] telemetry counter,
    giving per-service dispatch totals when many tenants share the
    scheduler.

    [on_result] receives every request's ending keyed by its submission
    index: [Ok reply] on completion, or [Error msg] when [drop_on_error]
    dropped it (an injected permanent fault or SDK refusal; a batched
    ring dispatch fails all-or-nothing).  [on_slice] receives every
    scheduling slice's consumed cycle delta — the accounting hook the
    serving plane charges per-tenant quotas from. *)

val submit_ring :
  t ->
  ?core:int ->
  ?label:string ->
  ?on_result:(index:int -> (bytes, string) result -> unit) ->
  ?on_slice:(cycles:int -> unit) ->
  urts:Urts.t ->
  Urts.ring ->
  unit
(** Queue one staged arena ring ({!Urts.create_ring}/{!Urts.ring_stage})
    as a job: the ring dispatches as a single switchless unit on its
    core's next slice ({!Urts.ring_dispatch}), all-or-nothing under
    [drop_on_error].  The scheduler does not read reply bytes out of the
    ring — [on_result] reports [Ok Bytes.empty] per served request (a
    sealed slot, {!Urts.ring_requests}; clear calls ride along
    uncounted) from a shared placeholder, and the submitter
    reads replies in place via {!Urts.ring_read_replies} /
    {!Urts.ring_reply_slot} after {!run}.  The submitter publishes the
    staged image ({!Urts.ring_publish}) before [run]. *)

val run : t -> stats
(** Drain every queue to completion and return the run's statistics.
    Telemetry counters recorded along the way: [sched.steal],
    [sched.preempt], [sched.aex_preempt], [sched.request_failed],
    [sched.slice_cycles] (histogram), plus the SDK's [sdk.ecall_batch] /
    [ring.batch_occupancy] when batching. *)

val stats : t -> stats
(** Read-only snapshot of the same statistics {!run} returns: never
    advances a clock, runs a slice, or drains a queue, so it is safe to
    call between [submit] and [run] (or never calling [run] at all). *)

val pp_stats : Format.formatter -> stats -> unit
