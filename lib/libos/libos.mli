(** Library OS for HyperEnclave enclaves — the Occlum stand-in (Sec. 3.4,
    5.3: "we have also ported ... the Occlum library OS to HyperEnclave").

    Legacy applications talk POSIX; a libOS serves most of those syscalls
    {e inside} the enclave (file system, time, pids, epoll — no world
    switch) and forwards only what genuinely needs the host (network I/O)
    through OCALLs.  {!stats} exposes the in-enclave/forwarded split,
    which is the whole performance argument: Lighttpd under Occlum exits
    only for sockets.

    Two growth points make this the runtime layer for in-enclave services
    (ROADMAP item 2):

    - {b loopback sockets} ([socket ~loopback:true]): an in-enclave byte
      queue pair.  The serving plane injects decrypted request bytes with
      {!sock_deliver}; the application [recv]s, computes, [send]s; the
      plane collects the reply with {!sock_drain}.  No OCALL is involved,
      so a ring-dispatched handler (which must not OCALL) can still do
      socket-shaped I/O.
    - {b epoll-ish readiness} ({!epoll_create}/{!epoll_add}/{!epoll_wait}):
      level-triggered readiness over file and socket fds, so event-loop
      applications port naturally.

    The fd table holds {!Vfs} inodes, not paths: unlinking a path while an
    fd is open leaves that fd operating on the orphaned inode (POSIX), and
    reads past EOF return short data, never exceptions.  [O_APPEND]
    writes always land at the inode's EOF regardless of [lseek].

    Costs: every syscall charges a small in-enclave dispatch (a function
    call plus fd-table work, ~180 cycles) plus per-byte copy costs;
    forwarded calls additionally pay the full OCALL path of the enclave's
    operation mode. *)

open Hyperenclave_hw
open Hyperenclave_sdk

type t

exception Bad_fd of int
exception Bad_seek of int
(** Typed rejection of a negative or overflowing seek position — the
    offset is reported, [state.pos] is left untouched. *)

exception No_such_file of string

val max_file_bytes : int
(** Largest accepted seek offset (1 TiB); beyond it {!lseek} raises
    {!Bad_seek} so positions can never overflow. *)

(** {1 Construction} *)

type rt = {
  rt_clock : Cycles.t;
  rt_compute : int -> unit;
  rt_ocall : id:int -> bytes -> bytes;
  rt_ocall_switchless : id:int -> bytes -> bytes;
}
(** The slice of an execution environment the libOS needs.  Built from a
    full {!Tenv.t} with {!of_tenv}, or assembled by hand from a
    [Backend.env] (which is what the service layer hands to handlers). *)

val of_tenv : Tenv.t -> rt

val create_rt :
  rt ->
  ?pager:Vfs.pager ->
  ?net_send_ocall:int ->
  ?net_recv_ocall:int ->
  ?switchless_net:bool ->
  unit ->
  t
(** [pager] backs VFS file extents with the demand-paged enclave heap
    (see {!Vfs.pager}); without it files are plain in-enclave bytes. *)

val create :
  Tenv.t ->
  ?net_send_ocall:int ->
  ?net_recv_ocall:int ->
  ?switchless_net:bool ->
  unit ->
  t
(** [create_rt (of_tenv tenv)].  [net_send_ocall]/[net_recv_ocall] are the
    registered OCALL ids backing forwarding-socket I/O (defaults
    900/901); [switchless_net] routes them through switchless calls. *)

val vfs : t -> Vfs.t

(** {1 File syscalls — served in-enclave} *)

type open_flag = O_rdonly | O_wronly | O_rdwr | O_creat | O_trunc | O_append

val openf : t -> path:string -> open_flag list -> int
(** @raise No_such_file without [O_creat]. *)

val close : t -> int -> unit
val read : t -> int -> len:int -> bytes
val write : t -> int -> bytes -> int

val lseek : t -> int -> pos:int -> int
(** Absolute seek; returns the new position.  Only file fds seek.
    @raise Bad_seek on negative or > {!max_file_bytes} positions.
    @raise Bad_fd on sockets and epoll fds. *)

val unlink : t -> path:string -> unit
val stat_size : t -> path:string -> int

val fstat_size : t -> int -> int
(** Inode size through an open fd — works after unlink. *)

val list_dir : t -> prefix:string -> string list

(** {1 Process/time syscalls — served in-enclave} *)

val getpid : t -> int
val clock_monotonic : t -> int
(** Simulated-cycle timestamp — in-enclave, like a vDSO read. *)

(** {1 Network syscalls} *)

val socket : ?loopback:bool -> t -> int
(** Forwarding sockets (default) OCALL to the host; loopback sockets are
    in-enclave byte queues fed by {!sock_deliver}/{!sock_drain}. *)

val send : t -> int -> bytes -> int
val recv : t -> int -> len:int -> bytes
(** On a loopback socket, a short (possibly empty) read of buffered
    bytes — the EWOULDBLOCK of this world; gate on {!epoll_wait}. *)

val sock_deliver : t -> int -> bytes -> unit
(** Plane-side: inject bytes into a loopback socket's receive queue.
    @raise Bad_fd on non-loopback fds. *)

val sock_drain : t -> int -> bytes
(** Plane-side: take everything the application [send]ed so far. *)

(** {1 Event readiness} *)

type event = { rd : bool; wr : bool }

val epoll_create : t -> int

val epoll_add : t -> epfd:int -> fd:int -> rd:bool -> wr:bool -> unit
(** Registers or replaces interest.  @raise Bad_fd when [fd] is an epoll
    fd (no nesting) or either fd is closed. *)

val epoll_del : t -> epfd:int -> fd:int -> unit

val epoll_wait : t -> epfd:int -> (int * event) list
(** Non-blocking poll: level-triggered readiness of every watched fd
    whose interest matches, sorted by fd.  Files are readable while
    [pos < size]; loopback sockets while bytes are queued. *)

(** {1 Introspection} *)

type stats = { in_enclave : int; forwarded : int }

val stats : t -> stats
val open_fds : t -> int
