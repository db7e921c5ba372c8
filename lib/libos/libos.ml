open Hyperenclave_hw
open Hyperenclave_sdk

(* --- runtime substrate --------------------------------------------------- *)

type rt = {
  rt_clock : Cycles.t;
  rt_compute : int -> unit;
  rt_ocall : id:int -> bytes -> bytes;
  rt_ocall_switchless : id:int -> bytes -> bytes;
}

let of_tenv (tenv : Tenv.t) =
  {
    rt_clock = tenv.Tenv.clock;
    rt_compute = tenv.Tenv.compute;
    rt_ocall = (fun ~id data -> tenv.Tenv.ocall ~id ~data Edge.In_out);
    rt_ocall_switchless =
      (fun ~id data -> tenv.Tenv.ocall_switchless ~id ~data ());
  }

(* --- fd table ------------------------------------------------------------ *)

type sock = {
  inbuf : Buffer.t;
  mutable in_pos : int; (* consumed prefix of [inbuf] *)
  outbuf : Buffer.t;
  loopback : bool;
}

type interest = { want_rd : bool; want_wr : bool }

type target =
  | File_fd of Vfs.node
  | Sock_fd of sock
  | Epoll_fd of (int, interest) Hashtbl.t

type fd_state = {
  target : target;
  path : string; (* "" for sockets/epoll *)
  mutable pos : int;
  append : bool;
  readable : bool;
  writable : bool;
}

type stats = { in_enclave : int; forwarded : int }

type t = {
  rt : rt;
  vfs : Vfs.t;
  fds : (int, fd_state) Hashtbl.t;
  mutable next_fd : int;
  net_send_ocall : int;
  net_recv_ocall : int;
  switchless_net : bool;
  pid : int;
  mutable in_enclave : int;
  mutable forwarded : int;
}

exception Bad_fd of int
exception Bad_seek of int
exception No_such_file of string

let syscall_dispatch_cost = 180
let epoll_poll_cost = 12

(* Seek positions are capped well below [max_int] so that a subsequent
   [pos + Bytes.length data] can never overflow into a negative offset. *)
let max_file_bytes = 1 lsl 40

let create_rt rt ?pager ?(net_send_ocall = 900) ?(net_recv_ocall = 901)
    ?(switchless_net = false) () =
  {
    rt;
    vfs = Vfs.create ?pager ();
    fds = Hashtbl.create 16;
    next_fd = 3; (* 0-2 reserved, as tradition demands *)
    net_send_ocall;
    net_recv_ocall;
    switchless_net;
    pid = 1;
    in_enclave = 0;
    forwarded = 0;
  }

let create tenv ?net_send_ocall ?net_recv_ocall ?switchless_net () =
  create_rt (of_tenv tenv) ?net_send_ocall ?net_recv_ocall ?switchless_net ()

let vfs t = t.vfs

(* Every syscall enters through here: in-enclave dispatch cost, no world
   switch (the libOS point). *)
let syscall t =
  t.in_enclave <- t.in_enclave + 1;
  t.rt.rt_compute syscall_dispatch_cost

let charge_bytes t n = t.rt.rt_compute (n / 8)

let fd_state t fd =
  match Hashtbl.find_opt t.fds fd with
  | Some state -> state
  | None -> raise (Bad_fd fd)

let alloc_fd t state =
  let fd = t.next_fd in
  t.next_fd <- fd + 1;
  Hashtbl.replace t.fds fd state;
  fd

let file_node t fd =
  let state = fd_state t fd in
  match state.target with
  | File_fd node -> (state, node)
  | Sock_fd _ | Epoll_fd _ -> raise (Bad_fd fd)

let sock_state t fd =
  let state = fd_state t fd in
  match state.target with
  | Sock_fd s -> s
  | File_fd _ | Epoll_fd _ -> raise (Bad_fd fd)

(* --- files ------------------------------------------------------------------- *)

type open_flag = O_rdonly | O_wronly | O_rdwr | O_creat | O_trunc | O_append

let openf t ~path flags =
  syscall t;
  let has flag = List.mem flag flags in
  let node =
    match
      Vfs.open_node t.vfs ~path ~now:(Cycles.now t.rt.rt_clock)
        ~create:(has O_creat) ~trunc:(has O_trunc)
    with
    | Some node -> node
    | None -> raise (No_such_file path)
  in
  alloc_fd t
    {
      target = File_fd node;
      path;
      pos = 0;
      append = has O_append;
      readable = has O_rdonly || has O_rdwr || not (has O_wronly);
      writable = has O_wronly || has O_rdwr || has O_append;
    }

(* Drop [fd] from every epoll interest set, like the kernel does when the
   last reference to an open file description goes away. *)
let epoll_forget t fd =
  Hashtbl.iter
    (fun _ state ->
      match state.target with
      | Epoll_fd watched -> Hashtbl.remove watched fd
      | File_fd _ | Sock_fd _ -> ())
    t.fds

let close t fd =
  syscall t;
  if not (Hashtbl.mem t.fds fd) then raise (Bad_fd fd);
  Hashtbl.remove t.fds fd;
  epoll_forget t fd

let read t fd ~len =
  syscall t;
  let state, node = file_node t fd in
  if not state.readable then invalid_arg "Libos.read: fd not readable";
  (* The fd keeps the inode alive: reads work (and stay short past EOF)
     even after the path was unlinked. *)
  let data = Vfs.node_read t.vfs node ~pos:state.pos ~len in
  state.pos <- state.pos + Bytes.length data;
  charge_bytes t (Bytes.length data);
  data

let write t fd data =
  syscall t;
  let state, node = file_node t fd in
  if not state.writable then invalid_arg "Libos.write: fd not writable";
  (* O_APPEND: the write lands at the inode's current EOF regardless of
     any intervening lseek — the seek only repositions reads. *)
  let pos = if state.append then Vfs.node_size node else state.pos in
  let written = Vfs.node_write t.vfs node ~pos data in
  state.pos <- pos + written;
  charge_bytes t written;
  written

let lseek t fd ~pos =
  syscall t;
  let state = fd_state t fd in
  (match state.target with
  | File_fd _ -> ()
  | Sock_fd _ | Epoll_fd _ -> raise (Bad_fd fd));
  if pos < 0 || pos > max_file_bytes then raise (Bad_seek pos);
  state.pos <- pos;
  pos

let unlink t ~path =
  syscall t;
  if not (Vfs.unlink t.vfs ~path) then raise (No_such_file path)

let stat_size t ~path =
  syscall t;
  match Vfs.stat t.vfs ~path with
  | Some { Vfs.size; _ } -> size
  | None -> raise (No_such_file path)

let fstat_size t fd =
  syscall t;
  let _, node = file_node t fd in
  Vfs.node_size node

let list_dir t ~prefix =
  syscall t;
  Vfs.list_prefix t.vfs ~prefix

(* --- process/time -------------------------------------------------------------- *)

let getpid t =
  syscall t;
  t.pid

let clock_monotonic t =
  syscall t;
  Cycles.now t.rt.rt_clock

(* --- network ------------------------------------------------------------------- *)

let socket ?(loopback = false) t =
  syscall t;
  alloc_fd t
    {
      target =
        Sock_fd
          { inbuf = Buffer.create 64; in_pos = 0; outbuf = Buffer.create 64; loopback };
      path = "";
      pos = 0;
      append = false;
      readable = true;
      writable = true;
    }

let net_call t ~id data =
  t.forwarded <- t.forwarded + 1;
  if t.switchless_net then t.rt.rt_ocall_switchless ~id data
  else t.rt.rt_ocall ~id data

let send t fd data =
  syscall t;
  let s = sock_state t fd in
  if s.loopback then begin
    (* Loopback stays inside the enclave: the bytes land in the out-queue
       for the peer (the service shim) to drain — no OCALL, which is what
       lets ring-dispatched handlers do socket I/O at all. *)
    Buffer.add_bytes s.outbuf data;
    charge_bytes t (Bytes.length data);
    Bytes.length data
  end
  else
    let reply = net_call t ~id:t.net_send_ocall data in
    match int_of_string_opt (Bytes.to_string reply) with
    | Some n -> n
    | None -> invalid_arg "Libos.send: malformed host reply"

let sock_pending s = Buffer.length s.inbuf - s.in_pos

let recv t fd ~len =
  syscall t;
  let s = sock_state t fd in
  if s.loopback then begin
    (* Serve buffered bytes; an empty queue is a short (empty) read, the
       EWOULDBLOCK of this world — callers gate on epoll readiness. *)
    let avail = sock_pending s in
    let n = min (max len 0) avail in
    let data = Bytes.of_string (Buffer.sub s.inbuf s.in_pos n) in
    s.in_pos <- s.in_pos + n;
    if s.in_pos = Buffer.length s.inbuf then begin
      Buffer.clear s.inbuf;
      s.in_pos <- 0
    end;
    charge_bytes t n;
    data
  end
  else net_call t ~id:t.net_recv_ocall (Bytes.of_string (string_of_int len))

(* Host/plane side of a loopback socket: inject request bytes / drain the
   reply queue.  Not syscalls — this is the service shim's memcpy. *)

let sock_deliver t fd data =
  let s = sock_state t fd in
  if not s.loopback then raise (Bad_fd fd);
  Buffer.add_bytes s.inbuf data;
  charge_bytes t (Bytes.length data)

let sock_drain t fd =
  let s = sock_state t fd in
  if not s.loopback then raise (Bad_fd fd);
  let data = Buffer.to_bytes s.outbuf in
  Buffer.clear s.outbuf;
  charge_bytes t (Bytes.length data);
  data

(* --- epoll ---------------------------------------------------------------------- *)

type event = { rd : bool; wr : bool }

let epoll_create t =
  syscall t;
  alloc_fd t
    {
      target = Epoll_fd (Hashtbl.create 8);
      path = "";
      pos = 0;
      append = false;
      readable = false;
      writable = false;
    }

let epoll_table t epfd =
  match (fd_state t epfd).target with
  | Epoll_fd watched -> watched
  | File_fd _ | Sock_fd _ -> raise (Bad_fd epfd)

let epoll_add t ~epfd ~fd ~rd ~wr =
  syscall t;
  let watched = epoll_table t epfd in
  (match (fd_state t fd).target with
  | File_fd _ | Sock_fd _ -> ()
  | Epoll_fd _ -> raise (Bad_fd fd) (* no nested epoll *));
  Hashtbl.replace watched fd { want_rd = rd; want_wr = wr }

let epoll_del t ~epfd ~fd =
  syscall t;
  let watched = epoll_table t epfd in
  if not (Hashtbl.mem watched fd) then raise (Bad_fd fd);
  Hashtbl.remove watched fd

let readiness state =
  match state.target with
  | File_fd node ->
      {
        rd = state.readable && state.pos < Vfs.node_size node;
        wr = state.writable;
      }
  | Sock_fd s -> { rd = sock_pending s > 0; wr = state.writable }
  | Epoll_fd _ -> { rd = false; wr = false }

let epoll_wait t ~epfd =
  syscall t;
  let watched = epoll_table t epfd in
  t.rt.rt_compute (epoll_poll_cost * Hashtbl.length watched);
  Hashtbl.fold
    (fun fd interest acc ->
      match Hashtbl.find_opt t.fds fd with
      | None -> acc (* closed while watched; already forgotten normally *)
      | Some state ->
          let ready = readiness state in
          let rd = interest.want_rd && ready.rd in
          let wr = interest.want_wr && ready.wr in
          if rd || wr then (fd, { rd; wr }) :: acc else acc)
    watched []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

(* --- introspection --------------------------------------------------------------- *)

let stats t = { in_enclave = t.in_enclave; forwarded = t.forwarded }
let open_fds t = Hashtbl.length t.fds
