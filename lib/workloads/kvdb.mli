(** SQLite stand-in: an in-memory SQL-ish database running entirely inside
    the enclave (Fig. 8b).

    Matches the paper's methodology: the database is in-memory, the YCSB
    client is embedded in the enclave ("to avoid I/O operations"), records
    are 1 KB, workload A (50/50 read/update).  Per operation the engine
    parses a small SQL statement (really parsed, cycles charged per
    token), walks the B-tree (memory charges per touched node/record) and
    moves the record.  The EPC cliff appears on the SGX backend when
    records * 1 KB outgrows 93 MB. *)

open Hyperenclave_tee

val record_bytes : int
(** 1024, as in YCSB. *)

val handlers : unit -> (int * Backend.handler) list
(** Fresh database state per call — build one handler set per backend. *)

val load : Backend.t -> records:int -> int
(** Insert [records] 1 KB rows; returns simulated cycles. *)

val run_ops : Backend.t -> records:int -> ops:int -> int
(** Run [ops] YCSB-A operations against the loaded table; cycles.
    [records] must match the loaded count (keys are drawn from it). *)

val throughput_kops : cycles:int -> ops:int -> float
(** kilo-operations per simulated second at 2.2 GHz. *)

(** {1 Direct (in-process) engine access for unit tests} *)

module Engine : sig
  type t

  val create : unit -> t
  val exec : t -> string -> (string, string) result
  (** Mini-SQL: [INSERT INTO kv VALUES (k, 'v')], [SELECT v FROM kv WHERE
      k = n], [UPDATE kv SET v = 'x' WHERE k = n], [SELECT v FROM kv
      WHERE k BETWEEN a AND b] (range scan, capped at 1024 rows, returns
      ["N rows"]).  Returns the value for SELECT, ["ok"] otherwise. *)

  val btree : t -> Btree.t
end

val charge_engine : Backend.env -> Engine.t -> unit
(** Charge the fixed per-statement cost, heap scatter and the memory
    touches of whatever the engine just executed — the cost model the
    in-enclave handlers use, exposed for the service layer. *)

val stmt_of_op : Ycsb.op -> string
(** The SQL statement for a YCSB operation (scans become BETWEEN). *)

val value_literal : int -> string
