(** Hardware cost model for the simulated 1993 platform.

    The paper ran on a DECstation 5000/240 (40 MHz MIPS R3000) under
    ULTRIX with RZ25/RZ58 SCSI disks.  Tables 3 and 4 are, to first
    order, linear functions of the event counts in Table 5; the
    coefficients here were fitted from the paper's own rows: the
    TIPSTER B-tree row gives 861.75 s / 96 352 disk inputs ~ 9 ms per
    8 KB block input; the CACM rows (where almost all data is cached)
    pin the per-access syscall and per-KB copy costs; and the gap
    between Tables 3 and 4 implies tens of microseconds of inference
    CPU per posting on the 40 MHz R3000.  All simulated times flow
    through these constants so sensitivity studies can vary them in one
    place. *)

type t = {
  block_size : int;  (** disk transfer unit in bytes; the paper's 8 KB *)
  disk_read_ms : float;  (** per block read from the (simulated) disk
                             after a head movement (seek + transfer) *)
  disk_seq_read_ms : float;
      (** per block read sequentially after the previous one (transfer
          only).  Defaults to [disk_read_ms] — i.e. no seek modelling —
          which is the calibration the paper tables use; the seek-model
          ablation sets it lower. *)
  disk_write_ms : float;  (** per block written to the disk *)
  syscall_ms : float;  (** per file access (read/write system call) *)
  copy_ms_per_kb : float;  (** kernel->user copy per KB transferred *)
  cpu_ns_per_posting : float;  (** engine CPU per posting scored *)
  cpu_us_per_query_node : float;  (** engine CPU per query-tree node visit *)
  os_cache_blocks : int;  (** capacity of the simulated ULTRIX file cache *)
}

val default : t
(** The DESIGN.md constants. *)

val create :
  ?block_size:int ->
  ?disk_read_ms:float ->
  ?disk_seq_read_ms:float ->
  ?disk_write_ms:float ->
  ?syscall_ms:float ->
  ?copy_ms_per_kb:float ->
  ?cpu_ns_per_posting:float ->
  ?cpu_us_per_query_node:float ->
  ?os_cache_blocks:int ->
  unit ->
  t
(** [create ()] is [default]; each argument overrides one field.
    Raises [Invalid_argument] if [block_size <= 0] or
    [os_cache_blocks <= 0]. *)

val engine_cpu_ms : t -> postings:int -> nodes:int -> float
(** Simulated engine CPU for one evaluation: [postings] scored at
    [cpu_ns_per_posting] plus [nodes] query-tree node visits at
    [cpu_us_per_query_node], in milliseconds. *)
