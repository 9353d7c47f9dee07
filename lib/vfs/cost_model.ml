type t = {
  block_size : int;
  disk_read_ms : float;
  disk_seq_read_ms : float;
  disk_write_ms : float;
  syscall_ms : float;
  copy_ms_per_kb : float;
  cpu_ns_per_posting : float;
  cpu_us_per_query_node : float;
  os_cache_blocks : int;
}

let default =
  {
    block_size = 8192;
    disk_read_ms = 9.0;
    disk_seq_read_ms = 9.0;
    disk_write_ms = 10.0;
    syscall_ms = 0.8;
    copy_ms_per_kb = 0.05;
    cpu_ns_per_posting = 7000.0;
    cpu_us_per_query_node = 20.0;
    os_cache_blocks = 512;
  }

let create ?(block_size = default.block_size) ?(disk_read_ms = default.disk_read_ms)
    ?disk_seq_read_ms
    ?(disk_write_ms = default.disk_write_ms) ?(syscall_ms = default.syscall_ms)
    ?(copy_ms_per_kb = default.copy_ms_per_kb)
    ?(cpu_ns_per_posting = default.cpu_ns_per_posting)
    ?(cpu_us_per_query_node = default.cpu_us_per_query_node)
    ?(os_cache_blocks = default.os_cache_blocks) () =
  if block_size <= 0 then invalid_arg "Cost_model.create: block_size must be positive";
  if os_cache_blocks <= 0 then
    invalid_arg "Cost_model.create: os_cache_blocks must be positive";
  let disk_seq_read_ms =
    match disk_seq_read_ms with Some v -> v | None -> disk_read_ms
  in
  {
    block_size;
    disk_read_ms;
    disk_seq_read_ms;
    disk_write_ms;
    syscall_ms;
    copy_ms_per_kb;
    cpu_ns_per_posting;
    cpu_us_per_query_node;
    os_cache_blocks;
  }

let engine_cpu_ms t ~postings ~nodes =
  (float_of_int postings *. t.cpu_ns_per_posting /. 1.0e6)
  +. (float_of_int nodes *. t.cpu_us_per_query_node /. 1.0e3)
