let file = "torture.mneme"
let log_file = "torture.log"

(* ------------------------------------------------------------------ *)
(* The workload: a journaled build followed by update batches, every
   transaction ending with a finalize so the on-disk store is
   self-describing at each commit point.  Everything is driven by a
   seeded PRNG, so a replay performs the identical operation (and
   physical I/O) sequence until its crash point fires.  The [mirror]
   table tracks what a perfect store would hold; [committed] receives it
   after each commit so the caller can snapshot expected contents per
   generation. *)

let payload rng cls =
  let len =
    match cls with
    | 0 -> 1 + Random.State.int rng 12 (* fits the small pool's 12-byte slots *)
    | 1 -> 64 + Random.State.int rng 1985
    | _ -> 5000 + Random.State.int rng 4001
  in
  Bytes.init len (fun _ -> Char.chr (Random.State.int rng 256))

let class_of_size n = if n <= 12 then 0 else if n <= 4096 then 1 else 2

let workload vfs ~seed ~docs ~update_batches ~txn_begin ~committed ~got_gen =
  let rng = Random.State.make [| seed |] in
  let store = Mneme.Store.create vfs file in
  let small = Mneme.Store.add_pool store Mneme.Policy.small in
  let medium = Mneme.Store.add_pool store Mneme.Policy.medium in
  let large = Mneme.Store.add_pool store Mneme.Policy.large in
  List.iter
    (fun (pool, name) ->
      Mneme.Store.attach_buffer pool
        (Mneme.Buffer_pool.create ~name ~capacity:(256 * 1024) ()))
    [ (small, "small"); (medium, "medium"); (large, "large") ];
  Mneme.Store.enable_journal store ~log_file;
  let pool_for cls = match cls with 0 -> small | 1 -> medium | _ -> large in
  let mirror = Hashtbl.create 64 in
  let live = ref [] in
  let gen = ref (-1) in
  let fresh_object () =
    let cls = Random.State.int rng 3 in
    let b = payload rng cls in
    let oid = Mneme.Store.allocate (pool_for cls) b in
    Hashtbl.replace mirror oid (Bytes.copy b);
    live := oid :: !live
  in
  (* Transaction 0: the index build. *)
  txn_begin 0;
  Mneme.Store.transact store (fun () ->
      let gb = Bytes.of_string "gen 0" in
      let g = Mneme.Store.allocate small gb in
      gen := g;
      got_gen g;
      Hashtbl.replace mirror g gb;
      for _ = 1 to docs do
        fresh_object ()
      done;
      Mneme.Store.finalize store);
  committed 0 mirror;
  (* Update batches: modify, delete, allocate, bump the generation. *)
  for i = 1 to update_batches do
    txn_begin i;
    Mneme.Store.transact store (fun () ->
        let arr = Array.of_list !live in
        let n_mod = max 1 (Array.length arr / 4) in
        for _ = 1 to n_mod do
          let oid = arr.(Random.State.int rng (Array.length arr)) in
          match Hashtbl.find_opt mirror oid with
          | None -> () (* deleted earlier in this batch *)
          | Some old ->
            let b = payload rng (class_of_size (Bytes.length old)) in
            Mneme.Store.modify store oid b;
            Hashtbl.replace mirror oid (Bytes.copy b)
        done;
        (match !live with
        | victim :: rest when List.length rest > 2 ->
          Mneme.Store.delete store victim;
          Hashtbl.remove mirror victim;
          live := rest
        | _ -> ());
        fresh_object ();
        fresh_object ();
        let gb = Bytes.of_string (Printf.sprintf "gen %d" i) in
        Mneme.Store.modify store !gen gb;
        Hashtbl.replace mirror !gen gb;
        Mneme.Store.finalize store);
    committed i mirror
  done

(* ------------------------------------------------------------------ *)
(* Crash-point enumeration. *)

type plan = {
  seed : int;
  docs : int;
  update_batches : int;
  crash_points : int;
  snapshots : (Mneme.Oid.t, bytes) Hashtbl.t array; (* index = generation *)
  gen_oid : Mneme.Oid.t;
}

let prepare ?(seed = 42) ?(docs = 12) ?(update_batches = 3) () =
  if docs < 0 || update_batches < 0 then
    invalid_arg "Torture.prepare: docs and update_batches must be non-negative";
  let vfs = Vfs.create () in
  Vfs.set_fault vfs (Vfs.Fault.none ());
  let snapshots = Array.init (update_batches + 1) (fun _ -> Hashtbl.create 0) in
  let gen_oid = ref (-1) in
  workload vfs ~seed ~docs ~update_batches
    ~txn_begin:(fun _ -> ())
    ~committed:(fun i mirror -> snapshots.(i) <- Hashtbl.copy mirror)
    ~got_gen:(fun g -> gen_oid := g);
  {
    seed;
    docs;
    update_batches;
    crash_points = Vfs.fault_io_count vfs;
    snapshots;
    gen_oid = !gen_oid;
  }

let crash_points plan = plan.crash_points

type point_report = {
  crash_at : int;
  recovery : Mneme.Journal.recovery;
  opened : bool;
  problems : string list;
}

let run_point plan k =
  if k < 1 || k > plan.crash_points then
    invalid_arg
      (Printf.sprintf "Torture.run_point: crash point %d outside 1..%d" k plan.crash_points);
  let problems = ref [] in
  let note fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let vfs = Vfs.create () in
  Vfs.set_fault vfs (Vfs.Fault.crash_at_io k);
  let started = ref 0 and completed = ref 0 in
  (try
     workload vfs ~seed:plan.seed ~docs:plan.docs ~update_batches:plan.update_batches
       ~txn_begin:(fun _ -> incr started)
       ~committed:(fun _ _ -> incr completed)
       ~got_gen:(fun _ -> ());
     note "workload ran to completion without crashing at io %d" k
   with Vfs.Crash -> ());
  (* Reboot: only durable blocks survive; recover, then audit. *)
  let img = Vfs.crash_image vfs in
  let recovery = Mneme.Store.recover_journal img ~file ~log_file in
  let opened =
    match Mneme.Store.open_existing img file with
    | exception Mneme.Store.Corrupt msg ->
      if !completed > 0 then
        note "store unopenable after %d completed commits: %s" !completed msg;
      false
    | store ->
      List.iter
        (fun (policy, name) ->
          let pool = Mneme.Store.add_pool store policy in
          Mneme.Store.attach_buffer pool
            (Mneme.Buffer_pool.create ~name ~capacity:(256 * 1024) ()))
        [
          (Mneme.Policy.small, "small");
          (Mneme.Policy.medium, "medium");
          (Mneme.Policy.large, "large");
        ];
      (match Mneme.Store.get store plan.gen_oid with
      | exception e -> note "generation object unreadable: %s" (Printexc.to_string e)
      | gb -> (
        match Scanf.sscanf_opt (Bytes.to_string gb) "gen %d" (fun g -> g) with
        | None -> note "generation object holds %S" (Bytes.to_string gb)
        | Some g ->
          (* The recovered generation must be a transaction the workload
             committed (>= completed - 1: a commit the replay saw finish
             cannot be rolled back) or at most one it had started
             (<= started - 1: the log fsync may have sealed a commit the
             crash then interrupted). *)
          if g < !completed - 1 || g > !started - 1 then
            note "recovered generation %d outside [%d, %d]" g (!completed - 1) (!started - 1)
          else begin
            let report = Mneme.Check.run store in
            if not (Mneme.Check.ok report) then
              note "fsck: %s" (Format.asprintf "%a" Mneme.Check.pp_report report);
            let snap = plan.snapshots.(g) in
            let expect = Hashtbl.length snap in
            if Mneme.Store.object_count store <> expect then
              note "store holds %d objects, generation %d committed %d"
                (Mneme.Store.object_count store)
                g expect;
            Hashtbl.iter
              (fun oid b ->
                match Mneme.Store.get store oid with
                | exception e ->
                  note "object %d lost after recovery: %s" oid (Printexc.to_string e)
                | b' ->
                  if not (Bytes.equal b b') then
                    note "object %d contents differ after recovery" oid)
              snap
          end));
      true
  in
  { crash_at = k; recovery; opened; problems = List.rev !problems }

type outcome = {
  crash_points : int;
  opened : int;
  unopenable : int;
  replayed : int;
  discarded : int;
  clean : int;
  problems : (int * string) list;
}

(* ------------------------------------------------------------------ *)
(* The shared fault-at-every-I/O sweep.  Every torture family follows
   the same discipline: enumerate the golden run's physical I/Os, replay
   the scenario once per point with a fault armed at that I/O, tally the
   replay, and collect its problems tagged with the point.  [replay]
   returns the point's problem list after updating whatever counters the
   family keeps; [seed_problems] (golden-run audit violations) come back
   tagged with point 0. *)

let sweep_points ?(seed_problems = []) ~points replay =
  let problems = ref (List.rev_map (fun p -> (0, p)) seed_problems) in
  for k = 1 to points do
    List.iter (fun p -> problems := (k, p) :: !problems) (replay k)
  done;
  List.rev !problems

(* The journal-recovery census the store-level sweeps report. *)
let tally_recovery ~replayed ~discarded ~clean = function
  | Mneme.Journal.Replayed _ -> incr replayed
  | Mneme.Journal.Discarded _ -> incr discarded
  | Mneme.Journal.Clean -> incr clean

let run ?seed ?docs ?update_batches () =
  let plan = prepare ?seed ?docs ?update_batches () in
  let opened = ref 0
  and unopenable = ref 0
  and replayed = ref 0
  and discarded = ref 0
  and clean = ref 0 in
  let problems =
    sweep_points ~points:plan.crash_points (fun k ->
        let r = run_point plan k in
        if r.opened then incr opened else incr unopenable;
        tally_recovery ~replayed ~discarded ~clean r.recovery;
        r.problems)
  in
  {
    crash_points = plan.crash_points;
    opened = !opened;
    unopenable = !unopenable;
    replayed = !replayed;
    discarded = !discarded;
    clean = !clean;
    problems;
  }

(* ------------------------------------------------------------------ *)
(* Failover torture: the same discipline pointed at replication.  The
   workload is an incremental index build shipped through a replica
   group; the audit promotes a standby and demands the committed prefix
   back, down to byte-identical ranked query results. *)

let failover_file = "failover.mneme"
let failover_log = "failover.log"

let failover_queries =
  let t r = Collections.Synth.core_term ~rank:r in
  [
    t 1;
    Printf.sprintf "#sum( %s %s %s )" (t 1) (t 2) (t 3);
    Printf.sprintf "#and( %s %s )" (t 2) (t 3);
  ]

(* A bare index session over an already-open store (no separate buffer
   bookkeeping — the pools' own buffers serve the faults). *)
let session_over store =
  {
    Index_store.name = "failover";
    fetch =
      (fun entry ->
        let locator = entry.Inquery.Dictionary.locator in
        if locator < 0 then None else Mneme.Store.get_opt store locator);
    reserve = Index_store.no_reserve;
    buffer_stats = (fun () -> []);
    reset_buffer_stats = (fun () -> ());
    file_size = (fun () -> Mneme.Store.file_size store);
    epoch = (fun () -> Mneme.Store.epoch store);
    attach_frames = Index_store.no_frames;
    fetch_resident = Index_store.never_resident;
  }

let score_fingerprint ranked =
  List.map
    (fun r -> (r.Inquery.Ranking.doc, Printf.sprintf "%.9f" r.Inquery.Ranking.score))
    ranked

let run_failover_queries vfs store dict ~n_docs ~avg_doc_len ~doc_len =
  let engine =
    Engine.create ~vfs ~store:(session_over store) ~dict ~n_docs ~avg_doc_len ~doc_len ()
  in
  List.map
    (fun q -> score_fingerprint (Engine.run_query_string ~top_k:10 engine q).Engine.ranked)
    failover_queries

let attach_pools store =
  List.iter
    (fun (policy, name) ->
      let pool = Mneme.Store.add_pool store policy in
      Mneme.Store.attach_buffer pool (Mneme.Buffer_pool.create ~name ~capacity:(256 * 1024) ()))
    [
      (Mneme.Policy.small, "small"); (Mneme.Policy.medium, "medium"); (Mneme.Policy.large, "large");
    ]

(* The journal-shipping workload.  Batch [i] (1-based) indexes its slice
   of the documents, then — inside one journal transaction — lands every
   new term record, grows changed ones in place (or migrates them across
   pools when they change size class), updates the generation object,
   and finalizes.  After each commit the fixed query set runs against
   the primary; the queries are part of the deterministic I/O sequence,
   so replays stay aligned with the golden run. *)
let failover_workload vfs ~standbys ~seed ~docs ~batches ~txn_begin ~ready ~committed =
  let model =
    Collections.Docmodel.make ~name:"failover" ~n_docs:docs ~core_vocab:120
      ~mean_doc_len:30.0 ~hapax_prob:0.05 ~seed ()
  in
  let doc_arr = Array.of_seq (Collections.Synth.documents model) in
  let store = Mneme.Store.create vfs failover_file in
  let small = Mneme.Store.add_pool store Mneme.Policy.small in
  let medium = Mneme.Store.add_pool store Mneme.Policy.medium in
  let large = Mneme.Store.add_pool store Mneme.Policy.large in
  List.iter
    (fun (pool, name) ->
      Mneme.Store.attach_buffer pool (Mneme.Buffer_pool.create ~name ~capacity:(256 * 1024) ()))
    [ (small, "small"); (medium, "medium"); (large, "large") ];
  Mneme.Store.enable_journal store ~log_file:failover_log;
  let rep =
    Mneme.Replica.attach store
      ~standbys:(List.init standbys (fun i -> (Printf.sprintf "standby-%d" (i + 1), Vfs.create ())))
  in
  ready rep;
  let pool_of cls =
    match Partition.class_name cls with
    | "small" -> small
    | "medium" -> medium
    | _ -> large
  in
  let indexer = Inquery.Indexer.create () in
  let dict = Inquery.Indexer.dictionary indexer in
  let prev = Hashtbl.create 64 in (* term id -> last stored record *)
  let mirror = Hashtbl.create 64 in (* oid -> expected bytes *)
  let gen_oid = ref (-1) in
  for i = 1 to batches do
    let lo = (i - 1) * docs / batches and hi = i * docs / batches in
    txn_begin i;
    Mneme.Store.transact store (fun () ->
        for d = lo to hi - 1 do
          let doc = doc_arr.(d) in
          Inquery.Indexer.add_document_terms indexer ~doc_id:doc.Collections.Synth.id
            doc.Collections.Synth.terms
        done;
        Inquery.Indexer.to_records indexer
        |> Seq.iter (fun (tid, record) ->
               let entry =
                 match Inquery.Dictionary.find_by_id dict tid with
                 | Some e -> e
                 | None -> assert false
               in
               match Hashtbl.find_opt prev tid with
               | Some old when Bytes.equal old record -> ()
               | Some old ->
                 let oid = entry.Inquery.Dictionary.locator in
                 let old_cls = Partition.classify (Bytes.length old)
                 and new_cls = Partition.classify (Bytes.length record) in
                 if old_cls = new_cls then begin
                   Mneme.Store.modify store oid record;
                   Hashtbl.replace mirror oid (Bytes.copy record)
                 end
                 else begin
                   (* Size-class migration: the record moves pools and
                      gets a fresh oid; the dictionary locator follows. *)
                   Mneme.Store.delete store oid;
                   Hashtbl.remove mirror oid;
                   let oid' = Mneme.Store.allocate (pool_of new_cls) record in
                   entry.Inquery.Dictionary.locator <- oid';
                   Hashtbl.replace mirror oid' (Bytes.copy record)
                 end;
                 Hashtbl.replace prev tid (Bytes.copy record)
               | None ->
                 let cls = Partition.classify (Bytes.length record) in
                 let oid = Mneme.Store.allocate (pool_of cls) record in
                 entry.Inquery.Dictionary.locator <- oid;
                 Hashtbl.replace mirror oid (Bytes.copy record);
                 Hashtbl.replace prev tid (Bytes.copy record));
        let gb = Bytes.of_string (Printf.sprintf "gen %d" i) in
        if i = 1 then gen_oid := Mneme.Store.allocate small gb
        else Mneme.Store.modify store !gen_oid gb;
        Hashtbl.replace mirror !gen_oid gb;
        Mneme.Store.finalize store);
    let ranked =
      run_failover_queries vfs store dict ~n_docs:(Inquery.Indexer.document_count indexer)
        ~avg_doc_len:(Inquery.Indexer.avg_doc_length indexer)
        ~doc_len:(Inquery.Indexer.doc_length indexer)
    in
    committed i ~mirror ~indexer ~ranked ~gen_oid:!gen_oid
  done;
  store

type failover_plan = {
  fo_seed : int;
  fo_docs : int;
  fo_batches : int;
  fo_standbys : int;
  fo_points : int;
  fo_snapshots : (Mneme.Oid.t, bytes) Hashtbl.t array; (* index = generation, 0 unused *)
  fo_ranked : (int * string) list list array;
  fo_scratch : Vfs.t; (* holds one catalog file per generation *)
  fo_gen_oid : Mneme.Oid.t;
}

let catalog_file_for gen = Printf.sprintf "failover-cat.%d" gen

let prepare_failover ?(seed = 42) ?(docs = 12) ?(batches = 3) ?(standbys = 2) () =
  if docs < 1 || batches < 1 || standbys < 1 then
    invalid_arg "Torture.prepare_failover: docs, batches and standbys must be positive";
  let vfs = Vfs.create () in
  Vfs.set_fault vfs (Vfs.Fault.none ());
  let scratch = Vfs.create () in
  let snapshots = Array.init (batches + 1) (fun _ -> Hashtbl.create 0) in
  let ranked = Array.make (batches + 1) [] in
  let gen_oid = ref (-1) in
  ignore
    (failover_workload vfs ~standbys ~seed ~docs ~batches
       ~txn_begin:(fun _ -> ())
       ~ready:(fun _ -> ())
       ~committed:(fun i ~mirror ~indexer ~ranked:r ~gen_oid:g ->
         snapshots.(i) <- Hashtbl.copy mirror;
         ranked.(i) <- r;
         gen_oid := g;
         Catalog.save scratch ~file:(catalog_file_for i) (Catalog.of_indexer indexer)));
  {
    fo_seed = seed;
    fo_docs = docs;
    fo_batches = batches;
    fo_standbys = standbys;
    fo_points = Vfs.fault_io_count vfs;
    fo_snapshots = snapshots;
    fo_ranked = ranked;
    fo_scratch = scratch;
    fo_gen_oid = !gen_oid;
  }

let failover_points plan = plan.fo_points

type failover_report = {
  crash_at : int;
  survivor : string;
  applied_lsn : int;
  problems : string list;
}

let run_failover_point plan k =
  if k < 1 || k > plan.fo_points then
    invalid_arg
      (Printf.sprintf "Torture.run_failover_point: crash point %d outside 1..%d" k
         plan.fo_points);
  let problems = ref [] in
  let note fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let vfs = Vfs.create () in
  Vfs.set_fault vfs (Vfs.Fault.crash_at_io k);
  let rep = ref None in
  let started = ref 0 and completed = ref 0 in
  (try
     ignore
       (failover_workload vfs ~standbys:plan.fo_standbys ~seed:plan.fo_seed
          ~docs:plan.fo_docs ~batches:plan.fo_batches
          ~txn_begin:(fun _ -> incr started)
          ~ready:(fun r -> rep := Some r)
          ~committed:(fun _ ~mirror:_ ~indexer:_ ~ranked:_ ~gen_oid:_ -> incr completed));
     note "workload ran to completion without crashing at io %d" k
   with Vfs.Crash -> ());
  match !rep with
  | None ->
    (* Died while the group was being attached — nothing was ever
       committed, so there is legitimately nothing to promote. *)
    if !completed > 0 then note "replica group lost %d commits" !completed;
    { crash_at = k; survivor = "none"; applied_lsn = -1; problems = List.rev !problems }
  | Some rep -> (
    match Mneme.Replica.promote rep with
    | exception Failure _ ->
      if !completed > 0 then
        note "no healthy standby to promote after %d commits" !completed;
      { crash_at = k; survivor = "none"; applied_lsn = -1; problems = List.rev !problems }
    | info, svfs ->
      let g = info.Mneme.Replica.applied_lsn in
      (* A commit the workload saw finish must have shipped; nothing
         past the last started batch can have. *)
      if g < !completed || g > !started then
        note "survivor applied lsn %d outside [%d, %d]" g !completed !started;
      if g >= 1 then begin
        match Mneme.Store.open_existing svfs failover_file with
        | exception Mneme.Store.Corrupt msg -> note "promoted store unopenable: %s" msg
        | store ->
          attach_pools store;
          (match Mneme.Store.get store plan.fo_gen_oid with
          | exception e -> note "generation object unreadable: %s" (Printexc.to_string e)
          | gb ->
            let expect = Printf.sprintf "gen %d" g in
            if Bytes.to_string gb <> expect then
              note "generation object holds %S, expected %S" (Bytes.to_string gb) expect);
          let report = Mneme.Check.run store in
          if not (Mneme.Check.ok report) then
            note "fsck: %s" (Format.asprintf "%a" Mneme.Check.pp_report report);
          let snap = plan.fo_snapshots.(g) in
          if Mneme.Store.object_count store <> Hashtbl.length snap then
            note "promoted store holds %d objects, generation %d committed %d"
              (Mneme.Store.object_count store) g (Hashtbl.length snap);
          Hashtbl.iter
            (fun oid b ->
              match Mneme.Store.get store oid with
              | exception e ->
                note "object %d lost after failover: %s" oid (Printexc.to_string e)
              | b' -> if not (Bytes.equal b b') then note "object %d differs after failover" oid)
            snap;
          (* The paying customer's view: identical ranked results for
             the committed prefix. *)
          let catalog = Catalog.load plan.fo_scratch ~file:(catalog_file_for g) in
          let ranked =
            run_failover_queries svfs store catalog.Catalog.dict
              ~n_docs:catalog.Catalog.n_docs
              ~avg_doc_len:(Catalog.avg_doc_length catalog)
              ~doc_len:(fun d ->
                if d < 0 || d >= Array.length catalog.Catalog.doc_lens then 0
                else catalog.Catalog.doc_lens.(d))
          in
          if ranked <> plan.fo_ranked.(g) then
            note "ranked results differ from the committed generation %d" g
      end;
      { crash_at = k; survivor = info.Mneme.Replica.name; applied_lsn = g;
        problems = List.rev !problems })

type failover_outcome = {
  points : int;
  promoted : int;
  empty : int;
  problems : (int * string) list;
}

let run_failover ?seed ?docs ?batches ?standbys () =
  let plan = prepare_failover ?seed ?docs ?batches ?standbys () in
  let promoted = ref 0 and empty = ref 0 in
  let problems =
    sweep_points ~points:plan.fo_points (fun k ->
        let r = run_failover_point plan k in
        if r.applied_lsn >= 1 then incr promoted else incr empty;
        r.problems)
  in
  { points = plan.fo_points; promoted = !promoted; empty = !empty; problems }

let pp_failover_outcome fmt o =
  Format.fprintf fmt
    "%d crash points: %d promoted a caught-up standby, %d died before anything committed"
    o.points o.promoted o.empty;
  if o.problems <> [] then begin
    Format.fprintf fmt "@.%d problem(s):" (List.length o.problems);
    List.iter (fun (k, p) -> Format.fprintf fmt "@.  crash at io %d: %s" k p) o.problems
  end

(* ------------------------------------------------------------------ *)
(* Scrub torture: the bit-rot sweep.  Build the replicated workload once,
   then for every physical segment flip bits on one member's copy
   (round-robin across primary and standbys), demand that a scrub of the
   whole group finds exactly that damage, that one group heal converges
   every member back to fsck-clean byte-identical files with the golden
   ranked results and zero quarantines — and that a crash at any I/O of
   the repair itself leaves the group convergeable. *)

type scrub_scenario = {
  ss_vfs : Vfs.t; (* primary device *)
  ss_store : Mneme.Store.t;
  ss_rep : Mneme.Replica.t;
  ss_dict : Inquery.Dictionary.t;
  ss_n_docs : int;
  ss_avg : float;
  ss_doc_len : int -> int;
  ss_segments : Mneme.Scrub.damage array; (* full census, scrub walk order *)
  ss_members : string array; (* "primary" first, then standbys in attach order *)
  ss_ranked : (int * string) list list; (* golden results of [failover_queries] *)
}

let build_scrub_scenario ?(seed = 42) ?(docs = 12) ?(batches = 3) ?(standbys = 2) () =
  if docs < 1 || batches < 1 || standbys < 1 then
    invalid_arg "Torture.build_scrub_scenario: docs, batches and standbys must be positive";
  let vfs = Vfs.create () in
  let rep = ref None in
  let last = ref None in
  let store =
    failover_workload vfs ~standbys ~seed ~docs ~batches
      ~txn_begin:(fun _ -> ())
      ~ready:(fun r -> rep := Some r)
      ~committed:(fun _ ~mirror:_ ~indexer ~ranked ~gen_oid:_ -> last := Some (indexer, ranked))
  in
  let rep = Option.get !rep in
  let indexer, ranked = Option.get !last in
  let segments =
    Mneme.Store.pools store
    |> List.concat_map (fun pool ->
           let pname = Mneme.Store.pool_name pool in
           Mneme.Store.pool_segments pool
           |> List.filter_map (fun (id, _) ->
                  Mneme.Scrub.damage_of_segment store ~pool:pname ~pseg:id))
    |> Array.of_list
  in
  let members =
    Array.of_list
      ("primary" :: List.map (fun i -> i.Mneme.Replica.name) (Mneme.Replica.info rep))
  in
  {
    ss_vfs = vfs;
    ss_store = store;
    ss_rep = rep;
    ss_dict = Inquery.Indexer.dictionary indexer;
    ss_n_docs = Inquery.Indexer.document_count indexer;
    ss_avg = Inquery.Indexer.avg_doc_length indexer;
    ss_doc_len = Inquery.Indexer.doc_length indexer;
    ss_segments = segments;
    ss_members = members;
    ss_ranked = ranked;
  }

let scenario_segments scn = Array.length scn.ss_segments
let scenario_member_names scn = Array.to_list scn.ss_members

let member_vfs scn name =
  if String.equal name "primary" then scn.ss_vfs
  else Mneme.Replica.standby_vfs scn.ss_rep ~name

(* Flip [bits] distinct bits inside one member's on-disk copy of the
   given segment's extent: purge its OS cache so the next read is a
   physical I/O, arm a ranged flip plan on that I/O, and take the fault
   with a one-byte read.  Damages both the OS view and the durable
   image, exactly like real bit rot. *)
let scenario_rot scn ~member ~segment ?(bits = 1) ~seed () =
  if segment < 0 || segment >= Array.length scn.ss_segments then
    invalid_arg
      (Printf.sprintf "Torture.scenario_rot: segment %d outside 0..%d" segment
         (Array.length scn.ss_segments - 1));
  if not (Array.exists (String.equal member) scn.ss_members) then
    invalid_arg (Printf.sprintf "Torture.scenario_rot: unknown member %s" member);
  let d = scn.ss_segments.(segment) in
  let off = d.Mneme.Scrub.off and len = d.Mneme.Scrub.len in
  let mvfs = member_vfs scn member in
  Vfs.purge_os_cache mvfs;
  Vfs.set_fault mvfs
    (Vfs.Fault.flip_bits_on_read ~io:1 ~seed ~first:off ~last:(off + len - 1) ~bits ());
  let f = Vfs.open_file mvfs failover_file in
  ignore (Vfs.read f ~off ~len:1);
  Vfs.clear_fault mvfs

(* Scrub one member's copy fresh from its disk.  Standby copies are
   opened as read-only stores of their own. *)
let scrub_member scn name =
  if String.equal name "primary" then Mneme.Scrub.run scn.ss_store
  else begin
    let svfs = Mneme.Replica.standby_vfs scn.ss_rep ~name in
    match Mneme.Store.open_existing svfs failover_file with
    | exception Mneme.Store.Corrupt _ ->
      (* The directory itself is unreadable: every segment is suspect. *)
      Array.to_list scn.ss_segments
    | store ->
      attach_pools store;
      Mneme.Scrub.run store
  end

let scrub_group scn =
  Array.to_list scn.ss_members
  |> List.concat_map (fun m -> List.map (fun d -> (m, d)) (scrub_member scn m))

(* One group heal to fixpoint: scrub every member, push each damaged
   segment through {!Mneme.Replica.heal_segment} (a journaled rewrite on
   the primary whose commit ships to every standby, so one heal converges
   the whole group), and rescrub until a pass finds nothing. *)
let heal_group scn =
  let healed = ref 0 and failures = ref [] in
  let rec go budget =
    let worklist = scrub_group scn |> List.map snd |> List.sort_uniq compare in
    if worklist <> [] then begin
      if budget = 0 then failures := "scrub did not reach a clean fixpoint" :: !failures
      else begin
        let ok = ref true in
        List.iter
          (fun d ->
            match
              Mneme.Replica.heal_segment scn.ss_rep ~store:scn.ss_store
                ~pool:d.Mneme.Scrub.pool ~pseg:d.Mneme.Scrub.pseg
            with
            | Ok _ -> incr healed
            | Error e ->
              ok := false;
              failures :=
                Printf.sprintf "heal of %s/pseg %d failed: %s" d.Mneme.Scrub.pool
                  d.Mneme.Scrub.pseg e
                :: !failures)
          worklist;
        if !ok then go (budget - 1)
      end
    end
  in
  go 3;
  (!healed, List.rev !failures)

(* The member set as (name, device, open store) triples, primary's own
   handle first. *)
let member_stores scn =
  Array.to_list scn.ss_members
  |> List.map (fun name ->
         if String.equal name "primary" then (name, scn.ss_vfs, scn.ss_store)
         else begin
           let svfs = Mneme.Replica.standby_vfs scn.ss_rep ~name in
           let st = Mneme.Store.open_existing svfs failover_file in
           attach_pools st;
           (name, svfs, st)
         end)

(* Converge a set of peer copies with no replica group left (the primary
   crashed mid-heal): scrub every copy, heal each damaged segment from
   the first other member holding a verified copy, repeat to fixpoint. *)
let converge_members ~note members =
  let rec go budget =
    let worklist =
      List.concat_map
        (fun (name, _, store) -> List.map (fun d -> (name, d)) (Mneme.Scrub.run store))
        members
    in
    if worklist <> [] then begin
      if budget = 0 then note "scrub did not converge to a clean group within 3 rounds"
      else begin
        let ok = ref true in
        List.iter
          (fun (name, d) ->
            let _, _, store = List.find (fun (n, _, _) -> String.equal n name) members in
            let sources =
              List.filter_map
                (fun (n, v, _) -> if String.equal n name then None else Some (n, v))
                members
            in
            match Mneme.Scrub.heal store ~sources d with
            | Ok _ -> ()
            | Error e ->
              ok := false;
              note
                (Printf.sprintf "heal of %s %s/pseg %d failed: %s" name d.Mneme.Scrub.pool
                   d.Mneme.Scrub.pseg e))
          worklist;
        if !ok then go (budget - 1)
      end
    end
  in
  go 3

(* The full convergence audit: every member's store passes fsck, every
   data file is byte-identical to the first member's, and a fresh engine
   over the first member returns the golden ranked results with an empty
   quarantine. *)
let audit_members ~note ~golden members =
  List.iter
    (fun (name, _, store) ->
      let report = Mneme.Check.run store in
      if not (Mneme.Check.ok report) then
        note
          (Printf.sprintf "%s fsck: %s" name
             (Format.asprintf "%a" Mneme.Check.pp_report report)))
    members;
  match members with
  | [] -> ()
  | (pname, pvfs, pstore) :: rest ->
    let bytes_of vfs =
      let f = Vfs.open_file vfs failover_file in
      let n = Vfs.size f in
      if n = 0 then Bytes.empty else Vfs.read f ~off:0 ~len:n
    in
    let gold = bytes_of pvfs in
    List.iter
      (fun (name, vfs, _) ->
        if not (Bytes.equal gold (bytes_of vfs)) then
          note (Printf.sprintf "%s's data file differs byte-for-byte from %s's" name pname))
      rest;
    let engine =
      Engine.create ~vfs:pvfs ~store:(session_over pstore) ~dict:golden.ss_dict
        ~n_docs:golden.ss_n_docs ~avg_doc_len:golden.ss_avg ~doc_len:golden.ss_doc_len ()
    in
    let ranked =
      List.map
        (fun q -> score_fingerprint (Engine.run_query_string ~top_k:10 engine q).Engine.ranked)
        failover_queries
    in
    if ranked <> golden.ss_ranked then note "ranked results differ from the golden run";
    (match Engine.quarantined engine with
    | [] -> ()
    | qs -> note (Printf.sprintf "%d term(s) quarantined after heal" (List.length qs)))

let audit_scenario scn =
  let problems = ref [] in
  audit_members ~note:(fun s -> problems := s :: !problems) ~golden:scn (member_stores scn);
  List.rev !problems

(* One crash-during-repair replay.  [k = 0] runs the heal under a
   counting plan and returns its primary I/O count; [k >= 1] crashes the
   primary device at heal I/O [k], reboots from the crash image through
   journal recovery, converges the survivors as plain peers, audits. *)
let scrub_crash_run ~seed ~docs ~batches ~standbys ~bits ~segment ~note k =
  let scn = build_scrub_scenario ~seed ~docs ~batches ~standbys () in
  let member = scn.ss_members.(segment mod Array.length scn.ss_members) in
  let d = scn.ss_segments.(segment) in
  scenario_rot scn ~member ~segment ~bits ~seed:(seed + (101 * segment)) ();
  Vfs.purge_os_cache scn.ss_vfs;
  if k = 0 then begin
    Vfs.set_fault scn.ss_vfs (Vfs.Fault.none ());
    (match
       Mneme.Replica.heal_segment scn.ss_rep ~store:scn.ss_store ~pool:d.Mneme.Scrub.pool
         ~pseg:d.Mneme.Scrub.pseg
     with
    | Ok _ -> ()
    | Error e -> note (Printf.sprintf "measuring heal failed: %s" e));
    Vfs.fault_io_count scn.ss_vfs
  end
  else begin
    Vfs.set_fault scn.ss_vfs (Vfs.Fault.crash_at_io k);
    (match
       Mneme.Replica.heal_segment scn.ss_rep ~store:scn.ss_store ~pool:d.Mneme.Scrub.pool
         ~pseg:d.Mneme.Scrub.pseg
     with
    | exception Vfs.Crash -> ()
    | Ok _ | Error _ ->
      note (Printf.sprintf "heal finished without crashing at io %d" k));
    let img = Vfs.crash_image scn.ss_vfs in
    ignore (Mneme.Store.recover_journal img ~file:failover_file ~log_file:failover_log);
    (match Mneme.Store.open_existing img failover_file with
    | exception Mneme.Store.Corrupt msg ->
      note (Printf.sprintf "crash at heal io %d: rebooted primary unopenable: %s" k msg)
    | pstore ->
      attach_pools pstore;
      let members =
        ("primary", img, pstore)
        :: List.map
             (fun i ->
               let name = i.Mneme.Replica.name in
               let svfs = Mneme.Replica.standby_vfs scn.ss_rep ~name in
               let st = Mneme.Store.open_existing svfs failover_file in
               attach_pools st;
               (name, svfs, st))
             (Mneme.Replica.info scn.ss_rep)
      in
      converge_members ~note members;
      audit_members ~note ~golden:scn members);
    0
  end

type scrub_outcome = {
  sc_segments : int;
  sc_members : int;
  sc_healed : int;
  sc_crash_points : int;
  sc_problems : (int * string) list;
}

let scrub_ok o = o.sc_problems = []

let run_scrub ?(seed = 42) ?(docs = 12) ?(batches = 3) ?(standbys = 2) ?(bits = 1)
    ?(crash_sweep = true) () =
  let scn = build_scrub_scenario ~seed ~docs ~batches ~standbys () in
  let nseg = Array.length scn.ss_segments in
  let nmem = Array.length scn.ss_members in
  let problems = ref [] and healed = ref 0 and crash_points = ref 0 in
  for s = 0 to nseg - 1 do
    let note msg = problems := (s, msg) :: !problems in
    let member = scn.ss_members.(s mod nmem) in
    let d = scn.ss_segments.(s) in
    scenario_rot scn ~member ~segment:s ~bits ~seed:(seed + (101 * s)) ();
    (* Detection: a scrub of the whole group must find exactly this
       segment, on exactly this member. *)
    let found = scrub_group scn in
    (match found with
    | [ (m, d') ] when String.equal m member && d' = d -> ()
    | l ->
      note
        (Printf.sprintf "scrub found %d damaged segment(s); expected exactly %s %s/pseg %d"
           (List.length l) member d.Mneme.Scrub.pool d.Mneme.Scrub.pseg));
    (* Repair through the group: one journaled heal converges everyone. *)
    List.iter
      (fun (m, dmg) ->
        match
          Mneme.Replica.heal_segment scn.ss_rep ~store:scn.ss_store ~pool:dmg.Mneme.Scrub.pool
            ~pseg:dmg.Mneme.Scrub.pseg
        with
        | Ok src ->
          incr healed;
          if String.equal src m then
            note (Printf.sprintf "segment healed from its own rotten copy %s" src)
        | Error e -> note (Printf.sprintf "heal failed: %s" e))
      found;
    (match scrub_group scn with
    | [] -> ()
    | l -> note (Printf.sprintf "%d segment(s) still damaged after heal" (List.length l)));
    audit_members ~note ~golden:scn (member_stores scn);
    if crash_sweep then begin
      let n = scrub_crash_run ~seed ~docs ~batches ~standbys ~bits ~segment:s ~note 0 in
      crash_points := !crash_points + n;
      sweep_points ~points:n (fun k ->
          let ps = ref [] in
          ignore
            (scrub_crash_run ~seed ~docs ~batches ~standbys ~bits ~segment:s
               ~note:(fun m -> ps := m :: !ps)
               k);
          List.rev !ps)
      |> List.iter (fun (k, p) -> note (Printf.sprintf "heal io %d: %s" k p))
    end
  done;
  {
    sc_segments = nseg;
    sc_members = nmem;
    sc_healed = !healed;
    sc_crash_points = !crash_points;
    sc_problems = List.rev !problems;
  }

let pp_scrub_outcome fmt o =
  Format.fprintf fmt
    "%d segments x %d members: %d heal(s) applied, %d crash-during-repair point(s)"
    o.sc_segments o.sc_members o.sc_healed o.sc_crash_points;
  if o.sc_problems <> [] then begin
    Format.fprintf fmt "@.%d problem(s):" (List.length o.sc_problems);
    List.iter (fun (s, p) -> Format.fprintf fmt "@.  segment %d: %s" s p) o.sc_problems
  end

(* ------------------------------------------------------------------ *)
(* Budget sweep: the scrub tax.  Rot the last segment of the walk on the
   primary, then scrub under each per-step byte budget with a foreground
   query between steps.  Small budgets detect slowly but never hold the
   disk long; big budgets detect fast at the price of long steps — the
   worst-case wait of a query arriving mid-step. *)

type sweep_row = {
  sw_budget : int; (* max bytes verified per scrub step *)
  sw_steps : int; (* steps until the damage was detected *)
  sw_detect_ms : float; (* simulated ms of scrub work to detection *)
  sw_stall_ms : float; (* longest single step: worst foreground wait *)
  sw_heal_ms : float;
  sw_query_ms : float; (* mean foreground query latency between steps *)
}

let scrub_budget_sweep ?(seed = 42) ?(docs = 12) ?(batches = 3) ?(standbys = 1) ~budgets () =
  List.map
    (fun budget ->
      if budget < 1 then invalid_arg "Torture.scrub_budget_sweep: budgets must be positive";
      let scn = build_scrub_scenario ~seed ~docs ~batches ~standbys () in
      let target = Array.length scn.ss_segments - 1 in
      scenario_rot scn ~member:"primary" ~segment:target ~seed:(seed + 7) ();
      Vfs.purge_os_cache scn.ss_vfs;
      let clock = Vfs.clock scn.ss_vfs in
      let elapsed f =
        let before = Vfs.Clock.snapshot clock in
        f ();
        Vfs.Clock.wall_ms (Vfs.Clock.diff ~later:(Vfs.Clock.snapshot clock) ~earlier:before)
      in
      let scrubber = Mneme.Scrub.create scn.ss_store in
      let queries = Array.of_list failover_queries in
      let steps = ref 0 and detect = ref 0.0 and stall = ref 0.0 in
      let qtimes = ref [] in
      let running = ref true in
      while !running do
        let ms = elapsed (fun () -> ignore (Mneme.Scrub.step ~max_bytes:budget scrubber)) in
        incr steps;
        detect := !detect +. ms;
        if ms > !stall then stall := ms;
        let engine =
          Engine.create ~vfs:scn.ss_vfs ~store:(session_over scn.ss_store) ~dict:scn.ss_dict
            ~n_docs:scn.ss_n_docs ~avg_doc_len:scn.ss_avg ~doc_len:scn.ss_doc_len ()
        in
        let q = queries.(!steps mod Array.length queries) in
        qtimes := elapsed (fun () -> ignore (Engine.run_query_string ~top_k:10 engine q)) :: !qtimes;
        if Mneme.Scrub.damages scrubber <> [] || (Mneme.Scrub.progress scrubber).Mneme.Scrub.complete
        then running := false
      done;
      let heal_ms =
        elapsed (fun () ->
            List.iter
              (fun d ->
                ignore
                  (Mneme.Replica.heal_segment scn.ss_rep ~store:scn.ss_store
                     ~pool:d.Mneme.Scrub.pool ~pseg:d.Mneme.Scrub.pseg))
              (Mneme.Scrub.damages scrubber))
      in
      let qs = !qtimes in
      let mean =
        if qs = [] then 0.0
        else List.fold_left ( +. ) 0.0 qs /. float_of_int (List.length qs)
      in
      {
        sw_budget = budget;
        sw_steps = !steps;
        sw_detect_ms = !detect;
        sw_stall_ms = !stall;
        sw_heal_ms = heal_ms;
        sw_query_ms = mean;
      })
    budgets

let pp_outcome fmt o =
  Format.fprintf fmt
    "%d crash points: %d recovered stores, %d pre-commit images; recovery %d replayed / %d \
     discarded / %d clean logs"
    o.crash_points o.opened o.unopenable o.replayed o.discarded o.clean;
  if o.problems <> [] then begin
    Format.fprintf fmt "@.%d problem(s):" (List.length o.problems);
    List.iter (fun (k, p) -> Format.fprintf fmt "@.  crash at io %d: %s" k p) o.problems
  end

(* ------------------------------------------------------------------ *)
(* Epoch torture: the crash-point discipline pointed at snapshot
   isolation.  The workload drives a journaled {!Live_index} — every
   document addition or deletion publishes an epoch through one sealed
   root switch — and the audit demands that a crash at ANY physical I/O
   recovers to wholly the old epoch or wholly the new one: directory,
   record bytes, document count and ranked results byte-identical to
   the golden run's view of that epoch, fsck clean, and gc able to
   drain every byte the interrupted epoch stranded. *)

let epoch_file = "epoch.mneme"
let epoch_log = "epoch.log"

let epoch_queries =
  let t r = Collections.Synth.core_term ~rank:r in
  [
    t 1;
    Printf.sprintf "#sum( %s %s %s )" (t 1) (t 2) (t 3);
    Printf.sprintf "#and( %s %s )" (t 2) (t 3);
  ]

type epoch_golden = {
  eg_epoch : int;
  eg_doc_count : int;
  eg_directory : (string * int * int) list;
  eg_records : (string * bytes) list;
  eg_ranked : (int * string) list list;
}

(* Everything the post-mutation audit phase measures, gathered by the
   workload itself so the golden run and every replay perform the
   identical physical I/O sequence. *)
type epoch_audit = {
  ea_gc_pinned : Mneme.Epoch.gc_stats; (* gc with pins still held *)
  ea_pin_ranked : (int * (int * string) list list) list;
  ea_gc_final : Mneme.Epoch.gc_stats; (* gc after every release *)
  ea_stranded : int;
  ea_fsck_ok : bool;
  ea_drift : (string * string) list;
}

let epoch_observe live =
  let dir = Live_index.directory live in
  {
    eg_epoch = Live_index.epoch live;
    eg_doc_count = Live_index.document_count live;
    eg_directory = dir;
    eg_records =
      List.map
        (fun (term, _, _) ->
          match Live_index.term_record live term with
          | Some b -> (term, b)
          | None -> (term, Bytes.empty))
        dir;
    eg_ranked =
      List.map (fun q -> score_fingerprint (Live_index.search ~top_k:10 live q)) epoch_queries;
  }

let epoch_workload vfs ~seed ~docs ~mutating ~published ~finished =
  let model =
    Collections.Docmodel.make ~name:"epoch" ~n_docs:docs ~core_vocab:120 ~mean_doc_len:30.0
      ~hapax_prob:0.05 ~seed ()
  in
  let doc_arr = Array.of_seq (Collections.Synth.documents model) in
  let live = Live_index.create_mneme ~journal:epoch_log vfs ~file:epoch_file () in
  let ids = Array.make (Array.length doc_arr) (-1) in
  let m = ref 0 in
  let pins = ref [] in
  let step mutate =
    incr m;
    mutating !m;
    mutate ();
    (* Observation — directory walk, record fetches, the fixed query
       set — is part of the deterministic I/O sequence, so replays stay
       aligned with the golden run. *)
    published !m (epoch_observe live);
    (* Pin a spread of epochs (1, 5, 9, ...) so the audit phase can
       prove a pinned reader survives both later mutation and gc. *)
    if !m mod 4 = 1 then pins := (Live_index.epoch live, Live_index.pin live) :: !pins
  in
  Array.iteri
    (fun d doc ->
      step (fun () ->
          ids.(d) <-
            Live_index.add_document live ~doc_id:doc.Collections.Synth.id
              (Collections.Synth.document_text doc));
      (* Every third document, retire the one indexed two steps ago —
         epochs get published by deletions as well as additions. *)
      if d mod 3 = 2 then step (fun () -> ignore (Live_index.delete_document live ids.(d - 2))))
    doc_arr;
  let pins = List.rev !pins in
  (* Audit phase: gc under pins (must retain what the pins reach), read
     through every pin, release, gc again (must drain everything),
     deep fsck. *)
  let gc_pinned = Live_index.gc live in
  let pin_ranked =
    List.map
      (fun (e, p) ->
        ( e,
          List.map
            (fun q -> score_fingerprint (Live_index.search_pinned ~top_k:10 live p q))
            epoch_queries ))
      pins
  in
  List.iter (fun (_, p) -> Live_index.release live p) pins;
  let gc_final = Live_index.gc live in
  let stranded = Live_index.stranded_bytes live in
  let store = Option.get (Live_index.mneme_store live) in
  let fsck = Mneme.Check.run ~object_check:Inquery.Postings.validate store in
  finished
    {
      ea_gc_pinned = gc_pinned;
      ea_pin_ranked = pin_ranked;
      ea_gc_final = gc_final;
      ea_stranded = stranded;
      ea_fsck_ok = Mneme.Check.ok fsck;
      ea_drift = Live_index.audit live;
    }

type epoch_plan = {
  ep_seed : int;
  ep_docs : int;
  ep_points : int;
  ep_mutations : int;
  ep_golden : epoch_golden array; (* index = epoch; 0 unused *)
  ep_reclaimed : int; (* objects the golden run's two gc passes freed *)
  ep_problems : string list; (* golden-run audit violations *)
}

let dummy_golden =
  { eg_epoch = 0; eg_doc_count = 0; eg_directory = []; eg_records = []; eg_ranked = [] }

let prepare_epoch ?(seed = 42) ?(docs = 8) () =
  if docs < 1 then invalid_arg "Torture.prepare_epoch: docs must be positive";
  let vfs = Vfs.create () in
  Vfs.set_fault vfs (Vfs.Fault.none ());
  let golden = ref [] (* newest first *) in
  let problems = ref [] in
  let note fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let mutations = ref 0 in
  let audit = ref None in
  epoch_workload vfs ~seed ~docs
    ~mutating:(fun m -> mutations := m)
    ~published:(fun m g ->
      if g.eg_epoch <> m then note "mutation %d published epoch %d" m g.eg_epoch;
      golden := g :: !golden)
    ~finished:(fun a -> audit := Some a);
  let golden_arr = Array.make (!mutations + 1) dummy_golden in
  List.iteri (fun i g -> golden_arr.(!mutations - i) <- g) !golden;
  let reclaimed = ref 0 in
  (match !audit with
  | None -> note "workload never reached the audit phase"
  | Some a ->
    (* (c) A reader pinned before later mutations — and before a gc run
       under those pins — still ranks bit-identically to what the live
       index served when its epoch was current. *)
    if a.ea_pin_ranked = [] then note "audit phase held no pins";
    List.iter
      (fun (e, ranked) ->
        if ranked <> golden_arr.(e).eg_ranked then
          note "pinned epoch %d ranked differently after %d further mutations and a gc" e
            (!mutations - e))
      a.ea_pin_ranked;
    if a.ea_gc_pinned.Mneme.Epoch.retained_objects = 0 then
      note "gc under pins retained nothing — the pins protected no stale object";
    if a.ea_gc_final.Mneme.Epoch.retained_objects <> 0 then
      note "final gc retained %d objects with no pins outstanding"
        a.ea_gc_final.Mneme.Epoch.retained_objects;
    if a.ea_stranded <> 0 then note "%d bytes stranded after the final gc" a.ea_stranded;
    if not a.ea_fsck_ok then note "fsck failed after the final gc";
    (match a.ea_drift with
    | [] -> ()
    | (where, p) :: _ ->
      note "stat drift after the audit phase (%d problems; %s: %s)" (List.length a.ea_drift)
        where p);
    reclaimed :=
      a.ea_gc_pinned.Mneme.Epoch.reclaimed_objects + a.ea_gc_final.Mneme.Epoch.reclaimed_objects);
  {
    ep_seed = seed;
    ep_docs = docs;
    ep_points = Vfs.fault_io_count vfs;
    ep_mutations = !mutations;
    ep_golden = golden_arr;
    ep_reclaimed = !reclaimed;
    ep_problems = List.rev !problems;
  }

let epoch_points plan = plan.ep_points
let epoch_mutations plan = plan.ep_mutations

type epoch_report = {
  crash_at : int;
  recovery : Mneme.Journal.recovery;
  opened : bool;
  published : int; (* epochs the replay saw commit before the crash *)
  recovered_epoch : int; (* -1 when unopenable *)
  problems : string list;
}

let run_epoch_point plan k =
  if k < 1 || k > plan.ep_points then
    invalid_arg
      (Printf.sprintf "Torture.run_epoch_point: crash point %d outside 1..%d" k plan.ep_points);
  let problems = ref [] in
  let note fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let vfs = Vfs.create () in
  Vfs.set_fault vfs (Vfs.Fault.crash_at_io k);
  let started = ref 0 and completed = ref 0 in
  (try
     epoch_workload vfs ~seed:plan.ep_seed ~docs:plan.ep_docs
       ~mutating:(fun _ -> incr started)
       ~published:(fun _ _ -> incr completed)
       ~finished:(fun _ -> ());
     note "workload ran to completion without crashing at io %d" k
   with Vfs.Crash -> ());
  (* Reboot on the durable image.  Recovery runs once here (so the
     verdict is observable) and again inside [open_mneme] — replaying a
     recovered log must be idempotent. *)
  let img = Vfs.crash_image vfs in
  let recovery = Mneme.Store.recover_journal img ~file:epoch_file ~log_file:epoch_log in
  let opened = ref false and recovered_epoch = ref (-1) in
  (match Live_index.open_mneme ~journal:epoch_log img ~file:epoch_file () with
  | exception Mneme.Store.Corrupt msg ->
    if !completed > 0 then note "index unopenable after %d published epochs: %s" !completed msg
  | live ->
    opened := true;
    let g = Live_index.epoch live in
    recovered_epoch := g;
    (* A publication the replay saw commit cannot roll back; the log
       fsync may have sealed one more the crash then interrupted. *)
    if g < !completed || g > !started then
      note "recovered epoch %d outside [%d, %d]" g !completed !started
    else if g = 0 then note "store opened but no epoch was ever published"
    else begin
      let gold = plan.ep_golden.(g) in
      (* (b) Wholly old or wholly new: the surviving root reproduces
         the golden run's view of epoch [g] exactly. *)
      if Live_index.document_count live <> gold.eg_doc_count then
        note "epoch %d: %d documents, golden had %d" g
          (Live_index.document_count live)
          gold.eg_doc_count;
      if Live_index.directory live <> gold.eg_directory then
        note "epoch %d: directory differs from golden" g;
      List.iter
        (fun (term, b) ->
          match Live_index.term_record live term with
          | Some b' when Bytes.equal b b' -> ()
          | Some _ -> note "epoch %d: record for %S differs from golden" g term
          | None -> note "epoch %d: record for %S lost" g term)
        gold.eg_records;
      let ranked =
        List.map (fun q -> score_fingerprint (Live_index.search ~top_k:10 live q)) epoch_queries
      in
      if ranked <> gold.eg_ranked then note "epoch %d: ranked results differ from golden" g;
      (* A pin taken on the recovered root must agree with both. *)
      let p = Live_index.pin live in
      let pinned =
        List.map
          (fun q -> score_fingerprint (Live_index.search_pinned ~top_k:10 live p q))
          epoch_queries
      in
      if pinned <> gold.eg_ranked then note "epoch %d: pinned ranking differs from golden" g;
      Live_index.release live p;
      (* (a) fsck-clean as recovered ... *)
      let store = Option.get (Live_index.mneme_store live) in
      let rep = Mneme.Check.run store in
      if not (Mneme.Check.ok rep) then
        note "fsck: %s" (Format.asprintf "%a" Mneme.Check.pp_report rep);
      (* ... and gc drains every byte the interrupted epoch stranded,
         leaving a store that still deep-checks clean. *)
      ignore (Live_index.gc live);
      if Live_index.stranded_bytes live <> 0 then
        note "%d bytes stranded after gc" (Live_index.stranded_bytes live);
      let rep = Mneme.Check.run ~object_check:Inquery.Postings.validate store in
      if not (Mneme.Check.ok rep) then
        note "fsck after gc: %s" (Format.asprintf "%a" Mneme.Check.pp_report rep);
      match Live_index.audit live with
      | [] -> ()
      | (where, p) :: rest ->
        note "stat drift after recovery (%d problems; %s: %s)" (1 + List.length rest) where p
    end);
  {
    crash_at = k;
    recovery;
    opened = !opened;
    published = !completed;
    recovered_epoch = !recovered_epoch;
    problems = List.rev !problems;
  }

type epoch_outcome = {
  e_points : int;
  e_mutations : int;
  e_opened : int;
  e_unopenable : int;
  e_wholly_old : int;
  e_wholly_new : int;
  e_replayed : int;
  e_discarded : int;
  e_clean : int;
  e_reclaimed : int;
  e_problems : (int * string) list; (* crash point 0 = golden-run audit *)
}

let run_epoch ?seed ?docs () =
  let plan = prepare_epoch ?seed ?docs () in
  let opened = ref 0
  and unopenable = ref 0
  and wholly_old = ref 0
  and wholly_new = ref 0
  and replayed = ref 0
  and discarded = ref 0
  and clean = ref 0 in
  let problems =
    sweep_points ~seed_problems:plan.ep_problems ~points:plan.ep_points (fun k ->
        let r = run_epoch_point plan k in
        if r.opened then begin
          incr opened;
          if r.recovered_epoch > r.published then incr wholly_new else incr wholly_old
        end
        else incr unopenable;
        tally_recovery ~replayed ~discarded ~clean r.recovery;
        r.problems)
  in
  {
    e_points = plan.ep_points;
    e_mutations = plan.ep_mutations;
    e_opened = !opened;
    e_unopenable = !unopenable;
    e_wholly_old = !wholly_old;
    e_wholly_new = !wholly_new;
    e_replayed = !replayed;
    e_discarded = !discarded;
    e_clean = !clean;
    e_reclaimed = plan.ep_reclaimed;
    e_problems = problems;
  }

let pp_epoch_outcome fmt o =
  Format.fprintf fmt
    "%d crash points over %d epochs: %d recovered roots (%d wholly old, %d wholly new), %d \
     pre-publication images; recovery %d replayed / %d discarded / %d clean logs; golden gc \
     reclaimed %d objects"
    o.e_points o.e_mutations o.e_opened o.e_wholly_old o.e_wholly_new o.e_unopenable o.e_replayed
    o.e_discarded o.e_clean o.e_reclaimed;
  if o.e_problems <> [] then begin
    Format.fprintf fmt "@.%d problem(s):" (List.length o.e_problems);
    List.iter
      (fun (k, p) ->
        if k = 0 then Format.fprintf fmt "@.  golden run: %s" p
        else Format.fprintf fmt "@.  crash at io %d: %s" k p)
      o.e_problems
  end

let epoch_table plan =
  List.filteri (fun i _ -> i > 0) (Array.to_list plan.ep_golden)
  |> List.map (fun g -> (g.eg_epoch, g.eg_doc_count, List.length g.eg_directory))

let epoch_golden_problems plan = plan.ep_problems

(* ------------------------------------------------------------------ *)
(* Ingest torture: the crash-point discipline pointed at online
   ingestion.  The workload drives an {!Ingest} index — WAL-acked
   additions and deletions interleaved with budgeted merge steps and
   union queries — and the audit demands that a crash at ANY physical
   I/O recovers a store that is fsck-clean, holds every acknowledged
   document exactly once (the union's document table and rankings
   byte-identical to the golden run at the recovered frontier), serves
   pinned readers bit-identically, and lets the merge resume and drain
   to the last acknowledged operation. *)

let ingest_file = "ingest.mneme"
let ingest_wal = ingest_file ^ ".wal"
let ingest_journal = ingest_file ^ ".log"

(* Small seals and a tight fold budget so the workload crosses many
   seal/fold boundaries; fanout 2 exercises the tier combiner. *)
let ingest_config = { Ingest.buffer_budget = 1 lsl 20; seal_bytes = 1024; tier_fanout = 2 }

let ingest_queries = epoch_queries

type ingest_obs = {
  io_seq : int; (* last acknowledged operation *)
  io_epoch : int; (* disk epochs published (folds committed) *)
  io_doc_count : int;
  io_docs : (int * int) list;
  io_ranked : (int * string) list list;
}

type ingest_kind = Ik_add | Ik_delete | Ik_merge

let ingest_observe t =
  {
    io_seq = Ingest.last_seq t;
    io_epoch = Live_index.epoch (Ingest.live t);
    io_doc_count = Ingest.document_count t;
    io_docs = Ingest.documents t;
    io_ranked =
      List.map (fun q -> score_fingerprint (Ingest.search ~top_k:10 t q)) ingest_queries;
  }

(* Everything the post-drain audit phase measures, gathered by the
   workload itself so the golden run and every replay perform the
   identical physical I/O sequence. *)
type ingest_audit = {
  ia_pin_ranked : (int * (int * string) list list) list; (* op pinned at -> rankings *)
  ia_gc_pinned : Mneme.Epoch.gc_stats;
  ia_gc_final : Mneme.Epoch.gc_stats;
  ia_stranded : int;
  ia_fsck_ok : bool;
  ia_audit : (string * string) list;
  ia_segments : (int * int * int) list;
  ia_wal_bytes : int;
  ia_stats : Ingest.stats;
}

let ingest_workload vfs ~seed ~docs ~applying ~observed ~finished =
  let model =
    Collections.Docmodel.make ~name:"ingest" ~n_docs:docs ~core_vocab:120 ~mean_doc_len:30.0
      ~hapax_prob:0.05 ~seed ()
  in
  let doc_arr = Array.of_seq (Collections.Synth.documents model) in
  let t = Ingest.create ~config:ingest_config vfs ~file:ingest_file () in
  let budget = Mneme.Budget.create ~max_bytes:2048 () in
  let ids = Array.make (Array.length doc_arr) (-1) in
  let m = ref 0 in
  let pins = ref [] in
  (* Observation 0: the empty union — what a crash before the first
     acknowledgement must recover to. *)
  observed 0 (ingest_observe t);
  let step kind mutate =
    incr m;
    applying !m kind;
    mutate ();
    (* Observation — the document table and the fixed query set over
       the union — is part of the deterministic I/O sequence, so
       replays stay aligned with the golden run. *)
    observed !m (ingest_observe t);
    (* Pin a spread of union states (ops 1, 6, 11, ...) so the audit
       phase can prove a pinned reader survives later churn, folds and
       gc. *)
    if !m mod 5 = 1 then pins := (!m, Ingest.pin t) :: !pins
  in
  Array.iteri
    (fun d doc ->
      step Ik_add (fun () ->
          ids.(d) <-
            (match Ingest.add_document t (Collections.Synth.document_text doc) with
            | Ingest.Acked { doc; _ } -> doc
            | Ingest.Overloaded -> failwith "Torture.ingest_workload: unexpected backpressure"));
      (* Every third document, retire the one accepted two steps ago —
         some deletions land on disk, some on still-buffered memory. *)
      if d mod 3 = 2 then step Ik_delete (fun () -> ignore (Ingest.delete_document t ids.(d - 2)));
      if d mod 2 = 1 then step Ik_merge (fun () -> ignore (Ingest.merge_step ~budget t)))
    doc_arr;
  (* Drain phase: one budgeted fold per observed step, until the merge
     reports the buffer (documents and tombstones both) empty. *)
  let drained = ref false in
  while not !drained do
    step Ik_merge (fun () -> drained := not (Ingest.merge_step ~budget t))
  done;
  let pins = List.rev !pins in
  (* Audit phase: gc under pins, read through every pin, release, gc
     again, deep fsck, the ingest invariant audit. *)
  let gc_pinned = Live_index.gc (Ingest.live t) in
  let pin_ranked =
    List.map
      (fun (pm, p) ->
        ( pm,
          List.map
            (fun q -> score_fingerprint (Ingest.search_pinned ~top_k:10 t p q))
            ingest_queries ))
      pins
  in
  List.iter (fun (_, p) -> Ingest.release t p) pins;
  let gc_final = Live_index.gc (Ingest.live t) in
  let store = Option.get (Live_index.mneme_store (Ingest.live t)) in
  let fsck = Mneme.Check.run ~object_check:Inquery.Postings.validate store in
  finished
    {
      ia_pin_ranked = pin_ranked;
      ia_gc_pinned = gc_pinned;
      ia_gc_final = gc_final;
      ia_stranded = Live_index.stranded_bytes (Ingest.live t);
      ia_fsck_ok = Mneme.Check.ok fsck;
      ia_audit = Ingest.audit t;
      ia_segments = Ingest.segments t;
      ia_wal_bytes = Vfs.size (Vfs.open_file vfs ingest_wal);
      ia_stats = Ingest.stats t;
    }

type ingest_plan = {
  ig_seed : int;
  ig_docs : int;
  ig_points : int;
  ig_ops : int;
  ig_golden : ingest_obs array; (* index = operation; 0 = the empty union *)
  ig_by_seq : ingest_obs option array; (* index = seq + 1 *)
  ig_folds : int;
  ig_reclaimed : int;
  ig_problems : string list;
}

let dummy_ingest_obs =
  { io_seq = min_int; io_epoch = 0; io_doc_count = 0; io_docs = []; io_ranked = [] }

let prepare_ingest ?(seed = 42) ?(docs = 8) () =
  if docs < 1 then invalid_arg "Torture.prepare_ingest: docs must be positive";
  let vfs = Vfs.create () in
  Vfs.set_fault vfs (Vfs.Fault.none ());
  let problems = ref [] in
  let note fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let golden = ref [] (* (op, observation), newest first *) in
  let ops = ref 0 in
  let audit = ref None in
  ingest_workload vfs ~seed ~docs
    ~applying:(fun m _ -> ops := m)
    ~observed:(fun m obs -> golden := (m, obs) :: !golden)
    ~finished:(fun a -> audit := Some a);
  let golden_arr = Array.make (!ops + 1) dummy_ingest_obs in
  List.iter (fun (m, obs) -> golden_arr.(m) <- obs) !golden;
  let final_seq = golden_arr.(!ops).io_seq in
  (* Index the observations by acknowledged frontier: merge steps do
     not consume sequence numbers, so every observation sharing a seq
     must describe the identical union — folding is invisible to
     readers. *)
  let by_seq = Array.make (final_seq + 2) None in
  Array.iter
    (fun obs ->
      match by_seq.(obs.io_seq + 1) with
      | None -> by_seq.(obs.io_seq + 1) <- Some obs
      | Some prev ->
        if
          prev.io_doc_count <> obs.io_doc_count
          || prev.io_docs <> obs.io_docs
          || prev.io_ranked <> obs.io_ranked
        then note "observations at seq %d disagree — a fold moved the union" obs.io_seq)
    golden_arr;
  Array.iteri
    (fun i obs -> if obs = None then note "no golden observation covers seq %d" (i - 1))
    by_seq;
  let folds = ref 0 and reclaimed = ref 0 in
  (match !audit with
  | None -> note "workload never reached the audit phase"
  | Some a ->
    (* A reader pinned before later churn, folds and a gc under pins
       still ranks bit-identically to what the union served at its
       pin. *)
    if a.ia_pin_ranked = [] then note "audit phase held no pins";
    List.iter
      (fun (pm, ranked) ->
        if ranked <> golden_arr.(pm).io_ranked then
          note "union pinned at operation %d ranked differently after %d further operations" pm
            (!ops - pm))
      a.ia_pin_ranked;
    if a.ia_gc_final.Mneme.Epoch.retained_objects <> 0 then
      note "final gc retained %d objects with no pins outstanding"
        a.ia_gc_final.Mneme.Epoch.retained_objects;
    if a.ia_stranded <> 0 then note "%d bytes stranded after the final gc" a.ia_stranded;
    if not a.ia_fsck_ok then note "fsck failed after the final gc";
    (match a.ia_audit with
    | [] -> ()
    | (where, p) :: rest ->
      note "ingest audit after the drain (%d problems; %s: %s)" (1 + List.length rest) where p);
    if a.ia_segments <> [] then
      note "%d segments survived the drain" (List.length a.ia_segments);
    if a.ia_wal_bytes <> 0 then note "%d WAL bytes survived the drain" a.ia_wal_bytes;
    if a.ia_stats.Ingest.overloads <> 0 then
      note "%d overloads under a %d-byte budget" a.ia_stats.Ingest.overloads
        ingest_config.Ingest.buffer_budget;
    if golden_arr.(!ops).io_epoch <> a.ia_stats.Ingest.folds then
      note "%d disk epochs but %d folds — a fold published more than one root"
        golden_arr.(!ops).io_epoch a.ia_stats.Ingest.folds;
    folds := a.ia_stats.Ingest.folds;
    reclaimed :=
      a.ia_gc_pinned.Mneme.Epoch.reclaimed_objects + a.ia_gc_final.Mneme.Epoch.reclaimed_objects);
  {
    ig_seed = seed;
    ig_docs = docs;
    ig_points = Vfs.fault_io_count vfs;
    ig_ops = !ops;
    ig_golden = golden_arr;
    ig_by_seq = by_seq;
    ig_folds = !folds;
    ig_reclaimed = !reclaimed;
    ig_problems = List.rev !problems;
  }

let ingest_points plan = plan.ig_points
let ingest_ops plan = plan.ig_ops
let ingest_golden_problems plan = plan.ig_problems

type ingest_report = {
  i_crash_at : int;
  i_recovery : Mneme.Journal.recovery;
  i_opened : bool;
  i_acked_seq : int; (* last operation the replay saw acknowledged *)
  i_recovered_seq : int; (* min_int when unopenable *)
  i_seen_folds : int; (* folds the replay saw commit before the crash *)
  i_recovered_folds : int;
  i_redelivered : int; (* WAL records recovery re-applied *)
  i_problems : string list;
}

let run_ingest_point plan k =
  if k < 1 || k > plan.ig_points then
    invalid_arg
      (Printf.sprintf "Torture.run_ingest_point: crash point %d outside 1..%d" k plan.ig_points);
  let problems = ref [] in
  let note fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let vfs = Vfs.create () in
  Vfs.set_fault vfs (Vfs.Fault.crash_at_io k);
  let inflight = ref None in
  let completed_seq = ref (-1) and completed_epoch = ref 0 in
  (try
     ingest_workload vfs ~seed:plan.ig_seed ~docs:plan.ig_docs
       ~applying:(fun _ kind -> inflight := Some kind)
       ~observed:(fun _ obs ->
         inflight := None;
         completed_seq := obs.io_seq;
         completed_epoch := obs.io_epoch)
       ~finished:(fun _ -> ());
     note "workload ran to completion without crashing at io %d" k
   with Vfs.Crash -> ());
  (* Reboot on the durable image.  Journal recovery runs once here (so
     the verdict is observable) and again inside [Ingest.open_] —
     replaying a recovered log must be idempotent. *)
  let img = Vfs.crash_image vfs in
  let recovery =
    if Vfs.file_exists img ingest_file then
      Mneme.Store.recover_journal img ~file:ingest_file ~log_file:ingest_journal
    else Mneme.Journal.Clean
  in
  let opened = ref false
  and recovered_seq = ref min_int
  and recovered_folds = ref 0
  and redelivered = ref 0 in
  (match Ingest.open_ ~config:ingest_config img ~file:ingest_file () with
  | exception e -> note "index unopenable: %s" (Printexc.to_string e)
  | t -> (
    opened := true;
    let g = Ingest.last_seq t in
    recovered_seq := g;
    recovered_folds := Live_index.epoch (Ingest.live t);
    redelivered := (Ingest.stats t).Ingest.replayed_ops;
    (* An acknowledgement the replay saw return cannot roll back; the
       WAL fsync may have sealed one more operation the crash then
       interrupted. *)
    let max_seq =
      !completed_seq + (match !inflight with Some Ik_add | Some Ik_delete -> 1 | _ -> 0)
    in
    if g < !completed_seq || g > max_seq then
      note "recovered frontier %d outside the acknowledged window [%d, %d]" g !completed_seq
        max_seq;
    (* The disk index is wholly the old root or wholly the new one: a
       fold the replay saw commit cannot roll back, and at most the one
       interrupted fold may have sealed. *)
    let max_epoch = !completed_epoch + (match !inflight with Some Ik_merge -> 1 | _ -> 0) in
    if !recovered_folds < !completed_epoch || !recovered_folds > max_epoch then
      note "recovered disk epoch %d outside [%d, %d]" !recovered_folds !completed_epoch max_epoch;
    match if g + 1 >= 0 && g + 1 < Array.length plan.ig_by_seq then plan.ig_by_seq.(g + 1) else None with
    | None -> note "recovered frontier %d has no golden observation" g
    | Some gold ->
      (* Exactly once: the recovered union's document table is
         byte-for-byte the golden table at the recovered frontier —
         every acknowledged document present exactly once, unacked ones
         absent or wholly present, nothing lost, nothing doubled. *)
      if Ingest.document_count t <> gold.io_doc_count then
        note "seq %d: %d documents, golden had %d" g (Ingest.document_count t) gold.io_doc_count;
      if Ingest.documents t <> gold.io_docs then
        note "seq %d: document table differs from golden" g;
      let ranked =
        List.map (fun q -> score_fingerprint (Ingest.search ~top_k:10 t q)) ingest_queries
      in
      if ranked <> gold.io_ranked then note "seq %d: union rankings differ from golden" g;
      (* A reader pinned on the recovered union ranks identically. *)
      let p = Ingest.pin t in
      let pinned =
        List.map
          (fun q -> score_fingerprint (Ingest.search_pinned ~top_k:10 t p q))
          ingest_queries
      in
      if pinned <> gold.io_ranked then note "seq %d: pinned rankings differ from golden" g;
      Ingest.release t p;
      (* fsck-clean as recovered ... *)
      let store = Option.get (Live_index.mneme_store (Ingest.live t)) in
      let rep = Mneme.Check.run store in
      if not (Mneme.Check.ok rep) then
        note "fsck: %s" (Format.asprintf "%a" Mneme.Check.pp_report rep);
      (match Ingest.audit t with
      | [] -> ()
      | (where, p) :: rest ->
        note "audit after recovery (%d problems; %s: %s)" (1 + List.length rest) where p);
      (* ... and the merge resumes and drains: the buffer empties, the
         frontier reaches the last acknowledged operation, readers see
         no movement, the WAL is cut, and gc leaves nothing stranded. *)
      Ingest.drain t;
      if Ingest.segments t <> [] || Ingest.buffered_docs t > 0 then
        note "post-recovery drain left the buffer non-empty";
      if Ingest.merged_seq t <> g then
        note "post-recovery drain stopped at frontier %d, acknowledged %d" (Ingest.merged_seq t)
          g;
      let ranked' =
        List.map (fun q -> score_fingerprint (Ingest.search ~top_k:10 t q)) ingest_queries
      in
      if ranked' <> gold.io_ranked then note "seq %d: rankings moved across the drain" g;
      if Vfs.size (Vfs.open_file img ingest_wal) <> 0 then
        note "WAL not truncated after the post-recovery drain";
      ignore (Live_index.gc (Ingest.live t));
      if Live_index.stranded_bytes (Ingest.live t) <> 0 then
        note "%d bytes stranded after gc" (Live_index.stranded_bytes (Ingest.live t));
      let rep = Mneme.Check.run ~object_check:Inquery.Postings.validate store in
      if not (Mneme.Check.ok rep) then
        note "fsck after drain and gc: %s" (Format.asprintf "%a" Mneme.Check.pp_report rep);
      (match Ingest.audit t with
      | [] -> ()
      | (where, p) :: rest ->
        note "audit after the drain (%d problems; %s: %s)" (1 + List.length rest) where p)));
  {
    i_crash_at = k;
    i_recovery = recovery;
    i_opened = !opened;
    i_acked_seq = !completed_seq;
    i_recovered_seq = !recovered_seq;
    i_seen_folds = !completed_epoch;
    i_recovered_folds = !recovered_folds;
    i_redelivered = !redelivered;
    i_problems = List.rev !problems;
  }

type ingest_outcome = {
  i_points : int;
  i_ops : int;
  i_acked : int; (* operations the golden run acknowledged *)
  i_folds : int;
  i_opened : int;
  i_unopenable : int;
  i_wholly_old : int;
  i_wholly_new : int;
  i_replayed : int;
  i_discarded : int;
  i_clean : int;
  i_redelivered : int;
  i_reclaimed : int;
  i_problems : (int * string) list; (* crash point 0 = golden-run audit *)
}

let run_ingest ?seed ?docs () =
  let plan = prepare_ingest ?seed ?docs () in
  let opened = ref 0
  and unopenable = ref 0
  and wholly_old = ref 0
  and wholly_new = ref 0
  and replayed = ref 0
  and discarded = ref 0
  and clean = ref 0
  and redelivered = ref 0 in
  let problems =
    sweep_points ~seed_problems:plan.ig_problems ~points:plan.ig_points (fun k ->
        let r = run_ingest_point plan k in
        if r.i_opened then begin
          incr opened;
          if r.i_recovered_folds > r.i_seen_folds then incr wholly_new else incr wholly_old;
          redelivered := !redelivered + r.i_redelivered
        end
        else incr unopenable;
        tally_recovery ~replayed ~discarded ~clean r.i_recovery;
        r.i_problems)
  in
  {
    i_points = plan.ig_points;
    i_ops = plan.ig_ops;
    i_acked = plan.ig_golden.(plan.ig_ops).io_seq + 1;
    i_folds = plan.ig_folds;
    i_opened = !opened;
    i_unopenable = !unopenable;
    i_wholly_old = !wholly_old;
    i_wholly_new = !wholly_new;
    i_replayed = !replayed;
    i_discarded = !discarded;
    i_clean = !clean;
    i_redelivered = !redelivered;
    i_reclaimed = plan.ig_reclaimed;
    i_problems = problems;
  }

let pp_ingest_outcome fmt o =
  Format.fprintf fmt
    "%d crash points over %d operations (%d acked, %d folds): %d recovered unions (%d wholly-old \
     roots, %d wholly-new), %d pre-commit images; recovery %d replayed / %d discarded / %d clean \
     logs; %d WAL records redelivered; golden gc reclaimed %d objects"
    o.i_points o.i_ops o.i_acked o.i_folds o.i_opened o.i_wholly_old o.i_wholly_new o.i_unopenable
    o.i_replayed o.i_discarded o.i_clean o.i_redelivered o.i_reclaimed;
  if o.i_problems <> [] then begin
    Format.fprintf fmt "@.%d problem(s):" (List.length o.i_problems);
    List.iter
      (fun (k, p) ->
        if k = 0 then Format.fprintf fmt "@.  golden run: %s" p
        else Format.fprintf fmt "@.  crash at io %d: %s" k p)
      o.i_problems
  end

let ingest_table plan =
  List.filteri (fun i _ -> i > 0) (Array.to_list plan.ig_golden)
  |> List.mapi (fun i obs -> (i + 1, obs.io_seq, obs.io_epoch, obs.io_doc_count))

(* ------------------------------------------------------------------ *)
(* Shard torture: the fault-at-every-I/O discipline pointed at
   scatter-gather.  Build the unsharded golden rankings once, probe a
   clean sharded coordinator for every replica's serving-phase I/O
   count, then replay the scatter with one member crashed / stalled /
   bit-flipped at each of those I/Os — plus whole-shard blackouts (all
   replicas dead, exercising retry-with-backoff and shedding) and
   brownouts (all replicas slow, exercising deadline degradation) — and
   audit every merged result: (a) full-coverage results bit-identical
   to the unsharded index, (b) partial results exactly the unsharded
   ranking restricted to the covered doc ranges (a mismatch is a silent
   truncation), (c) the deadline overshot by at most one in-flight
   fetch. *)

let shard_queries = failover_queries

type shard_outcome = {
  st_shards : int;
  st_members : int; (* replicas probed for serving-phase I/Os *)
  st_points : int; (* member serving I/Os enumerated *)
  st_runs : int; (* fault replays: sweep + blackouts + brownouts *)
  st_full : int; (* full-coverage query results audited *)
  st_partial : int; (* partial (degraded / shed) query results audited *)
  st_overshoots : int; (* deadline overshoots beyond one fetch *)
  st_truncations : int; (* silent truncations *)
  st_problems : (int * string) list; (* run number; 0 = clean probe *)
}

let shard_ok o = o.st_problems = [] && o.st_overshoots = 0 && o.st_truncations = 0

let run_shard ?(seed = 42) ?(docs = 24) ?(shards = 2) ?(replicas = 2) ?(top_k = 10) () =
  if docs < 1 || shards < 1 || replicas < 1 then
    invalid_arg "Torture.run_shard: docs, shards and replicas must be positive";
  if shards > docs then invalid_arg "Torture.run_shard: more shards than documents";
  let model =
    Collections.Docmodel.make ~name:"shard-torture" ~n_docs:docs ~core_vocab:120
      ~mean_doc_len:30.0 ~hapax_prob:0.05 ~seed ()
  in
  let prepared = Experiment.prepare model in
  (* Unsharded golden: the full above-baseline ranking of every query
     (the restriction oracle); its first [top_k] is the full-coverage
     oracle.  Exact float pairs — the audit is bit-identity. *)
  let engine = Experiment.open_engine prepared Experiment.Mneme_cache in
  let pairs ranked =
    List.map (fun r -> (r.Inquery.Ranking.doc, r.Inquery.Ranking.score)) ranked
  in
  let oracle =
    Array.of_list
      (List.map
         (fun q ->
           pairs
             (Engine.run_topk_string ~plan:(Inquery.Planner.Forced Inquery.Planner.Exhaustive)
                ~k:docs engine q)
               .Engine.topk_ranked)
         shard_queries)
  in
  let firstk l = List.filteri (fun i _ -> i < top_k) l in
  let restrict ranges ranked =
    List.filter (fun (d, _) -> List.exists (fun (lo, hi) -> d >= lo && d < hi) ranges) ranked
  in
  let runs = ref 0 in
  let problems = ref [] in
  let note run fmt = Printf.ksprintf (fun s -> problems := (run, s) :: !problems) fmt in
  let full = ref 0 and partial = ref 0 and overshoots = ref 0 and truncations = ref 0 in
  (* Zero-capacity buffer pools, and the OS cache purged before every
     query: each fetch is then a physical block I/O the fault plans can
     observe, instead of a warm cache absorbing the whole serving
     path. *)
  let make () =
    Shard.create ~shard_replicas:replicas ~policy:(Shard.Best_effort 0.0)
      ~buffers:Buffer_sizing.no_cache ~shards prepared
  in
  let chill c =
    List.iter
      (fun s ->
        let fe = Shard.shard_frontend c ~shard:s in
        List.iter
          (fun r -> Vfs.purge_os_cache (Frontend.replica_vfs fe ~name:r))
          (Shard.replica_names c ~shard:s))
      (Shard.shard_names c)
  in
  (* One merged result against the oracles.  [fetch_allow] is the
     worst-case cost of the single fetch the deadline may leave in
     flight (plus the CPU of ranking evidence already paid for). *)
  let audit run ~deadline ~fetch_allow qi = function
    | Error e -> note run "query %d refused: %s" qi (Shard.error_message e)
    | Ok (res : Shard.result) ->
      (match deadline with
      | Some d when res.Shard.elapsed_ms > d +. fetch_allow ->
        incr overshoots;
        note run "query %d overshot the deadline: %.2f ms against %.2f + %.2f" qi
          res.Shard.elapsed_ms d fetch_allow
      | _ -> ());
      let ranges =
        List.filter_map
          (fun (rep : Shard.shard_report) ->
            match rep.Shard.r_status with
            | Shard.Answered -> Some rep.Shard.r_range
            | Shard.Degraded _ | Shard.Shed _ -> None)
          res.Shard.reports
      in
      let covered = List.fold_left (fun a (lo, hi) -> a + (hi - lo)) 0 ranges in
      let cov = res.Shard.coverage in
      if cov.Shard.docs_covered <> covered then
        note run "query %d: coverage claims %d docs, the answered reports cover %d" qi
          cov.Shard.docs_covered covered;
      if cov.Shard.answered + cov.Shard.degraded + cov.Shard.shed <> cov.Shard.shards_total then
        note run "query %d: coverage classes do not partition the shards" qi;
      if res.Shard.complete then begin
        incr full;
        if pairs res.Shard.ranked <> firstk oracle.(qi) then begin
          incr truncations;
          note run "query %d: full-coverage ranking differs from the unsharded index" qi
        end
      end
      else begin
        incr partial;
        if pairs res.Shard.ranked <> firstk (restrict ranges oracle.(qi)) then begin
          incr truncations;
          note run
            "query %d: partial ranking is not the unsharded index restricted to the covered \
             ranges"
            qi
        end
      end
  in
  (* Clean probe: arm counting plans on every replica, run the query
     set, demand complete bit-identical results, and take each member's
     serving-phase I/O count as its fault-point enumeration.  The
     sessions were opened by [make], so the counters cover only
     serving. *)
  let coord = make () in
  let members =
    List.concat_map
      (fun s ->
        let fe = Shard.shard_frontend coord ~shard:s in
        List.map (fun r -> (s, r, Frontend.replica_vfs fe ~name:r)) (Shard.replica_names coord ~shard:s))
      (Shard.shard_names coord)
  in
  List.iter (fun (_, _, vfs) -> Vfs.set_fault vfs (Vfs.Fault.none ())) members;
  let clean_ms = ref 0.0 in
  List.iteri
    (fun qi q ->
      chill coord;
      match Shard.run_query_string ~top_k coord q with
      | Error e -> note 0 "clean probe: query %d refused: %s" qi (Shard.error_message e)
      | Ok res ->
        if not res.Shard.complete then note 0 "clean probe: query %d not complete" qi;
        if pairs res.Shard.ranked <> firstk oracle.(qi) then
          note 0 "clean probe: query %d differs from the unsharded index" qi;
        if res.Shard.elapsed_ms > !clean_ms then clean_ms := res.Shard.elapsed_ms)
    shard_queries;
  let member_points = List.map (fun (s, r, vfs) -> (s, r, Vfs.fault_io_count vfs)) members in
  let points = List.fold_left (fun a (_, _, n) -> a + n) 0 member_points in
  (* The sweep.  The deadline leaves the clean run ample room, so
     degradation in these replays comes from the fault, not the budget;
     a stalled fetch is perceived at worst [stall_ms], so the overshoot
     allowance is [stall_ms] plus one clean run's worth of CPU. *)
  let stall_ms = 240.0 in
  let deadline = (4.0 *. !clean_ms) +. (2.0 *. stall_ms) in
  let fetch_allow = stall_ms +. !clean_ms +. 1.0 in
  let run_with ?deadline_ms ~fetch_allow arm =
    incr runs;
    let c = make () in
    arm c;
    List.iteri
      (fun qi q ->
        chill c;
        match Shard.run_query_string ~top_k ?deadline_ms c q with
        | exception Vfs.Crash -> note !runs "query %d: a device crash escaped the frontend" qi
        | r -> audit !runs ~deadline:deadline_ms ~fetch_allow qi r)
      shard_queries;
    c
  in
  List.iter
    (fun (sname, rname, n) ->
      for k = 1 to n do
        List.iter
          (fun plan ->
            ignore
              (run_with ~deadline_ms:deadline ~fetch_allow (fun c ->
                   let fe = Shard.shard_frontend c ~shard:sname in
                   Vfs.set_fault (Frontend.replica_vfs fe ~name:rname) plan)))
          [
            Vfs.Fault.crash_at_io k;
            Vfs.Fault.stall_at_io ~io:k ~ms:stall_ms;
            Vfs.Fault.flip_bit_on_read ~io:k ~seed:(seed + (17 * k));
          ]
      done)
    member_points;
  (* Blackouts: every replica of one shard dead from its first serving
     I/O.  No deadline, so the coordinator's retry-with-backoff runs its
     full course before the shard is shed; the merged result must be
     the restricted oracle. *)
  List.iter
    (fun sname ->
      let c =
        run_with ~fetch_allow:0.0 (fun c ->
            let fe = Shard.shard_frontend c ~shard:sname in
            List.iter
              (fun r -> Vfs.set_fault (Frontend.replica_vfs fe ~name:r) (Vfs.Fault.crash_at_io 1))
              (Shard.replica_names c ~shard:sname))
      in
      (* The dead shard must have been retried before it was declared
         down, and must be reported shed, not silently dropped. *)
      chill c;
      match Shard.run_query_string ~top_k c (List.hd shard_queries) with
      | Error e -> note !runs "blackout recheck refused: %s" (Shard.error_message e)
      | Ok res -> (
        match
          List.find_opt (fun r -> String.equal r.Shard.r_shard sname) res.Shard.reports
        with
        | None -> note !runs "blackout: shard %s missing from the reports" sname
        | Some rep ->
          (match rep.Shard.r_status with
          | Shard.Shed _ -> ()
          | Shard.Answered | Shard.Degraded _ ->
            note !runs "blackout: shard %s with every replica dead was not shed" sname);
          if rep.Shard.r_attempts < 2 then
            note !runs "blackout: shard %s was declared down after %d attempt(s), no retry"
              sname rep.Shard.r_attempts))
    (Shard.shard_names coord);
  (* Brownouts: every replica of one shard slowed below the hedge
     threshold, under a deadline a healthy shard meets — the slow shard
     either still answers (full coverage) or degrades at the deadline,
     overshooting by at most the one slow fetch in flight. *)
  let brown_ms = 40.0 in
  List.iter
    (fun sname ->
      let brown_deadline = !clean_ms +. (2.5 *. brown_ms) in
      ignore
        (run_with ~deadline_ms:brown_deadline ~fetch_allow:(brown_ms +. !clean_ms +. 1.0)
           (fun c ->
             let fe = Shard.shard_frontend c ~shard:sname in
             List.iter
               (fun r ->
                 Vfs.set_fault
                   (Frontend.replica_vfs fe ~name:r)
                   (Vfs.Fault.degraded_device ~file:(sname ^ ".mneme") ~ms:brown_ms))
               (Shard.replica_names c ~shard:sname))))
    (Shard.shard_names coord);
  if !partial = 0 then note 0 "no replay ever exercised a partial result";
  {
    st_shards = shards;
    st_members = List.length members;
    st_points = points;
    st_runs = !runs;
    st_full = !full;
    st_partial = !partial;
    st_overshoots = !overshoots;
    st_truncations = !truncations;
    st_problems = List.rev !problems;
  }

let pp_shard_outcome fmt o =
  Format.fprintf fmt
    "%d serving I/Os across %d members of %d shards: %d fault replays, %d full-coverage and %d \
     partial results audited, %d deadline overshoot(s), %d silent truncation(s)"
    o.st_points o.st_members o.st_shards o.st_runs o.st_full o.st_partial o.st_overshoots
    o.st_truncations;
  if o.st_problems <> [] then begin
    Format.fprintf fmt "@.%d problem(s):" (List.length o.st_problems);
    List.iter
      (fun (r, p) ->
        if r = 0 then Format.fprintf fmt "@.  clean probe: %s" p
        else Format.fprintf fmt "@.  replay %d: %s" r p)
      o.st_problems
  end

(* ------------------------------------------------------------------ *)
(* Cache coherence under churn                                         *)

type cache_outcome = {
  ct_mutations : int;
  ct_comparisons : int;
  ct_result_hits : int;
  ct_block_hits : int;
  ct_frame_hits : int;
  ct_invalidations : int;
  ct_problems : (int * string) list; (* (mutation, violation); 0 = audit phase *)
}

let cache_ok o =
  o.ct_problems = [] && o.ct_result_hits > 0 && o.ct_block_hits > 0 && o.ct_frame_hits > 0
  && o.ct_invalidations > 0

let cache_file = "cache.mneme"
let cache_log = "cache.log"

let run_cache ?(seed = 42) ?(docs = 18) () =
  if docs < 1 then invalid_arg "Torture.run_cache: docs must be positive";
  let model =
    Collections.Docmodel.make ~name:"cache-torture" ~n_docs:docs ~core_vocab:120
      ~mean_doc_len:30.0 ~hapax_prob:0.05 ~seed ()
  in
  let doc_arr = Array.of_seq (Collections.Synth.documents model) in
  let vfs = Vfs.create () in
  Vfs.set_fault vfs (Vfs.Fault.none ());
  (* Transient buffers: a segment read twice comes from its frame. *)
  let live =
    Live_index.create_mneme ~buffers:Buffer_sizing.no_cache ~journal:cache_log vfs
      ~file:cache_file ()
  in
  let store = Option.get (Live_index.mneme_store live) in
  let rc = Result_cache.create ~capacity_bytes:(1 lsl 16) ~name:"torture.results" () in
  let bc = Util.Block_cache.create ~capacity_bytes:(1 lsl 18) ~name:"torture.blocks" () in
  Mneme.Store.set_frames store (Some bc);
  let pins = ref [] in
  (* newest first *)
  let pinned_epochs () = List.map fst !pins in
  let rc_hook_drops = ref 0 in
  (* The publication hook, exactly as a serving frontend would register
     it: frames and decoded blocks of any epoch no pin protects are dead
     the moment a new epoch publishes.  Results get a one-epoch grace
     window on purpose, so stale entries survive into the next epoch and
     the probe-time epoch check has something to purge — both
     invalidation mechanisms run in every churn step. *)
  Live_index.on_publish live (fun ~epoch ->
      ignore
        (Util.Block_cache.retain bc ~keep:(fun e ->
             e = epoch || List.mem e (pinned_epochs ())));
      rc_hook_drops := !rc_hook_drops + Result_cache.retain rc ~keep:(fun e -> e >= epoch - 1));
  (* Stable term ids for block-cache keys: within one epoch a term has
     exactly one record, so (term id, block, epoch) uniquely names its
     decoded blocks — the same reasoning the frontend applies with Mneme
     locators. *)
  let term_ids = Hashtbl.create 64 in
  let term_id term =
    match Hashtbl.find_opt term_ids term with
    | Some i -> i
    | None ->
      let i = Hashtbl.length term_ids in
      Hashtbl.add term_ids term i;
      i
  in
  let problems = ref [] in
  let note m fmt = Printf.ksprintf (fun s -> problems := (m, s) :: !problems) fmt in
  let comparisons = ref 0 in
  let stream ?cache record =
    let c = Inquery.Postings.cursor ?cache record in
    let acc = ref [] in
    while Inquery.Postings.cur_doc c <> max_int do
      acc := (Inquery.Postings.cur_doc c, Inquery.Postings.cur_tf c) :: !acc;
      Inquery.Postings.cursor_next c
    done;
    List.rev !acc
  in
  (* Read a pinned epoch's records through the store with frames
     attached — a resident segment comes from its frame, as a serving
     frontend reads it — and again with frames detached, from the
     device; bit-compare the bytes, and every (doc, tf) streamed through
     the decoded-block cache against a plain uncached decode. *)
  let audit_pin m (e, p) =
    List.iter
      (fun (term, _, _) ->
        match Live_index.pin_lookup live p term with
        | None -> ()
        | Some (framed, _, _) -> (
          incr comparisons;
          Mneme.Store.set_frames store None;
          let plain = Live_index.pin_lookup live p term in
          Mneme.Store.set_frames store (Some bc);
          match plain with
          | None -> note m "pinned epoch %d: term %S is gone with frames off" e term
          | Some (record, _, _) ->
            if not (Bytes.equal framed record) then
              note m "pinned epoch %d: term %S's record differs through frames" e term;
            if stream ~cache:(bc, term_id term, e) framed <> stream record then
              note m "pinned epoch %d: term %S reads differently through the block cache" e term))
      (List.filteri (fun i _ -> i < 4) (Live_index.pin_directory p))
  in
  (* One pass over the query set: the uncached latest-view search is the
     oracle; a probe that hits must be bit-identical, a miss fills. *)
  let query_pass m ~expect_hits =
    let epoch = Live_index.epoch live in
    List.iteri
      (fun qi q ->
        incr comparisons;
        let golden = score_fingerprint (Live_index.search ~top_k:10 live q) in
        let key = Printf.sprintf "%s|k=10" q in
        match Result_cache.find rc ~key ~epoch with
        | Some cached ->
          if cached <> golden then
            note m "query %d: cached ranking diverges from uncached at epoch %d" qi epoch
        | None ->
          if expect_hits then note m "query %d: entry filled this epoch did not hit" qi
          else
            Result_cache.insert rc ~key ~epoch ~coverage:Result_cache.Full
              ~cost:(64 + (40 * List.length golden))
              golden)
      epoch_queries
  in
  let ids = Array.make (Array.length doc_arr) (-1) in
  let m = ref 0 in
  let step mutate =
    incr m;
    mutate ();
    query_pass !m ~expect_hits:false;
    query_pass !m ~expect_hits:true;
    if !m mod 4 = 1 then pins := (Live_index.epoch live, Live_index.pin live) :: !pins;
    List.iter (audit_pin !m) !pins
  in
  Array.iteri
    (fun d doc ->
      step (fun () ->
          ids.(d) <-
            Live_index.add_document live ~doc_id:doc.Collections.Synth.id
              (Collections.Synth.document_text doc));
      if d mod 3 = 2 then step (fun () -> ignore (Live_index.delete_document live ids.(d - 2))))
    doc_arr;
  (* Audit phase: gc under pins must leave pinned epochs readable
     through the cache, and no cache may hold an epoch the collector
     reclaimed. *)
  let live_epoch = Live_index.epoch live in
  ignore (Live_index.gc live);
  List.iter (audit_pin 0) !pins;
  let allowed = live_epoch :: pinned_epochs () in
  List.iter
    (fun e ->
      if not (List.mem e allowed) then
        note 0 "block cache holds a frame or block of collected epoch %d after gc under pins" e)
    (Util.Block_cache.epochs bc);
  List.iter (fun (_, p) -> Live_index.release live p) !pins;
  ignore (Live_index.gc live);
  ignore (Util.Block_cache.retain bc ~keep:(fun e -> e = live_epoch));
  ignore (Result_cache.retain rc ~keep:(fun e -> e = live_epoch));
  List.iter
    (fun e -> if e <> live_epoch then note 0 "cache holds epoch %d after the final purge" e)
    (Util.Block_cache.epochs bc @ Result_cache.epochs rc);
  (* The grace window means probe-time purges must have fired over and
     above the hook's drops. *)
  let rc_stats = Result_cache.stats rc and bc_stats = Util.Block_cache.stats bc in
  let frame_stats = Util.Block_cache.frame_stats bc in
  if rc_stats.Util.Cache_stats.invalidations <= !rc_hook_drops then
    note 0 "probe-time epoch check never purged a stale result";
  {
    ct_mutations = !m;
    ct_comparisons = !comparisons;
    ct_result_hits = rc_stats.Util.Cache_stats.hits;
    ct_block_hits = bc_stats.Util.Cache_stats.hits;
    ct_frame_hits = frame_stats.Util.Cache_stats.hits;
    ct_invalidations =
      rc_stats.Util.Cache_stats.invalidations + bc_stats.Util.Cache_stats.invalidations
      + frame_stats.Util.Cache_stats.invalidations;
    ct_problems = List.rev !problems;
  }

let pp_cache_outcome fmt o =
  Format.fprintf fmt
    "%d mutations, %d cached-vs-uncached comparisons: %d result hits, %d block hits, %d \
     frame hits, %d invalidations"
    o.ct_mutations o.ct_comparisons o.ct_result_hits o.ct_block_hits o.ct_frame_hits
    o.ct_invalidations;
  if o.ct_problems <> [] then begin
    Format.fprintf fmt "@.%d problem(s):" (List.length o.ct_problems);
    List.iter
      (fun (m, p) ->
        if m = 0 then Format.fprintf fmt "@.  audit: %s" p
        else Format.fprintf fmt "@.  mutation %d: %s" m p)
      o.ct_problems
  end
