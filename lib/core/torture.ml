(* ------------------------------------------------------------------ *)
(* The report every family returns, and its JSON form. *)

type report = {
  family : string;
  points : int;
  counts : (string * int) list;
  problems : (int * string) list;
}

let ok r = r.problems = []

let json r =
  let json_string = Util.Tables.json_string in
  let count (name, n) = Printf.sprintf "%s: %d" (json_string name) n in
  let problem (k, p) =
    Printf.sprintf "\n      { \"point\": %d, \"problem\": %s }" k (json_string p)
  in
  Printf.sprintf
    "{\n    \"family\": %s,\n    \"points\": %d,\n    \"counts\": { %s },\n\
    \    \"problems\": [%s%s]\n  }"
    (json_string r.family) r.points
    (String.concat ", " (List.map count r.counts))
    (String.concat "," (List.map problem r.problems))
    (if r.problems = [] then "" else "\n    ")

(* Where audits file what they find: the family's named counts, in
   report order, and problems keyed by point. *)
type log = { l_counts : (string * int ref) list; mutable l_problems : (int * string) list }

let open_log names = { l_counts = List.map (fun n -> (n, ref 0)) names; l_problems = [] }
let note log k fmt = Printf.ksprintf (fun p -> log.l_problems <- (k, p) :: log.l_problems) fmt

let add log name n =
  match List.assoc_opt name log.l_counts with
  | Some c -> c := !c + n
  | None -> invalid_arg ("Torture: undeclared count " ^ name)

let close log ~family ~points =
  {
    family;
    points;
    counts = List.map (fun (n, c) -> (n, !c)) log.l_counts;
    problems = List.rev log.l_problems;
  }

(* ------------------------------------------------------------------ *)
(* Pieces every family shares. *)

(* The fixed ranked query set every family audits. *)
let queries =
  let t r = Collections.Synth.core_term ~rank:r in
  [
    t 1;
    Printf.sprintf "#sum( %s %s %s )" (t 1) (t 2) (t 3);
    Printf.sprintf "#and( %s %s )" (t 2) (t 3);
  ]

let fingerprint ranked =
  List.map
    (fun r -> (r.Inquery.Ranking.doc, Printf.sprintf "%.9f" r.Inquery.Ranking.score))
    ranked

(* Every query's top-10 through [search], fingerprinted. *)
let rank search = List.map (fun q -> fingerprint (search q)) queries

(* The small synthetic collection the document-driven families index. *)
let model ~name ~seed ~docs =
  Collections.Docmodel.make ~name ~n_docs:docs ~core_vocab:120 ~mean_doc_len:30.0
    ~hapax_prob:0.05 ~seed ()

let documents ~name ~seed ~docs =
  Array.of_seq (Collections.Synth.documents (model ~name ~seed ~docs))

(* The three size-class pools, each behind its own 256 KB buffer. *)
let attach_pools store =
  let pool policy name =
    let pool = Mneme.Store.add_pool store policy in
    Mneme.Store.attach_buffer pool (Mneme.Buffer_pool.create ~name ~capacity:(256 * 1024) ());
    pool
  in
  let small = pool Mneme.Policy.small "small" in
  let medium = pool Mneme.Policy.medium "medium" in
  let large = pool Mneme.Policy.large "large" in
  (small, medium, large)

let fsck log k ?object_check ~what store =
  let report = Mneme.Check.run ?object_check store in
  if not (Mneme.Check.ok report) then
    note log k "%s: %s" what (Format.asprintf "%a" Mneme.Check.pp_report report)

(* The store holds exactly generation [gen]'s objects, byte for byte. *)
let audit_snapshot log k store ~gen snap =
  if Mneme.Store.object_count store <> Hashtbl.length snap then
    note log k "store holds %d objects, generation %d committed %d"
      (Mneme.Store.object_count store) gen (Hashtbl.length snap);
  Hashtbl.iter
    (fun oid b ->
      match Mneme.Store.get store oid with
      | exception e -> note log k "object %d lost: %s" oid (Printexc.to_string e)
      | b' -> if not (Bytes.equal b b') then note log k "object %d contents differ" oid)
    snap

let tally_recovery log = function
  | Mneme.Journal.Replayed _ -> add log "replayed" 1
  | Mneme.Journal.Discarded _ -> add log "discarded" 1
  | Mneme.Journal.Clean -> add log "clean" 1

(* ------------------------------------------------------------------ *)
(* The crash driver.  A crash family is a workload plus an oracle:
   [setup] builds what a run starts from and names the device whose
   physical I/Os are the crash points; [workload] drives it, recording
   what it saw in a fresh [trace]; [golden] audits the fault-free trace
   (problems at point 0, counts it alone knows) and turns it into the
   reference [oracle] judges each crash image against.  The oracle
   returns whether the image recovered to a served state, which splits
   the points between the two [outcomes]. *)

type ('env, 'trace, 'golden) spec = {
  name : string;
  outcomes : string * string;
  census : string list;
  setup : unit -> 'env * Vfs.t;
  trace : unit -> 'trace;
  workload : 'env -> 'trace -> unit;
  golden : 'trace -> log -> 'golden;
  oracle : 'golden -> seen:'trace -> 'env -> Vfs.t -> log -> int -> bool;
  table : 'golden -> (string * int) list list;
  consolidated : 'trace -> int; (* the golden run's chunks consolidated under a pin *)
}

type crash = Crash : (_, _, _) spec -> crash

type plan =
  | Plan : {
      spec : ('env, 'trace, 'golden) spec;
      golden : 'golden;
      points : int;
      golden_log : log;
      consolidated : int;
    }
      -> plan

let census_of spec = fst spec.outcomes :: snd spec.outcomes :: spec.census

let fresh_device () =
  let vfs = Vfs.create () in
  (vfs, vfs)

let prepare (Crash spec) =
  let env, device = spec.setup () in
  Vfs.set_fault device (Vfs.Fault.none ());
  let trace = spec.trace () in
  spec.workload env trace;
  let points = Vfs.fault_io_count device in
  let golden_log = open_log (census_of spec) in
  let golden = spec.golden trace golden_log in
  Plan { spec; golden; points; golden_log; consolidated = spec.consolidated trace }

let points (Plan p) = p.points
let table (Plan p) = p.spec.table p.golden
let golden_problems (Plan p) = List.rev_map snd p.golden_log.l_problems
let pinned_consolidations (Plan p) = p.consolidated
let pinned_base_rewrites (Plan p) =
  Option.fold ~none:0 ~some:( ! ) (List.assoc_opt "base_rewrites" p.golden_log.l_counts)

(* Replay [k]: arm a crash at physical I/O [k], run the workload into
   it, and hand the crash image to the oracle. *)
let replay_into (Plan p) k log =
  if k < 1 || k > p.points then
    invalid_arg
      (Printf.sprintf "Torture.replay: %s crash point %d outside 1..%d" p.spec.name k p.points);
  let env, device = p.spec.setup () in
  Vfs.set_fault device (Vfs.Fault.crash_at_io k);
  let seen = p.spec.trace () in
  (try
     p.spec.workload env seen;
     note log k "workload ran to completion without crashing at io %d" k
   with Vfs.Crash -> ());
  let recovered = p.spec.oracle p.golden ~seen env (Vfs.crash_image device) log k in
  add log ((if recovered then fst else snd) p.spec.outcomes) 1

let replay (Plan p as plan) k =
  let log = open_log (census_of p.spec) in
  replay_into plan k log;
  List.rev_map snd log.l_problems

let sweep (Plan p as plan) =
  let log =
    {
      l_counts = List.map (fun (n, c) -> (n, ref !c)) p.golden_log.l_counts;
      l_problems = p.golden_log.l_problems;
    }
  in
  for k = 1 to p.points do
    replay_into plan k log
  done;
  close log ~family:p.spec.name ~points:p.points

(* ------------------------------------------------------------------ *)
(* Store family: a journaled build followed by update batches that
   modify, delete and allocate objects, each transaction ending with a
   finalize (so the store is self-describing at every commit point) and
   bumping a persisted generation object.  A seeded PRNG drives it, so a
   replay performs the identical I/O sequence until its crash fires. *)

let store_file = "torture.mneme"
let store_log = "torture.log"

let payload rng cls =
  let len =
    match cls with
    | 0 -> 1 + Random.State.int rng 12 (* fits the small pool's 12-byte slots *)
    | 1 -> 64 + Random.State.int rng 1985
    | _ -> 5000 + Random.State.int rng 4001
  in
  Bytes.init len (fun _ -> Char.chr (Random.State.int rng 256))

let class_of_size n = if n <= 12 then 0 else if n <= 4096 then 1 else 2

type store_trace = {
  mutable s_started : int;
  mutable s_commits : (Mneme.Oid.t, bytes) Hashtbl.t list; (* contents per commit, newest first *)
  mutable s_gen_oid : Mneme.Oid.t;
}

let store_workload ~seed ~docs ~update_batches vfs tr =
  let rng = Random.State.make [| seed |] in
  let store = Mneme.Store.create vfs store_file in
  let small, medium, large = attach_pools store in
  Mneme.Store.enable_journal store ~log_file:store_log;
  let pool_for cls = match cls with 0 -> small | 1 -> medium | _ -> large in
  let mirror = Hashtbl.create 64 in
  let live = ref [] in
  let fresh_object () =
    let cls = Random.State.int rng 3 in
    let b = payload rng cls in
    let oid = Mneme.Store.allocate (pool_for cls) b in
    Hashtbl.replace mirror oid (Bytes.copy b);
    live := oid :: !live
  in
  let commit body =
    tr.s_started <- tr.s_started + 1;
    Mneme.Store.transact store (fun () ->
        body ();
        Mneme.Store.finalize store);
    tr.s_commits <- Hashtbl.copy mirror :: tr.s_commits
  in
  (* Transaction 0: the index build. *)
  commit (fun () ->
      let gb = Bytes.of_string "gen 0" in
      tr.s_gen_oid <- Mneme.Store.allocate small gb;
      Hashtbl.replace mirror tr.s_gen_oid gb;
      for _ = 1 to docs do
        fresh_object ()
      done);
  (* Update batches: modify, delete, allocate, bump the generation. *)
  for i = 1 to update_batches do
    commit (fun () ->
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
        Mneme.Store.modify store tr.s_gen_oid gb;
        Hashtbl.replace mirror tr.s_gen_oid gb)
  done

(* Journal recovery, then: the store opens (unless no commit ever
   completed), its generation lies in [completed - 1, started - 1], it
   passes fsck, and it holds exactly that generation's objects. *)
let store_oracle (snapshots, gen_oid) ~seen _ img log k =
  let completed = List.length seen.s_commits in
  tally_recovery log (Mneme.Store.recover_journal img ~file:store_file ~log_file:store_log);
  match Mneme.Store.open_existing img store_file with
  | exception Mneme.Store.Corrupt msg ->
    if completed > 0 then
      note log k "store unopenable after %d completed commits: %s" completed msg;
    false
  | store ->
    ignore (attach_pools store);
    (match Mneme.Store.get store gen_oid with
    | exception e -> note log k "generation object unreadable: %s" (Printexc.to_string e)
    | gb -> (
      match Scanf.sscanf_opt (Bytes.to_string gb) "gen %d" Fun.id with
      | None -> note log k "generation object holds %S" (Bytes.to_string gb)
      | Some g ->
        (* A commit the replay saw finish cannot roll back; the log
           fsync may have sealed one more the crash then interrupted. *)
        if g < completed - 1 || g > seen.s_started - 1 then
          note log k "recovered generation %d outside [%d, %d]" g (completed - 1)
            (seen.s_started - 1)
        else begin
          fsck log k ~what:"fsck" store;
          audit_snapshot log k store ~gen:g snapshots.(g)
        end));
    true

let store ?(seed = 42) ?(docs = 12) ?(update_batches = 3) () =
  if docs < 0 || update_batches < 0 then
    invalid_arg "Torture.store: docs and update_batches must be non-negative";
  Crash
    {
      name = "store";
      outcomes = ("opened", "unopenable");
      census = [ "replayed"; "discarded"; "clean" ];
      setup = fresh_device;
      trace = (fun () -> { s_started = 0; s_commits = []; s_gen_oid = -1 });
      workload = store_workload ~seed ~docs ~update_batches;
      golden = (fun tr _ -> (Array.of_list (List.rev tr.s_commits), tr.s_gen_oid));
      oracle = store_oracle;
      table = (fun _ -> []);
      consolidated = (fun _ -> 0);
    }

(* ------------------------------------------------------------------ *)
(* Failover family: an incremental index build shipped through a
   replica group.  Batch [i] indexes its slice of the documents, then —
   inside one journal transaction — lands every new term record, grows
   changed ones in place (or migrates them across pools when they change
   size class), updates the generation object and finalizes.  The query
   set runs against the primary after every commit; it is part of the
   deterministic I/O sequence, so replays stay aligned.  The oracle
   promotes a standby and demands the committed prefix back, down to
   byte-identical rankings. *)

let failover_file = "failover.mneme"
let failover_log = "failover.log"

(* A bare index session over an already-open store: the pools' own
   buffers serve the faults. *)
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

let engine_over ~vfs store ~dict ~n_docs ~avg_doc_len ~doc_len =
  Engine.create ~vfs ~store:(session_over store) ~dict ~n_docs ~avg_doc_len ~doc_len ()

let engine_rank engine = rank (fun q -> (Engine.run_query_string ~top_k:10 engine q).Engine.ranked)

type failover_trace = {
  mutable f_group : Mneme.Replica.t option;
  mutable f_started : int;
  mutable f_commits : ((Mneme.Oid.t, bytes) Hashtbl.t * (int * string) list list) list;
      (* contents and rankings per commit, newest first *)
  f_catalogs : Vfs.t; (* one catalog file per committed generation *)
  mutable f_gen_oid : Mneme.Oid.t;
}

let failover_trace () =
  { f_group = None; f_started = 0; f_commits = []; f_catalogs = Vfs.create (); f_gen_oid = -1 }

let catalog_file_for gen = Printf.sprintf "failover-cat.%d" gen

let failover_workload ~seed ~docs ~batches ~standbys vfs tr =
  let doc_arr = documents ~name:"failover" ~seed ~docs in
  let store = Mneme.Store.create vfs failover_file in
  let small, medium, large = attach_pools store in
  Mneme.Store.enable_journal store ~log_file:failover_log;
  tr.f_group <-
    Some
      (Mneme.Replica.attach store
         ~standbys:
           (List.init standbys (fun i -> (Printf.sprintf "standby-%d" (i + 1), Vfs.create ()))));
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
  for i = 1 to batches do
    let lo = (i - 1) * docs / batches and hi = i * docs / batches in
    tr.f_started <- tr.f_started + 1;
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
        if i = 1 then tr.f_gen_oid <- Mneme.Store.allocate small gb
        else Mneme.Store.modify store tr.f_gen_oid gb;
        Hashtbl.replace mirror tr.f_gen_oid gb;
        Mneme.Store.finalize store);
    let ranked =
      engine_rank
        (engine_over ~vfs store ~dict ~n_docs:(Inquery.Indexer.document_count indexer)
           ~avg_doc_len:(Inquery.Indexer.avg_doc_length indexer)
           ~doc_len:(Inquery.Indexer.doc_length indexer))
    in
    tr.f_commits <- (Hashtbl.copy mirror, ranked) :: tr.f_commits;
    Catalog.save tr.f_catalogs ~file:(catalog_file_for i) (Catalog.of_indexer indexer)
  done;
  (store, indexer)

(* Promote the most caught-up healthy standby: its applied LSN lies in
   [completed, started], its store opens, passes fsck and holds exactly
   its generation's objects, and every query ranks byte-identically to
   the golden run at that generation. *)
let failover_oracle (commits, catalogs, gen_oid) ~seen _ _ log k =
  let completed = List.length seen.f_commits in
  match seen.f_group with
  | None ->
    (* Died while the group was being attached — nothing was ever
       committed, so there is legitimately nothing to promote. *)
    if completed > 0 then note log k "replica group lost %d commits" completed;
    false
  | Some rep -> (
    match Mneme.Replica.promote rep with
    | exception Failure _ ->
      if completed > 0 then note log k "no healthy standby to promote after %d commits" completed;
      false
    | info, svfs ->
      let g = info.Mneme.Replica.applied_lsn in
      if g < completed || g > seen.f_started then
        note log k "survivor applied lsn %d outside [%d, %d]" g completed seen.f_started;
      if g >= 1 then begin
        match Mneme.Store.open_existing svfs failover_file with
        | exception Mneme.Store.Corrupt msg -> note log k "promoted store unopenable: %s" msg
        | store ->
          ignore (attach_pools store);
          (match Mneme.Store.get store gen_oid with
          | exception e -> note log k "generation object unreadable: %s" (Printexc.to_string e)
          | gb ->
            let expect = Printf.sprintf "gen %d" g in
            if Bytes.to_string gb <> expect then
              note log k "generation object holds %S, expected %S" (Bytes.to_string gb) expect);
          fsck log k ~what:"fsck" store;
          let snap, golden_ranked = commits.(g) in
          audit_snapshot log k store ~gen:g snap;
          let catalog = Catalog.load catalogs ~file:(catalog_file_for g) in
          let ranked =
            engine_rank
              (engine_over ~vfs:svfs store ~dict:catalog.Catalog.dict
                 ~n_docs:catalog.Catalog.n_docs
                 ~avg_doc_len:(Catalog.avg_doc_length catalog)
                 ~doc_len:(fun d ->
                   if d < 0 || d >= Array.length catalog.Catalog.doc_lens then 0
                   else catalog.Catalog.doc_lens.(d)))
          in
          if ranked <> golden_ranked then
            note log k "ranked results differ from the committed generation %d" g
      end;
      g >= 1)

let failover ?(seed = 42) ?(docs = 12) ?(batches = 3) ?(standbys = 2) () =
  if docs < 1 || batches < 1 || standbys < 1 then
    invalid_arg "Torture.failover: docs, batches and standbys must be positive";
  Crash
    {
      name = "failover";
      outcomes = ("promoted", "empty");
      census = [];
      setup = fresh_device;
      trace = failover_trace;
      workload = (fun vfs tr -> ignore (failover_workload ~seed ~docs ~batches ~standbys vfs tr));
      golden =
        (fun tr _ ->
          ( Array.of_list ((Hashtbl.create 0, []) :: List.rev tr.f_commits),
            tr.f_catalogs,
            tr.f_gen_oid ));
      oracle = failover_oracle;
      table = (fun _ -> []);
      consolidated = (fun _ -> 0);
    }

(* ------------------------------------------------------------------ *)
(* Scrub family: the bit-rot sweep.  Build the replicated workload once,
   then for every physical segment flip a bit on one member's copy
   (round-robin across primary and standbys), demand that a scrub of the
   whole group finds exactly that damage, that one group heal converges
   every member back to fsck-clean byte-identical files with the golden
   rankings and zero quarantines — and that a crash at any I/O of the
   repair itself leaves the group convergeable. *)

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
  ss_ranked : (int * string) list list; (* golden rankings of [queries] *)
}

let build_scrub_scenario ?(seed = 42) ?(docs = 12) ?(batches = 3) ?(standbys = 2) () =
  if docs < 1 || batches < 1 || standbys < 1 then
    invalid_arg "Torture.build_scrub_scenario: docs, batches and standbys must be positive";
  let vfs = Vfs.create () in
  let tr = failover_trace () in
  let store, indexer = failover_workload ~seed ~docs ~batches ~standbys vfs tr in
  let rep = Option.get tr.f_group in
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
    ss_ranked = snd (List.hd tr.f_commits);
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

(* A member copy opened as a store of its own, as [(name, device, store)]. *)
let open_member name vfs =
  let store = Mneme.Store.open_existing vfs failover_file in
  ignore (attach_pools store);
  (name, vfs, store)

(* Scrub one member's copy fresh from its disk. *)
let scrub_member scn name =
  if String.equal name "primary" then Mneme.Scrub.run scn.ss_store
  else
    match open_member name (Mneme.Replica.standby_vfs scn.ss_rep ~name) with
    | exception Mneme.Store.Corrupt _ ->
      (* The directory itself is unreadable: every segment is suspect. *)
      Array.to_list scn.ss_segments
    | _, _, store -> Mneme.Scrub.run store

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

(* Each standby's copy as a (name, device, open store) triple, in
   attach order. *)
let standby_members scn =
  List.map
    (fun i ->
      let name = i.Mneme.Replica.name in
      open_member name (Mneme.Replica.standby_vfs scn.ss_rep ~name))
    (Mneme.Replica.info scn.ss_rep)

let member_stores scn = ("primary", scn.ss_vfs, scn.ss_store) :: standby_members scn

(* Converge a set of peer copies with no replica group left (the primary
   crashed mid-heal): scrub every copy, heal each damaged segment from
   the first other member holding a verified copy, repeat to fixpoint. *)
let converge_members log k members =
  let rec go budget =
    let worklist =
      List.concat_map
        (fun (name, _, store) -> List.map (fun d -> (name, d)) (Mneme.Scrub.run store))
        members
    in
    if worklist <> [] then begin
      if budget = 0 then note log k "scrub did not converge to a clean group within 3 rounds"
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
              note log k "heal of %s %s/pseg %d failed: %s" name d.Mneme.Scrub.pool
                d.Mneme.Scrub.pseg e)
          worklist;
        if !ok then go (budget - 1)
      end
    end
  in
  go 3

(* The convergence audit: every member's store passes fsck, every data
   file is byte-identical to the first member's, and a fresh engine over
   the first member returns the golden rankings with an empty
   quarantine. *)
let audit_members log k golden members =
  List.iter (fun (name, _, store) -> fsck log k ~what:(name ^ " fsck") store) members;
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
          note log k "%s's data file differs byte-for-byte from %s's" name pname)
      rest;
    let engine =
      engine_over ~vfs:pvfs pstore ~dict:golden.ss_dict ~n_docs:golden.ss_n_docs
        ~avg_doc_len:golden.ss_avg ~doc_len:golden.ss_doc_len
    in
    if engine_rank engine <> golden.ss_ranked then
      note log k "ranked results differ from the golden run";
    (match Engine.quarantined engine with
    | [] -> ()
    | qs -> note log k "%d term(s) quarantined after heal" (List.length qs))

let audit_scenario scn =
  let log = open_log [] in
  audit_members log 0 scn (member_stores scn);
  List.rev_map snd log.l_problems

(* Crash-during-repair: the rotted scenario is the starting point, the
   primary's device the crashed one, the heal of the rotted segment the
   workload.  After a reboot through journal recovery the survivors
   converge as plain peers and must pass the convergence audit. *)
let scrub_repair ?(seed = 42) ?(docs = 12) ?(batches = 3) ?(standbys = 2) ~segment () =
  let damage scn = scn.ss_segments.(segment) in
  Crash
    {
      name = "scrub-repair";
      outcomes = ("opened", "unopenable");
      census = [];
      setup =
        (fun () ->
          let scn = build_scrub_scenario ~seed ~docs ~batches ~standbys () in
          let member = scn.ss_members.(segment mod Array.length scn.ss_members) in
          scenario_rot scn ~member ~segment ~seed:(seed + (101 * segment)) ();
          Vfs.purge_os_cache scn.ss_vfs;
          (scn, scn.ss_vfs));
      trace = (fun () -> ref None);
      workload =
        (fun scn healed ->
          healed :=
            Some
              (Mneme.Replica.heal_segment scn.ss_rep ~store:scn.ss_store
                 ~pool:(damage scn).Mneme.Scrub.pool ~pseg:(damage scn).Mneme.Scrub.pseg));
      golden =
        (fun healed log ->
          match !healed with
          | Some (Error e) -> note log 0 "measuring heal failed: %s" e
          | Some (Ok _) | None -> ());
      oracle =
        (fun () ~seen:_ scn img log k ->
          ignore (Mneme.Store.recover_journal img ~file:failover_file ~log_file:failover_log);
          match open_member "primary" img with
          | exception Mneme.Store.Corrupt msg ->
            note log k "rebooted primary unopenable: %s" msg;
            false
          | primary ->
            let members = primary :: standby_members scn in
            converge_members log k members;
            audit_members log k scn members;
            true);
      table = (fun () -> []);
      consolidated = (fun _ -> 0);
    }

let scrub ?(seed = 42) ?(docs = 12) ?(batches = 3) ?(standbys = 2) () =
  let scn = build_scrub_scenario ~seed ~docs ~batches ~standbys () in
  let nseg = Array.length scn.ss_segments in
  let nmem = Array.length scn.ss_members in
  let log = open_log [ "members"; "heals"; "repair_points" ] in
  add log "members" nmem;
  for s = 0 to nseg - 1 do
    let member = scn.ss_members.(s mod nmem) in
    let d = scn.ss_segments.(s) in
    scenario_rot scn ~member ~segment:s ~seed:(seed + (101 * s)) ();
    (* Detection: a scrub of the whole group must find exactly this
       segment, on exactly this member. *)
    let found = scrub_group scn in
    (match found with
    | [ (m, d') ] when String.equal m member && d' = d -> ()
    | l ->
      note log s "scrub found %d damaged segment(s); expected exactly %s %s/pseg %d"
        (List.length l) member d.Mneme.Scrub.pool d.Mneme.Scrub.pseg);
    (* Repair through the group: one journaled heal converges everyone. *)
    List.iter
      (fun (m, dmg) ->
        match
          Mneme.Replica.heal_segment scn.ss_rep ~store:scn.ss_store ~pool:dmg.Mneme.Scrub.pool
            ~pseg:dmg.Mneme.Scrub.pseg
        with
        | Ok src ->
          add log "heals" 1;
          if String.equal src m then note log s "segment healed from its own rotten copy %s" src
        | Error e -> note log s "heal failed: %s" e)
      found;
    (match scrub_group scn with
    | [] -> ()
    | l -> note log s "%d segment(s) still damaged after heal" (List.length l));
    audit_members log s scn (member_stores scn);
    let repair = sweep (prepare (scrub_repair ~seed ~docs ~batches ~standbys ~segment:s ())) in
    add log "repair_points" repair.points;
    List.iter
      (fun (k, p) -> if k = 0 then note log s "%s" p else note log s "heal io %d: %s" k p)
      repair.problems
  done;
  close log ~family:"scrub" ~points:nseg

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
      let queries = Array.of_list queries in
      let steps = ref 0 and detect = ref 0.0 and stall = ref 0.0 in
      let qtimes = ref [] in
      let running = ref true in
      while !running do
        let ms = elapsed (fun () -> ignore (Mneme.Scrub.step ~max_bytes:budget scrubber)) in
        incr steps;
        detect := !detect +. ms;
        if ms > !stall then stall := ms;
        let engine =
          engine_over ~vfs:scn.ss_vfs scn.ss_store ~dict:scn.ss_dict ~n_docs:scn.ss_n_docs
            ~avg_doc_len:scn.ss_avg ~doc_len:scn.ss_doc_len
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

(* ------------------------------------------------------------------ *)
(* The pin/gc phase both live-index workloads end with: gc under the
   pins (which must retain what they reach), read through every pin,
   release, gc again (which must drain everything), deep fsck, and the
   index's own invariant audit.  The workload gathers it, so the golden
   run and every replay perform the identical I/O sequence. *)

(* Consolidations a pin reaches.  [w_pinned] holds every object chunk
   the epoch of some held pin names; [w_held] those of them a later
   publication retired by consolidating a full chain
   ({!Live_index.max_chunks} chunks) into one record.  An inline chunk
   is bytes of the pinned snapshot, not the gc's to keep or reclaim, so
   the watch leaves it out.  [w_rewrites] counts the publications that,
   while some pin was held, sealed a fresh base and retired the root's
   whole chain of parts.  Chains are read from memory, so watching adds
   no I/O to the workload. *)
type chain_watch = {
  mutable w_chains : (string * Live_index.chunk list) list; (* as last published *)
  w_pinned : (int, unit) Hashtbl.t;
  mutable w_held : int list;
  mutable w_parts : int list; (* the root's chain as last published *)
  mutable w_pins : int;
  mutable w_rewrites : int;
}

let chain_watch () =
  {
    w_chains = [];
    w_pinned = Hashtbl.create 64;
    w_held = [];
    w_parts = [];
    w_pins = 0;
    w_rewrites = 0;
  }

(* After every step: what the latest publication consolidated, and
   whether it rewrote the root's base. *)
let watch_publish w live =
  (match Live_index.root_parts live with
  | [ _ ] as parts when w.w_parts <> [] && parts <> w.w_parts && w.w_pins > 0 ->
    w.w_rewrites <- w.w_rewrites + 1
  | _ -> ());
  w.w_parts <- Live_index.root_parts live;
  let now = Live_index.chains live in
  let after = Hashtbl.of_seq (List.to_seq now) in
  List.iter
    (fun (term, before) ->
      match Hashtbl.find_opt after term with
      | Some [ one ]
        when List.length before = Live_index.max_chunks && not (List.mem one before) ->
        List.iter
          (function
            | Live_index.Object oid when Hashtbl.mem w.w_pinned oid -> w.w_held <- oid :: w.w_held
            | _ -> ())
          before
      | _ -> ())
    w.w_chains;
  w.w_chains <- now

(* When a pin is taken on the latest epoch. *)
let watch_pin w =
  w.w_pins <- w.w_pins + 1;
  List.iter
    (fun (_, chain) ->
      List.iter
        (function Live_index.Object oid -> Hashtbl.replace w.w_pinned oid () | _ -> ())
        chain)
    w.w_chains

type pin_audit = {
  pinned : (int * (int * string) list list) list; (* pinned at -> rankings through the pin *)
  gc_pinned : Mneme.Epoch.gc_stats;
  gc_final : Mneme.Epoch.gc_stats;
  stranded : int;
  fsck_ok : bool;
  drift : (string * string) list;
  held : int; (* consolidated object chunks a pin still read *)
  held_lost : int; (* of them, reclaimed by the gc under the pins *)
  held_left : int; (* of them, still stored after the release and final gc *)
  rewrites : int; (* root bases rewritten while a pin was held *)
}

let pin_phase live ~pins ~watch ~view ~release ~drift =
  let store = Option.get (Live_index.mneme_store live) in
  let stored () = List.length (List.filter (Mneme.Store.exists store) watch.w_held) in
  let gc_pinned = Live_index.gc live in
  let held_lost = List.length watch.w_held - stored () in
  let pinned = List.map (fun (at, p) -> (at, rank (Live_index.rank ~top_k:10 live (view p)))) pins in
  List.iter (fun (_, p) -> release p) pins;
  let gc_final = Live_index.gc live in
  let stranded = Live_index.stranded_bytes live in
  let fsck_ok = Mneme.Check.ok (Mneme.Check.run ~object_check:Inquery.Postings.validate store) in
  {
    pinned;
    gc_pinned;
    gc_final;
    stranded;
    fsck_ok;
    drift = drift ();
    held = List.length watch.w_held;
    held_lost;
    held_left = stored ();
    rewrites = watch.w_rewrites;
  }

(* The golden run's verdict on that phase: every pinned reader ranked as
   the view it pinned did ([ranked_at]), the final gc retained and
   stranded nothing, and the store deep-checks clean. *)
let audit_pin_phase log a ~last ~ranked_at =
  if a.pinned = [] then note log 0 "audit phase held no pins";
  List.iter
    (fun (at, ranked) ->
      if ranked <> ranked_at at then
        note log 0 "reader pinned at step %d ranked differently after %d further steps and a gc" at
          (last - at))
    a.pinned;
  if a.gc_final.Mneme.Epoch.retained_objects <> 0 then
    note log 0 "final gc retained %d objects with no pins outstanding"
      a.gc_final.Mneme.Epoch.retained_objects;
  if a.stranded <> 0 then note log 0 "%d bytes stranded after the final gc" a.stranded;
  if a.held_lost > 0 then
    note log 0 "gc under the pins reclaimed %d of %d consolidated chunks a pin still read"
      a.held_lost a.held;
  if a.held_left > 0 then
    note log 0 "%d of %d consolidated chunks survived the release and the final gc" a.held_left
      a.held;
  if not a.fsck_ok then note log 0 "fsck failed after the final gc";
  (match a.drift with
  | [] -> ()
  | (where, p) :: _ ->
    note log 0 "invariant audit after the pin phase (%d problems; %s: %s)" (List.length a.drift)
      where p);
  add log "reclaimed"
    (a.gc_pinned.Mneme.Epoch.reclaimed_objects + a.gc_final.Mneme.Epoch.reclaimed_objects);
  add log "base_rewrites" a.rewrites

(* After recovery: gc drains every byte the interrupted step stranded
   and leaves a store that still deep-checks clean. *)
let gc_drains log k live ~what =
  ignore (Live_index.gc live);
  if Live_index.stranded_bytes live <> 0 then
    note log k "%d bytes stranded after gc" (Live_index.stranded_bytes live);
  fsck log k ~object_check:Inquery.Postings.validate ~what
    (Option.get (Live_index.mneme_store live))

let report_drift log k ~what = function
  | [] -> ()
  | (where, p) :: rest -> note log k "%s (%d problems; %s: %s)" what (1 + List.length rest) where p

(* ------------------------------------------------------------------ *)
(* Epoch family: a journaled {!Live_index} where every document addition
   or deletion publishes an epoch through one sealed root switch.  The
   oracle demands that a crash at any physical I/O recovers to wholly the
   old epoch or wholly the new one — directory, record bytes, document
   count and rankings byte-identical to the golden view of that epoch —
   fsck-clean, with gc able to drain every byte the interrupted epoch
   stranded. *)

let epoch_file = "epoch.mneme"
let epoch_log = "epoch.log"

type epoch_view = {
  eg_epoch : int;
  eg_doc_count : int;
  eg_directory : (string * int * int) list;
  eg_records : (string * bytes) list;
  eg_ranked : (int * string) list list;
}

type epoch_trace = {
  mutable e_started : int;
  mutable e_views : epoch_view list; (* one per publication, newest first *)
  mutable e_audit : pin_audit option;
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
    eg_ranked = rank (Live_index.search ~top_k:10 live);
  }

let epoch_workload ~seed ~docs vfs tr =
  let doc_arr = documents ~name:"epoch" ~seed ~docs in
  let live = Live_index.create_mneme ~journal:epoch_log vfs ~file:epoch_file () in
  let ids = Array.make (Array.length doc_arr) (-1) in
  let m = ref 0 in
  let pins = ref [] in
  let watch = chain_watch () in
  let step mutate =
    incr m;
    tr.e_started <- tr.e_started + 1;
    mutate ();
    watch_publish watch live;
    (* Observation — directory walk, record fetches, the query set — is
       part of the deterministic I/O sequence. *)
    tr.e_views <- epoch_observe live :: tr.e_views;
    (* Pin a spread of epochs (1, 5, 9, ...) so the pin phase can prove
       a pinned reader survives both later mutation, consolidation of
       the chains it reads, and gc. *)
    if !m mod 4 = 1 then begin
      pins := (Live_index.epoch live, Live_index.pin live) :: !pins;
      watch_pin watch
    end
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
  tr.e_audit <-
    Some
      (pin_phase live ~pins:(List.rev !pins) ~watch
         ~view:(Live_index.pinned live)
         ~release:(Live_index.release live)
         ~drift:(fun () -> Live_index.audit live))

let epoch_golden tr log =
  let views = Array.of_list (List.rev tr.e_views) in
  let mutations = Array.length views in
  Array.iteri
    (fun i v ->
      if v.eg_epoch <> i + 1 then note log 0 "mutation %d published epoch %d" (i + 1) v.eg_epoch)
    views;
  add log "epochs" mutations;
  (match tr.e_audit with
  | None -> note log 0 "workload never reached the audit phase"
  | Some a ->
    audit_pin_phase log a ~last:mutations ~ranked_at:(fun e -> views.(e - 1).eg_ranked);
    if a.gc_pinned.Mneme.Epoch.retained_objects = 0 then
      note log 0 "gc under pins retained nothing — the pins protected no stale object");
  views

let epoch_oracle views ~seen _ img log k =
  let completed = List.length seen.e_views in
  (* Recovery runs once here (so the verdict is observable) and again
     inside [open_mneme] — replaying a recovered log must be
     idempotent. *)
  tally_recovery log (Mneme.Store.recover_journal img ~file:epoch_file ~log_file:epoch_log);
  match Live_index.open_mneme ~journal:epoch_log img ~file:epoch_file () with
  | exception Mneme.Store.Corrupt msg ->
    if completed > 0 then note log k "index unopenable after %d published epochs: %s" completed msg;
    false
  | live ->
    let g = Live_index.epoch live in
    add log (if g > completed then "wholly_new" else "wholly_old") 1;
    (* A publication the replay saw commit cannot roll back; the log
       fsync may have sealed one more the crash then interrupted. *)
    if g < completed || g > seen.e_started then
      note log k "recovered epoch %d outside [%d, %d]" g completed seen.e_started
    else if g = 0 then note log k "store opened but no epoch was ever published"
    else begin
      let gold = views.(g - 1) in
      (* Wholly old or wholly new: the surviving root reproduces the
         golden view of epoch [g] exactly. *)
      if Live_index.document_count live <> gold.eg_doc_count then
        note log k "epoch %d: %d documents, golden had %d" g (Live_index.document_count live)
          gold.eg_doc_count;
      if Live_index.directory live <> gold.eg_directory then
        note log k "epoch %d: directory differs from golden" g;
      List.iter
        (fun (term, b) ->
          match Live_index.term_record live term with
          | Some b' when Bytes.equal b b' -> ()
          | Some _ -> note log k "epoch %d: record for %S differs from golden" g term
          | None -> note log k "epoch %d: record for %S lost" g term)
        gold.eg_records;
      if rank (Live_index.search ~top_k:10 live) <> gold.eg_ranked then
        note log k "epoch %d: ranked results differ from golden" g;
      (* A pin taken on the recovered root must agree with both. *)
      let p = Live_index.pin live in
      if rank (Live_index.rank ~top_k:10 live (Live_index.pinned live p)) <> gold.eg_ranked then
        note log k "epoch %d: pinned ranking differs from golden" g;
      Live_index.release live p;
      fsck log k ~what:"fsck" (Option.get (Live_index.mneme_store live));
      gc_drains log k live ~what:"fsck after gc";
      report_drift log k ~what:"stat drift after recovery" (Live_index.audit live);
      (* The gc reclaimed nothing the root's chain still names: the store
         reopens to the same directory. *)
      match Live_index.open_mneme ~journal:epoch_log img ~file:epoch_file () with
      | exception Mneme.Store.Corrupt msg -> note log k "epoch %d: unopenable after gc: %s" g msg
      | again ->
        if Live_index.directory again <> gold.eg_directory then
          note log k "epoch %d: directory differs from golden after gc and a reopen" g
    end;
    true

let epoch ?(seed = 42) ?(docs = 8) () =
  if docs < 1 then invalid_arg "Torture.epoch: docs must be positive";
  Crash
    {
      name = "epoch";
      outcomes = ("opened", "unopenable");
      census =
        [
          "wholly_old"; "wholly_new"; "replayed"; "discarded"; "clean"; "epochs"; "reclaimed";
          "base_rewrites";
        ];
      setup = fresh_device;
      trace = (fun () -> { e_started = 0; e_views = []; e_audit = None });
      consolidated = (fun tr -> Option.fold ~none:0 ~some:(fun a -> a.held) tr.e_audit);
      workload = epoch_workload ~seed ~docs;
      golden = epoch_golden;
      oracle = epoch_oracle;
      table =
        (fun views ->
          Array.to_list views
          |> List.map (fun v ->
                 [
                   ("epoch", v.eg_epoch);
                   ("documents", v.eg_doc_count);
                   ("terms", List.length v.eg_directory);
                 ]));
    }

(* ------------------------------------------------------------------ *)
(* Ingest family: an {!Ingest} index under WAL-acknowledged additions and
   deletions interleaved with budgeted merge steps, observing the
   union's document table and the query set after every operation, then
   draining the merge one budgeted fold at a time.  The oracle demands
   exactly-once durability: a crash at any physical I/O recovers a store
   that is fsck-clean, holds every acknowledged document exactly once
   (the union byte-identical to the golden run at the recovered
   frontier), serves pinned readers bit-identically, and lets the merge
   resume and drain to the last acknowledged operation. *)

let ingest_file = "ingest.mneme"
let ingest_wal = ingest_file ^ ".wal"
let ingest_journal = ingest_file ^ ".log"

(* Small seals and a tight fold budget so the workload crosses many
   seal/fold boundaries; fanout 2 exercises the tier combiner. *)
let ingest_config = { Ingest.buffer_budget = 1 lsl 20; seal_bytes = 1024; tier_fanout = 2 }

type ingest_obs = {
  io_seq : int; (* last acknowledged operation *)
  io_epoch : int; (* disk epochs published (folds committed) *)
  io_doc_count : int;
  io_docs : (int * int) list;
  io_ranked : (int * string) list list;
}

type ingest_kind = Ik_add | Ik_delete | Ik_merge

type ingest_audit = {
  pins : pin_audit;
  segments : (int * int * int) list;
  wal_bytes : int;
  stats : Ingest.stats;
}

type ingest_trace = {
  mutable i_inflight : ingest_kind option; (* the operation under way *)
  mutable i_obs : ingest_obs list; (* the empty union, then one per operation; newest first *)
  mutable i_audit : ingest_audit option;
}

let ingest_observe t =
  {
    io_seq = Ingest.last_seq t;
    io_epoch = Live_index.epoch (Ingest.live t);
    io_doc_count = Ingest.document_count t;
    io_docs = Ingest.documents t;
    io_ranked = rank (Ingest.search ~top_k:10 t);
  }

let ingest_workload ~seed ~docs vfs tr =
  let doc_arr = documents ~name:"ingest" ~seed ~docs in
  let t = Ingest.create ~config:ingest_config vfs ~file:ingest_file () in
  let budget = Mneme.Budget.create ~max_bytes:2048 () in
  let ids = Array.make (Array.length doc_arr) (-1) in
  let m = ref 0 in
  let pins = ref [] in
  let watch = chain_watch () in
  (* Observation 0: the empty union — what a crash before the first
     acknowledgement must recover to. *)
  tr.i_obs <- [ ingest_observe t ];
  let step kind mutate =
    incr m;
    tr.i_inflight <- Some kind;
    mutate ();
    watch_publish watch (Ingest.live t);
    (* Observation is part of the deterministic I/O sequence. *)
    let obs = ingest_observe t in
    tr.i_obs <- obs :: tr.i_obs;
    tr.i_inflight <- None;
    (* Pin a spread of union states (ops 1, 6, 11, ...) so the pin phase
       can prove a pinned reader survives later churn, folds and gc. *)
    if !m mod 5 = 1 then begin
      pins := (!m, Ingest.pin t) :: !pins;
      watch_pin watch
    end
  in
  (* Each document is its text twice over: the records of the terms it
     repeats outgrow the 12 bytes an inline chunk holds, so chains of
     objects as well as inline chunks are consolidated under the pins. *)
  let text doc =
    let t = Collections.Synth.document_text doc in
    t ^ " " ^ t
  in
  Array.iteri
    (fun d doc ->
      step Ik_add (fun () ->
          ids.(d) <-
            (match Ingest.add_document t (text doc) with
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
  let pins =
    pin_phase (Ingest.live t) ~pins:(List.rev !pins) ~watch
      ~view:(Ingest.pinned t)
      ~release:(Ingest.release t)
      ~drift:(fun () -> Ingest.audit t)
  in
  tr.i_audit <-
    Some
      {
        pins;
        segments = Ingest.segments t;
        wal_bytes = Vfs.size (Vfs.open_file vfs ingest_wal);
        stats = Ingest.stats t;
      }

let ingest_golden tr log =
  let golden = Array.of_list (List.rev tr.i_obs) in
  let ops = Array.length golden - 1 in
  let final = golden.(ops) in
  (* Index the observations by acknowledged frontier: merge steps do not
     consume sequence numbers, so every observation sharing a seq must
     describe the identical union — folding is invisible to readers. *)
  let by_seq = Array.make (final.io_seq + 2) None in
  Array.iter
    (fun obs ->
      match by_seq.(obs.io_seq + 1) with
      | None -> by_seq.(obs.io_seq + 1) <- Some obs
      | Some prev ->
        if
          prev.io_doc_count <> obs.io_doc_count
          || prev.io_docs <> obs.io_docs
          || prev.io_ranked <> obs.io_ranked
        then note log 0 "observations at seq %d disagree — a fold moved the union" obs.io_seq)
    golden;
  Array.iteri
    (fun i obs -> if obs = None then note log 0 "no golden observation covers seq %d" (i - 1))
    by_seq;
  add log "operations" ops;
  add log "acked" (final.io_seq + 1);
  (match tr.i_audit with
  | None -> note log 0 "workload never reached the audit phase"
  | Some a ->
    audit_pin_phase log a.pins ~last:ops ~ranked_at:(fun m -> golden.(m).io_ranked);
    if a.segments <> [] then note log 0 "%d segments survived the drain" (List.length a.segments);
    if a.wal_bytes <> 0 then note log 0 "%d WAL bytes survived the drain" a.wal_bytes;
    if a.stats.Ingest.overloads <> 0 then
      note log 0 "%d overloads under a %d-byte budget" a.stats.Ingest.overloads
        ingest_config.Ingest.buffer_budget;
    if final.io_epoch <> a.stats.Ingest.folds then
      note log 0 "%d disk epochs but %d folds — a fold published more than one root"
        final.io_epoch a.stats.Ingest.folds;
    add log "folds" a.stats.Ingest.folds);
  (golden, by_seq)

let ingest_oracle (_, by_seq) ~seen _ img log k =
  let completed_seq, completed_epoch =
    match seen.i_obs with [] -> (-1, 0) | obs :: _ -> (obs.io_seq, obs.io_epoch)
  in
  (* Journal recovery runs once here (so the verdict is observable) and
     again inside [Ingest.open_] — replaying a recovered log must be
     idempotent. *)
  tally_recovery log
    (if Vfs.file_exists img ingest_file then
       Mneme.Store.recover_journal img ~file:ingest_file ~log_file:ingest_journal
     else Mneme.Journal.Clean);
  match Ingest.open_ ~config:ingest_config img ~file:ingest_file () with
  | exception e ->
    note log k "index unopenable: %s" (Printexc.to_string e);
    false
  | t ->
    let g = Ingest.last_seq t in
    let folds = Live_index.epoch (Ingest.live t) in
    add log (if folds > completed_epoch then "wholly_new" else "wholly_old") 1;
    add log "redelivered" (Ingest.stats t).Ingest.replayed_ops;
    (* An acknowledgement the replay saw return cannot roll back; the WAL
       fsync may have sealed one more operation the crash then
       interrupted. *)
    let max_seq =
      completed_seq + (match seen.i_inflight with Some Ik_add | Some Ik_delete -> 1 | _ -> 0)
    in
    if g < completed_seq || g > max_seq then
      note log k "recovered frontier %d outside the acknowledged window [%d, %d]" g completed_seq
        max_seq;
    (* The disk index is wholly the old root or wholly the new one: a
       fold the replay saw commit cannot roll back, and at most the one
       interrupted fold may have sealed. *)
    let max_epoch = completed_epoch + (match seen.i_inflight with Some Ik_merge -> 1 | _ -> 0) in
    if folds < completed_epoch || folds > max_epoch then
      note log k "recovered disk epoch %d outside [%d, %d]" folds completed_epoch max_epoch;
    (match if g + 1 >= 0 && g + 1 < Array.length by_seq then by_seq.(g + 1) else None with
    | None -> note log k "recovered frontier %d has no golden observation" g
    | Some gold ->
      (* Exactly once: the recovered union's document table is byte for
         byte the golden table at the recovered frontier. *)
      if Ingest.document_count t <> gold.io_doc_count then
        note log k "seq %d: %d documents, golden had %d" g (Ingest.document_count t)
          gold.io_doc_count;
      if Ingest.documents t <> gold.io_docs then
        note log k "seq %d: document table differs from golden" g;
      if rank (Ingest.search ~top_k:10 t) <> gold.io_ranked then
        note log k "seq %d: union rankings differ from golden" g;
      (* A reader pinned on the recovered union ranks identically. *)
      let p = Ingest.pin t in
      if rank (Live_index.rank ~top_k:10 (Ingest.live t) (Ingest.pinned t p)) <> gold.io_ranked
      then
        note log k "seq %d: pinned rankings differ from golden" g;
      Ingest.release t p;
      fsck log k ~what:"fsck" (Option.get (Live_index.mneme_store (Ingest.live t)));
      report_drift log k ~what:"audit after recovery" (Ingest.audit t);
      (* The merge resumes and drains: the buffer empties, the frontier
         reaches the last acknowledged operation, readers see no
         movement, the WAL is cut, and gc leaves nothing stranded. *)
      Ingest.drain t;
      if Ingest.segments t <> [] || Ingest.buffered_docs t > 0 then
        note log k "post-recovery drain left the buffer non-empty";
      if Ingest.merged_seq t <> g then
        note log k "post-recovery drain stopped at frontier %d, acknowledged %d"
          (Ingest.merged_seq t) g;
      if rank (Ingest.search ~top_k:10 t) <> gold.io_ranked then
        note log k "seq %d: rankings moved across the drain" g;
      if Vfs.size (Vfs.open_file img ingest_wal) <> 0 then
        note log k "WAL not truncated after the post-recovery drain";
      gc_drains log k (Ingest.live t) ~what:"fsck after drain and gc";
      report_drift log k ~what:"audit after the drain" (Ingest.audit t));
    true

let ingest ?(seed = 42) ?(docs = 8) () =
  if docs < 1 then invalid_arg "Torture.ingest: docs must be positive";
  Crash
    {
      name = "ingest";
      outcomes = ("opened", "unopenable");
      census =
        [
          "wholly_old"; "wholly_new"; "replayed"; "discarded"; "clean"; "operations"; "acked";
          "folds"; "redelivered"; "reclaimed"; "base_rewrites";
        ];
      setup = fresh_device;
      trace = (fun () -> { i_inflight = None; i_obs = []; i_audit = None });
      consolidated = (fun tr -> Option.fold ~none:0 ~some:(fun a -> a.pins.held) tr.i_audit);
      workload = ingest_workload ~seed ~docs;
      golden = ingest_golden;
      oracle = ingest_oracle;
      table =
        (fun (golden, _) ->
          List.tl (Array.to_list golden)
          |> List.mapi (fun i obs ->
                 [
                   ("op", i + 1);
                   ("acked_seq", obs.io_seq);
                   ("folds", obs.io_epoch);
                   ("documents", obs.io_doc_count);
                 ]));
    }

(* ------------------------------------------------------------------ *)
(* Shard family: the fault-at-every-I/O discipline pointed at
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
   fetch.  Two shards of two replicas, top 10. *)

let shard ?(seed = 42) ?(docs = 24) () =
  let shards = 2 and replicas = 2 and top_k = 10 in
  if docs < shards then invalid_arg "Torture.shard: fewer documents than shards";
  let prepared = Experiment.prepare (model ~name:"shard-torture" ~seed ~docs) in
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
         queries)
  in
  let firstk l = List.filteri (fun i _ -> i < top_k) l in
  let restrict ranges ranked =
    List.filter (fun (d, _) -> List.exists (fun (lo, hi) -> d >= lo && d < hi) ranges) ranked
  in
  let log = open_log [] in
  let runs = ref 0 in
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
    | Error e -> note log run "query %d refused: %s" qi (Shard.error_message e)
    | Ok (res : Shard.result) ->
      (match deadline with
      | Some d when res.Shard.elapsed_ms > d +. fetch_allow ->
        incr overshoots;
        note log run "query %d overshot the deadline: %.2f ms against %.2f + %.2f" qi
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
        note log run "query %d: coverage claims %d docs, the answered reports cover %d" qi
          cov.Shard.docs_covered covered;
      if cov.Shard.answered + cov.Shard.degraded + cov.Shard.shed <> cov.Shard.shards_total then
        note log run "query %d: coverage classes do not partition the shards" qi;
      if res.Shard.complete then begin
        incr full;
        if pairs res.Shard.ranked <> firstk oracle.(qi) then begin
          incr truncations;
          note log run "query %d: full-coverage ranking differs from the unsharded index" qi
        end
      end
      else begin
        incr partial;
        if pairs res.Shard.ranked <> firstk (restrict ranges oracle.(qi)) then begin
          incr truncations;
          note log run
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
      | Error e -> note log 0 "clean probe: query %d refused: %s" qi (Shard.error_message e)
      | Ok res ->
        if not res.Shard.complete then note log 0 "clean probe: query %d not complete" qi;
        if pairs res.Shard.ranked <> firstk oracle.(qi) then
          note log 0 "clean probe: query %d differs from the unsharded index" qi;
        if res.Shard.elapsed_ms > !clean_ms then clean_ms := res.Shard.elapsed_ms)
    queries;
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
        | exception Vfs.Crash -> note log !runs "query %d: a device crash escaped the frontend" qi
        | r -> audit !runs ~deadline:deadline_ms ~fetch_allow qi r)
      queries;
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
      match Shard.run_query_string ~top_k c (List.hd queries) with
      | Error e -> note log !runs "blackout recheck refused: %s" (Shard.error_message e)
      | Ok res -> (
        match
          List.find_opt (fun r -> String.equal r.Shard.r_shard sname) res.Shard.reports
        with
        | None -> note log !runs "blackout: shard %s missing from the reports" sname
        | Some rep ->
          (match rep.Shard.r_status with
          | Shard.Shed _ -> ()
          | Shard.Answered | Shard.Degraded _ ->
            note log !runs "blackout: shard %s with every replica dead was not shed" sname);
          if rep.Shard.r_attempts < 2 then
            note log !runs "blackout: shard %s was declared down after %d attempt(s), no retry"
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
  if !partial = 0 then note log 0 "no replay ever exercised a partial result";
  {
    family = "shard";
    points;
    counts =
      [
        ("shards", shards);
        ("members", List.length members);
        ("replays", !runs);
        ("full", !full);
        ("partial", !partial);
        ("overshoots", !overshoots);
        ("truncations", !truncations);
      ];
    problems = List.rev log.l_problems;
  }

(* ------------------------------------------------------------------ *)
(* Cache family: coherence under churn.  A journaled live index under an
   add/delete workload, with a result cache and a block cache riding the
   publication hook the way a serving frontend would; at every published
   epoch the cached read path is compared bit-for-bit with the uncached
   one.  Seed 42, 18 documents — about 24 published epochs. *)

let cache_file = "cache.mneme"
let cache_log = "cache.log"

let cache () =
  let doc_arr = documents ~name:"cache-torture" ~seed:42 ~docs:18 in
  let vfs = Vfs.create () in
  Vfs.set_fault vfs (Vfs.Fault.none ());
  (* Transient buffers: a segment read twice comes from its frame. *)
  let live =
    Live_index.create_mneme ~buffers:Buffer_sizing.no_cache ~journal:cache_log vfs
      ~file:cache_file ()
  in
  let store = Option.get (Live_index.mneme_store live) in
  let rc = Result_cache.create ~capacity_bytes:(1 lsl 16) in
  let bc = Util.Block_cache.create ~capacity_bytes:(1 lsl 18) in
  Mneme.Store.set_frames store (Some bc);
  let pins = ref [] in
  (* newest first *)
  let pinned_epochs () = List.map fst !pins in
  let rc_hook_drops = ref 0 in
  (* The publication hook, exactly as a serving frontend would register
     it: frames of any epoch no pin protects are dead the moment a new
     epoch publishes.  Results get a one-epoch grace window on purpose,
     so stale entries survive into the next epoch and the probe-time
     epoch check has something to purge — both invalidation mechanisms
     run in every churn step. *)
  Live_index.on_publish live (fun ~epoch ->
      ignore
        (Util.Block_cache.retain bc ~keep:(fun e ->
             e = epoch || List.mem e (pinned_epochs ())));
      rc_hook_drops := !rc_hook_drops + Result_cache.retain rc ~keep:(fun e -> e >= epoch - 1));
  let log = open_log [] in
  let comparisons = ref 0 in
  (* Read a pinned epoch's records through the store with frames
     attached — a resident segment comes from its frame, as a serving
     frontend reads it — and again with frames detached, from the
     device, and bit-compare the bytes. *)
  let audit_pin m (e, p) =
    let view = Live_index.pinned live p in
    List.iter
      (fun (term, _, _) ->
        match Live_index.record view term with
        | None -> ()
        | Some framed -> (
          incr comparisons;
          Mneme.Store.set_frames store None;
          let plain = Live_index.record view term in
          Mneme.Store.set_frames store (Some bc);
          match plain with
          | None -> note log m "pinned epoch %d: term %S is gone with frames off" e term
          | Some record ->
            if not (Bytes.equal framed record) then
              note log m "pinned epoch %d: term %S's record differs through frames" e term))
      (List.filteri (fun i _ -> i < 4) (Live_index.pin_directory p))
  in
  (* One pass over the query set: the uncached latest-view search is the
     oracle; a probe that hits must be bit-identical, a miss fills. *)
  let query_pass m ~expect_hits =
    let epoch = Live_index.epoch live in
    List.iteri
      (fun qi q ->
        incr comparisons;
        let golden = fingerprint (Live_index.search ~top_k:10 live q) in
        let key = Printf.sprintf "%s|k=10" q in
        match Result_cache.find rc ~key ~epoch with
        | Some cached ->
          if cached <> golden then
            note log m "query %d: cached ranking diverges from uncached at epoch %d" qi epoch
        | None ->
          if expect_hits then note log m "query %d: entry filled this epoch did not hit" qi
          else
            Result_cache.insert rc ~key ~epoch ~cost:(64 + (40 * List.length golden)) golden)
      queries
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
        note log 0 "block cache holds a frame of collected epoch %d after gc under pins" e)
    (Util.Block_cache.epochs bc);
  List.iter (fun (_, p) -> Live_index.release live p) !pins;
  ignore (Live_index.gc live);
  ignore (Util.Block_cache.retain bc ~keep:(fun e -> e = live_epoch));
  ignore (Result_cache.retain rc ~keep:(fun e -> e = live_epoch));
  List.iter
    (fun e -> if e <> live_epoch then note log 0 "cache holds epoch %d after the final purge" e)
    (Util.Block_cache.epochs bc @ Result_cache.epochs rc);
  (* The grace window means probe-time purges must have fired over and
     above the hook's drops; and a run that never hit or invalidated a
     tier exercised nothing. *)
  let rc_stats = Result_cache.stats rc and frame_stats = Util.Block_cache.stats bc in
  let result_hits = rc_stats.Util.Cache_stats.hits
  and frame_hits = frame_stats.Util.Cache_stats.hits
  and invalidations =
    rc_stats.Util.Cache_stats.invalidations + frame_stats.Util.Cache_stats.invalidations
  in
  if rc_stats.Util.Cache_stats.invalidations <= !rc_hook_drops then
    note log 0 "probe-time epoch check never purged a stale result";
  if result_hits = 0 then note log 0 "the result cache never hit";
  if frame_hits = 0 then note log 0 "no segment was ever read from a frame";
  if invalidations = 0 then note log 0 "no cache entry was ever invalidated";
  {
    family = "cache";
    points = !m;
    counts =
      [
        ("comparisons", !comparisons);
        ("result_hits", result_hits);
        ("frame_hits", frame_hits);
        ("invalidations", invalidations);
      ];
    problems = List.rev log.l_problems;
  }
