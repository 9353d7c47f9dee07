(* Cross-module property tests: random operation sequences checked
   against simple in-memory reference models. *)

(* --- Live index vs a naive in-memory search -------------------------- *)

(* Documents are tiny term-lists over a 6-word vocabulary; the model
   checks membership: a query term matches exactly the live documents
   containing it. *)
let vocab = [| "alpha"; "beta"; "gamma"; "delta"; "epsilon"; "zeta" |]

let live_ops_gen =
  QCheck.Gen.(list_size (int_range 1 25) (pair (int_range 0 2) (int_range 0 5)))

let prop_live_index_model backend_name make_live =
  QCheck.Test.make
    ~name:(Printf.sprintf "live index (%s) matches membership model" backend_name)
    ~count:30 (QCheck.make live_ops_gen)
    (fun ops ->
      let live = make_live () in
      let model = Hashtbl.create 16 (* doc id -> term list *) in
      List.for_all
        (fun (op, v) ->
          match op with
          | 0 ->
            (* add a 3-term document built from the vocabulary *)
            let terms = [ vocab.(v); vocab.((v + 1) mod 6); vocab.(v) ] in
            let id = Core.Live_index.add_document live (String.concat " " terms) in
            Hashtbl.replace model id terms;
            true
          | 1 -> (
            (* delete the smallest live doc, if any *)
            let victim = Hashtbl.fold (fun d _ acc -> min d acc) model max_int in
            if victim = max_int then true
            else begin
              Hashtbl.remove model victim;
              Core.Live_index.delete_document live victim
            end)
          | _ ->
            (* search: result set = model membership *)
            let term = vocab.(v) in
            let expected =
              Hashtbl.fold (fun d terms acc -> if List.mem term terms then d :: acc else acc) model []
              |> List.sort compare
            in
            let got =
              Core.Live_index.search ~top_k:1000 live term
              |> List.map (fun r -> r.Inquery.Ranking.doc)
              |> List.sort compare
            in
            got = expected)
        ops)

let prop_live_btree =
  prop_live_index_model "btree" (fun () ->
      Core.Live_index.create_btree (Vfs.create ()) ~file:"p.btree" ())

let prop_live_mneme =
  prop_live_index_model "mneme" (fun () ->
      Core.Live_index.create_mneme (Vfs.create ()) ~file:"p.mneme" ())

(* --- The front-coded directory survives a reopen --------------------- *)

(* Words that are prefixes of one another, digit-led words (which sort
   before letters), and a few of 128-300 characters, so that shared
   prefixes and suffix lengths need two varint bytes. *)
let root_vocab =
  [|
    "a"; "aa"; "aab"; "ab"; "b"; "0"; "07x"; "1a"; "9lives";
    String.make 128 'b'; String.make 200 'b' ^ "q"; String.make 300 'b'; "c" ^ String.make 140 'd';
  |]

(* The first operation is an add, so that an epoch is published and
   the store has a root to reopen.  At least five more follow, so that
   words the vocabulary repeats fill their chunk chains (four chunks)
   and consolidate, deletions rewrite chains whole, and the root's chain
   of parts fills and is rewritten as a base; gc runs between
   publications. *)
let root_ops_gen =
  let open QCheck.Gen in
  let text = list_size (int_range 1 5) (int_range 0 (Array.length root_vocab - 1)) in
  let op =
    frequency
      [
        (6, map (fun ws -> `Add ws) text);
        (2, map (fun d -> `Delete d) (int_range 0 25));
        (1, map3 (fun ws d v -> `Fold (ws, d, v)) text (int_range 0 25) (int_range 0 999));
        (1, pure `Gc);
      ]
  in
  map2 (fun ws ops -> `Add ws :: ops) text (list_size (int_range 5 24) op)

(* Reopened after every operation, the store gives the live index's
   directory, whatever the length of the root's chain. *)
let prop_directory_survives_reopen =
  QCheck.Test.make ~name:"the live index's directory survives a reopen" ~count:100
    (QCheck.make root_ops_gen)
    (fun ops ->
      let vfs = Vfs.create () in
      let live = Core.Live_index.create_mneme ~journal:"dr.log" vfs ~file:"dr.mneme" () in
      let text ws = String.concat " " (List.map (fun w -> root_vocab.(w)) ws) in
      List.for_all
        (fun op ->
          (match op with
          | `Add ws -> ignore (Core.Live_index.add_document live (text ws))
          | `Delete d -> ignore (Core.Live_index.delete_document live d)
          | `Gc -> ignore (Core.Live_index.gc live)
          | `Fold (ws, d, v) ->
            (* One document, one deletion and a metadata pair as one
               epoch, the way an ingestion merge publishes. *)
            let doc = Core.Live_index.next_doc live in
            let terms, len = Core.Live_index.tokenize live (text ws) in
            Core.Live_index.fold_batch live
              ~meta:[ (Printf.sprintf "k%d" (v mod 3), string_of_int v) ]
              ~docs:[ (doc, len) ]
              ~postings:
                (List.map (fun (term, ps) -> (term, Inquery.Postings.encode [ (doc, ps) ])) terms)
              ~deletes:[ d ] ());
          let re =
            Core.Live_index.open_mneme ~journal:"dr.log" (Vfs.crash_image vfs) ~file:"dr.mneme" ()
          in
          let open Core.Live_index in
          let parts = List.length (root_parts live) in
          parts >= 1 && parts <= max_chunks
          && root_parts re = root_parts live
          && directory re = directory live
          && chains re = chains live
          && doc_lengths re = doc_lengths live
          && meta re = meta live
          && next_doc re = next_doc live
          && (latest re).total_len = (latest live).total_len
          && epoch re = epoch live
          && audit re = []
          && audit live = [])
        ops)

(* --- Journal vs direct writes ---------------------------------------- *)

let journal_ops_gen =
  QCheck.Gen.(list_size (int_range 1 20) (pair (int_range 0 200) (int_range 1 40)))

let prop_journal_equals_direct =
  QCheck.Test.make ~name:"journaled batches equal direct writes" ~count:100
    (QCheck.make journal_ops_gen)
    (fun writes ->
      let payload n off = Bytes.init n (fun i -> Char.chr (33 + ((off + i) mod 90))) in
      (* Direct world. *)
      let vfs1 = Vfs.create () in
      let direct = Vfs.open_file vfs1 "d" in
      List.iter (fun (off, n) -> Vfs.write direct ~off (payload n off)) writes;
      (* Journaled world: same writes in one committed batch. *)
      let vfs2 = Vfs.create () in
      ignore (Vfs.open_file vfs2 "d");
      let j = Mneme.Journal.create vfs2 ~log_file:"l" ~data_file:"d" in
      Mneme.Journal.begin_batch j;
      List.iter (fun (off, n) -> Mneme.Journal.write j ~off (payload n off)) writes;
      (* Visible state before commit already matches. *)
      let size = Mneme.Journal.data_size j in
      let pre = Mneme.Journal.read j ~off:0 ~len:size in
      Mneme.Journal.commit j;
      let d2 = Vfs.open_file vfs2 "d" in
      Vfs.size direct = Vfs.size d2
      && Vfs.read direct ~off:0 ~len:(Vfs.size direct) = Vfs.read d2 ~off:0 ~len:(Vfs.size d2)
      && pre = Vfs.read d2 ~off:0 ~len:(Vfs.size d2))

(* --- Buffer sizing is monotone --------------------------------------- *)

let prop_buffer_sizing_monotone =
  QCheck.Test.make ~name:"buffer sizes grow with the largest record" ~count:200
    QCheck.(pair (int_range 1 1_000_000) (int_range 1 1_000_000))
    (fun (a, b) ->
      let lo = min a b and hi = max a b in
      let s_lo = Core.Buffer_sizing.compute ~largest_record:lo () in
      let s_hi = Core.Buffer_sizing.compute ~largest_record:hi () in
      s_lo.Core.Buffer_sizing.large <= s_hi.Core.Buffer_sizing.large
      && s_lo.Core.Buffer_sizing.medium <= s_hi.Core.Buffer_sizing.medium
      && s_lo.Core.Buffer_sizing.small = s_hi.Core.Buffer_sizing.small)

(* --- Query parser never raises on arbitrary input -------------------- *)

let query_fuzz_gen =
  let fragment =
    QCheck.Gen.oneofl
      [ "#sum("; "#and("; "#or("; "#not("; "#wsum("; "#phrase("; "#od2("; "#uw5("; "#syn(";
        ")"; "("; "term"; "2"; "1.5"; "#"; "##"; "a-b"; ""; " "; "#odx("; "zz" ]
  in
  QCheck.Gen.(map (String.concat " ") (list_size (int_range 0 12) fragment))

let prop_parser_total =
  QCheck.Test.make ~name:"query parser is total (Ok or Error, never raises)" ~count:500
    (QCheck.make query_fuzz_gen)
    (fun input ->
      match Inquery.Query.parse input with
      | Ok q ->
        (* Whatever parses must re-parse from its own printing. *)
        Inquery.Query.parse (Inquery.Query.to_string q) = Ok q
      | Error _ -> true)

(* --- Signature files never lose a true match -------------------------- *)

let sig_corpus_gen =
  QCheck.Gen.(
    list_size (int_range 1 30)
      (list_size (int_range 1 8) (int_range 0 40)))

let prop_sigfile_no_false_negatives =
  QCheck.Test.make ~name:"signature files admit no false negatives" ~count:60
    (QCheck.make sig_corpus_gen)
    (fun docs ->
      let vfs = Vfs.create () in
      let corpus =
        List.mapi (fun i words -> (i, Array.of_list (List.map (Printf.sprintf "w%d") words))) docs
      in
      let sf =
        Inquery.Sigfile.build vfs ~file:"q.sig" ~width:64 ~k:3
          ~organisation:Inquery.Sigfile.Bit_sliced ~n_docs:(List.length docs)
          (List.to_seq corpus)
      in
      List.for_all
        (fun (doc, terms) ->
          Array.length terms = 0
          ||
          let probe = [ terms.(0) ] in
          List.mem doc (Inquery.Sigfile.candidates sf probe))
        corpus)

(* --- Compaction preserves every live object --------------------------- *)

let churn_gen =
  QCheck.Gen.(list_size (int_range 5 40) (pair (int_range 0 2) (int_range 0 6000)))

let prop_compact_preserves =
  QCheck.Test.make ~name:"compaction preserves live objects and ids" ~count:25
    (QCheck.make churn_gen)
    (fun ops ->
      let vfs = Vfs.create () in
      let store = Mneme.Store.create vfs "pc.mneme" in
      let pools =
        List.map
          (fun policy ->
            let pool = Mneme.Store.add_pool store policy in
            Mneme.Store.attach_buffer pool
              (Mneme.Buffer_pool.create ~name:policy.Mneme.Policy.name ~capacity:1_000_000 ());
            (policy.Mneme.Policy.name, pool))
          [ Mneme.Policy.small; Mneme.Policy.medium; Mneme.Policy.large ]
      in
      let pool_for n =
        if n <= 12 then List.assoc "small" pools
        else if n > 4096 then List.assoc "large" pools
        else List.assoc "medium" pools
      in
      let payload n = Bytes.init n (fun i -> Char.chr (33 + ((n + i) mod 90))) in
      let live = Hashtbl.create 64 in
      List.iter
        (fun (op, n) ->
          match op with
          | 0 ->
            let oid = Mneme.Store.allocate (pool_for n) (payload n) in
            Hashtbl.replace live oid n
          | 1 -> (
            (* modify some existing object within its size class *)
            match Hashtbl.fold (fun k v acc -> Some (k, v) :: acc) live [] with
            | Some (oid, old) :: _ ->
              let n' =
                if old <= 12 then n mod 13
                else if old > 4096 then 4097 + (n mod 2000)
                else 13 + (n mod 4000)
              in
              Mneme.Store.modify store oid (payload n');
              Hashtbl.replace live oid n'
            | _ -> ())
          | _ -> (
            match Hashtbl.fold (fun k _ acc -> Some k :: acc) live [] with
            | Some oid :: _ ->
              Mneme.Store.delete store oid;
              Hashtbl.remove live oid
            | _ -> ()))
        ops;
      Mneme.Store.finalize store;
      let compacted = Mneme.Store.compact store ~file:"pc2.mneme" in
      List.iter
        (fun name ->
          Mneme.Store.attach_buffer (Mneme.Store.pool compacted name)
            (Mneme.Buffer_pool.create ~name ~capacity:1_000_000 ()))
        [ "small"; "medium"; "large" ];
      Mneme.Store.wasted_bytes compacted = 0
      && Mneme.Store.object_count compacted = Hashtbl.length live
      && Hashtbl.fold
           (fun oid n acc -> acc && Mneme.Store.get_opt compacted oid = Some (payload n))
           live true
      && Mneme.Check.ok (Mneme.Check.run compacted))

(* --- Bit rot with a surviving copy always scrubs back to health ------- *)

(* One replicated workload shared across cases (building it dominates the
   cost); each case rots a random set of (segment, member) pairs — never
   every member of a segment, so a verified source survives — then heals
   the group and audits full convergence.  A passing case provably
   restores the byte-identical pre-rot state, so reuse is sound. *)
let scrub_scenario =
  lazy (Core.Torture.build_scrub_scenario ~seed:42 ~docs:8 ~batches:2 ~standbys:2 ())

let rot_plan_gen =
  QCheck.Gen.(
    list_size (int_range 1 6)
      (triple (int_range 0 999) (int_range 0 999) (pair (int_range 1 3) (int_range 0 9999))))

let prop_scrub_heals_random_rot =
  QCheck.Test.make ~name:"random bit rot with a healthy copy scrubs back to health"
    ~count:15 (QCheck.make rot_plan_gen)
    (fun picks ->
      let scn = Lazy.force scrub_scenario in
      let nseg = Core.Torture.scenario_segments scn in
      let members = Array.of_list (Core.Torture.scenario_member_names scn) in
      let nmem = Array.length members in
      let chosen = Hashtbl.create 8 in
      let per_seg = Hashtbl.create 8 in
      List.iter
        (fun (s_raw, m_raw, (bits, seed)) ->
          let s = s_raw mod nseg and m = m_raw mod nmem in
          let damaged = try Hashtbl.find per_seg s with Not_found -> 0 in
          if (not (Hashtbl.mem chosen (s, m))) && damaged < nmem - 1 then begin
            Hashtbl.replace chosen (s, m) (bits, seed);
            Hashtbl.replace per_seg s (damaged + 1)
          end)
        picks;
      Hashtbl.iter
        (fun (s, m) (bits, seed) ->
          Core.Torture.scenario_rot scn ~member:members.(m) ~segment:s ~bits ~seed ())
        chosen;
      let healed, failures = Core.Torture.heal_group scn in
      failures = [] && healed >= 1 && Core.Torture.audit_scenario scn = [])

let suite =
  [
    QCheck_alcotest.to_alcotest prop_live_btree;
    QCheck_alcotest.to_alcotest prop_live_mneme;
    QCheck_alcotest.to_alcotest prop_journal_equals_direct;
    QCheck_alcotest.to_alcotest prop_buffer_sizing_monotone;
    QCheck_alcotest.to_alcotest prop_parser_total;
    QCheck_alcotest.to_alcotest prop_sigfile_no_false_negatives;
    QCheck_alcotest.to_alcotest prop_compact_preserves;
    QCheck_alcotest.to_alcotest prop_scrub_heals_random_rot;
    QCheck_alcotest.to_alcotest prop_directory_survives_reopen;
  ]
