(* The repository's benchmark: four closed-loop workloads (one client,
   one domain) over the label pipeline, label serving, the Theorem 4-5
   applications and the fault-tolerant CONGEST stack. Every op's output
   is checked against a centralized oracle outside the timed region.

   Usage (perfbench/README.md has the metric definitions):
     bench.exe --workload NAME --seed N --seconds S --trace 0|1

   The last line of stdout is one JSON object
   {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics,
   their times scaled to a reference host speed (calib.ml), with
   --trace 0, the per-layer metrics (from spans the benchmark records
   around its own calls into lib/) with --trace 1. *)

module Digraph = Repro_graph.Digraph
module Generators = Repro_graph.Generators
module Shortest_path = Repro_graph.Shortest_path
module Matching_ref = Repro_graph.Matching_ref
module Girth_ref = Repro_graph.Girth_ref
module Metrics = Repro_congest.Metrics
module Engine = Repro_congest.Engine
module Fault = Repro_congest.Fault
module Bfs_tree = Repro_congest.Bfs_tree
module Bellman_ford = Repro_congest.Bellman_ford
module Part = Repro_shortcut.Part
module Primitives = Repro_shortcut.Primitives
module Decomposition = Repro_treedec.Decomposition
module Separator = Repro_treedec.Separator
module Build = Repro_treedec.Build
module Labeling = Repro_core.Labeling
module Dl = Repro_core.Dl
module Sssp = Repro_core.Sssp
module Stateful = Repro_core.Stateful
module Product = Repro_core.Product
module Cdl = Repro_core.Cdl
module Matching = Repro_core.Matching
module Girth = Repro_core.Girth
module Store = Repro_serve.Store
module Query = Repro_serve.Query
module Cache = Repro_serve.Cache

(* ------------------------------------------------------------------ *)
(* Inputs *)

(* per-op input seed from (workload seed, op index) *)
let mix seed i = Hashtbl.hash (seed, i, 0x6a09e667)

(* partial 3-tree, keep 0.6, bidirected weights 1..9 *)
let ptk3 ~seed n =
  Generators.bidirect ~seed ~max_weight:9 (Generators.partial_k_tree ~seed n 3 ~keep:0.6)

(* Every partial 3-tree has n = 512. Build.decompose takes about 1 s
   there and about 5 s at n = 1024, where a run would hold too few ops
   (and set-ups) for steady medians. *)
let n_ptk = 512

(* serve_mixed and congest_faults build their one graph in set-up from
   this generator seed, so their set-up and per-request costs compare
   across seeds; the workload seed draws their queries and faults *)
let fixture_seed = 1

(* the warm-up op in the set-up of pipeline_ptk3 and apps_match_girth
   runs on inputs from this seed, so setup_s is the same work for every
   workload seed *)
let warmup_seed = 0x5a5a

let setup_reps = 3

(* the host-speed reading (Calib) is retaken after the first op that ends
   this long after the last one: after every op but a serve_mixed batch *)
let calib_every_ns = 100_000_000

let out_dir = ".bench_out"

(* ------------------------------------------------------------------ *)
(* What one op reports *)

(* counters that repeat exactly for a given seed *)
type exact = {
  rounds : int;
  messages : int;
  width : float;  (** mean width of the op's decompositions *)
  label_words : int;
  store_bytes : int;
  alloc_bytes : float;  (** filled in by run_workload *)
}

type finished = {
  exact : exact;
  metrics : Metrics.t;  (** the op's simulated cost *)
  failures : int;  (** requests of this op that missed their oracle *)
}

(* A workload's set-up returns [op]. [op i] prepares op [i]'s inputs
   (untimed) and returns the op itself (timed), which returns [finish]:
   it reads the op's exact counters and runs its oracle (untimed). *)
type workload = {
  requests : int;  (** requests per op: queries per batch, else 1 *)
  min_ops : int;  (** ops always run; the exact counters average over these *)
  setup : unit -> setup;
}

and setup = { setup_exact : exact option; op : int -> unit -> unit -> finished }

let no_exact = { rounds = 0; messages = 0; width = 0.; label_words = 0; store_bytes = 0; alloc_bytes = 0. }

let note = Span.note

(* the per-label round breakdown of [m], as notes "rounds:<label>" *)
let note_rounds m = List.iter (fun (l, r) -> note ("rounds:" ^ l) (float r)) (Metrics.breakdown m)

let show_exact e =
  Printf.sprintf "rounds=%d messages=%d width=%g label_words=%d store_bytes=%d alloc_bytes=%.0f"
    e.rounds e.messages e.width e.label_words e.store_bytes e.alloc_bytes

let file_size path = (Unix.stat path).Unix.st_size

(* sampled Labeling.decode pairs vs Dijkstra *)
let check_labels g labels ~seed ~sources ~targets =
  let rng = Random.State.make [| seed; 0xdec |] in
  let n = Digraph.n g in
  let bad = ref 0 in
  for _ = 1 to sources do
    let u = Random.State.int rng n in
    let d = Shortest_path.dijkstra g u in
    for _ = 1 to targets do
      let v = Random.State.int rng n in
      if Labeling.decode labels.(u) labels.(v) <> d.(v) then incr bad
    done
  done;
  !bad

(* [typical_sources labels k] are the [k] vertices around the median
   label size (ties by id). SSSP cost follows the source's label size, and
   the first vertices of a k-tree sit in the top bags with labels 5-10x
   the median, so a random source makes one op's cost a lottery. *)
let typical_sources labels k =
  let by_size = Array.init (Array.length labels) Fun.id in
  Array.stable_sort
    (fun u v -> compare (Labeling.size_words labels.(u)) (Labeling.size_words labels.(v)))
    by_size;
  Array.sub by_size ((Array.length labels - k) / 2) k

let check_sssp g ~source (r : Sssp.result) =
  r.Sssp.dist_from_source = Shortest_path.dijkstra g source
  && r.Sssp.dist_to_source = Shortest_path.dijkstra_to g source

(* The three layer probes of the traced pipeline run: one call each on
   the whole graph, outside every op. *)
let probes g ~seed =
  let sk = Digraph.skeleton g in
  let n = Digraph.n sk in
  Span.with_ "shortcut.basis" (fun () ->
      ignore
        (Primitives.basis (Part.make_unchecked sk [| Array.init n Fun.id |])
           ~metrics:(Metrics.create ())));
  Span.with_ "congest.bfs_tree" (fun () ->
      ignore (Bfs_tree.build sk ~root:0 ~metrics:(Metrics.create ())));
  Span.with_ "treedec.root_separator" (fun () ->
      let all = Array.make n true in
      ignore
        (Separator.find_separator ~seed sk ~mask:all ~x_mask:all
           ~cost:(Primitives.cost_zero ())))

(* ------------------------------------------------------------------ *)
(* pipeline_ptk3: generate -> Build.decompose -> Dl.build -> Sssp.run
   -> Store.save on a fresh partial 3-tree per op *)

let pipeline_op ~seed ~store i () =
  let s = mix seed i in
  let m = Metrics.create () in
  let g = Span.with_ "graph.generate" (fun () -> ptk3 ~seed:s n_ptk) in
  let report =
    Span.with_ ~metrics:m "treedec.decompose" (fun () -> Build.decompose ~seed:s g ~metrics:m)
  in
  let dec = report.Build.decomposition in
  let labels = Span.with_ ~metrics:m "core.dl_build" (fun () -> Dl.build g dec ~metrics:m) in
  let source = (typical_sources labels 1).(0) in
  let sssp = Span.with_ ~metrics:m "core.sssp" (fun () -> Sssp.run g labels ~source ~metrics:m) in
  Span.with_ "serve.store_save" (fun () -> Store.save store labels);
  fun () ->
    let width = Decomposition.width dec and label_words = Dl.max_label_words labels in
    let store_bytes = file_size store in
    note "treedec.width" (float width);
    note "treedec.levels" (float report.Build.levels);
    note "core.label_max_words" (float label_words);
    note "serve.store_bytes" (float store_bytes);
    if !Span.enabled then begin
      let st = Store.open_ store in
      note "serve.pool_ratio" (float (Store.pool_count st) /. float n_ptk);
      (* once per run: op 0 of the timed loop (its re-run has another group) *)
      if !Span.group = 0 then Span.in_group Span.probe_group (fun () -> probes g ~seed:s)
    end;
    let failures =
      (if check_sssp g ~source sssp then 0 else 1)
      + check_labels g labels ~seed:s ~sources:8 ~targets:16
    in
    {
      exact =
        {
          no_exact with
          rounds = Metrics.rounds m;
          messages = Metrics.messages m;
          width = float width;
          label_words;
          store_bytes;
        };
      metrics = m;
      failures = min 1 failures;
    }

let pipeline_ptk3 ~seed =
  let store = Filename.concat out_dir (Printf.sprintf "pipeline_%d.bin" seed) in
  {
    requests = 1;
    min_ops = 12;
    setup =
      (fun () ->
        (* warm-up: one op on another graph of the same size *)
        let warm = pipeline_op ~seed:warmup_seed ~store 0 () in
        ignore (warm ());
        { setup_exact = None; op = pipeline_op ~seed ~store });
  }

(* ------------------------------------------------------------------ *)
(* The graph and labels serve_mixed and congest_faults build in set-up *)

type fixture = {
  g : Digraph.t;
  dec : Decomposition.t;
  labels : Labeling.t array;
  fm : Metrics.t;  (** simulated cost of building it *)
}

let build_fixture () =
  let fm = Metrics.create () in
  let g = Span.with_ "graph.generate" (fun () -> ptk3 ~seed:fixture_seed n_ptk) in
  let report =
    Span.with_ ~metrics:fm "treedec.decompose" (fun () ->
        Build.decompose ~seed:fixture_seed g ~metrics:fm)
  in
  let dec = report.Build.decomposition in
  note "treedec.width" (float (Decomposition.width dec));
  note "treedec.levels" (float report.Build.levels);
  let labels = Span.with_ ~metrics:fm "core.dl_build" (fun () -> Dl.build g dec ~metrics:fm) in
  note "core.label_max_words" (float (Dl.max_label_words labels));
  { g; dec; labels; fm }

(* the fixture's exact counters: its construction cost and quality *)
let fixture_exact fx =
  {
    no_exact with
    rounds = Metrics.rounds fx.fm;
    messages = Metrics.messages fx.fm;
    width = float (Decomposition.width fx.dec);
    label_words = Dl.max_label_words fx.labels;
  }

(* ------------------------------------------------------------------ *)
(* serve_mixed: 64-query batches against a store with a CDL section *)

let batch = 64
let hot_pairs = 64

let serve_mixed ~seed =
  let store = Filename.concat out_dir (Printf.sprintf "serve_%d.bin" seed) in
  let setup () =
    let fx = build_fixture () in
    let colored = Digraph.with_labels fx.g (fun e -> Hashtbl.hash (e.Digraph.id, 0x5e3) mod 2) in
    let spec = Stateful.count ~limit:1 in
    let cdl =
      Span.with_ ~metrics:fx.fm "core.cdl_build" (fun () ->
          Cdl.build ~dec:fx.dec ~seed:fixture_seed colored spec ~metrics:fx.fm)
    in
    note_rounds fx.fm;
    Span.with_ "serve.store_save" (fun () ->
        Store.save store ~cdl:(spec.Stateful.q_size, spec.Stateful.start, Cdl.labels cdl) fx.labels);
    let st = Span.with_ "serve.store_open" (fun () -> Store.open_ store) in
    Span.with_ "serve.first_touch" (fun () ->
        for v = 0 to Store.n st - 1 do
          ignore (Store.dist_label st v)
        done;
        for i = 0 to Store.cdl_count st - 1 do
          ignore (Store.cdl_label st i)
        done);
    note "serve.store_bytes" (float (Store.byte_size st));
    note "serve.pool_ratio" (float (Store.pool_count st) /. float (Store.n st));
    let src = Query.of_store st in
    let product = Cdl.product cdl in
    let n = Store.n st and q_size = Store.q_size st in
    let exact = { (fixture_exact fx) with store_bytes = Store.byte_size st } in
    let hot =
      let rng = Random.State.make [| seed; 0x407 |] in
      Array.init hot_pairs (fun _ -> (Random.State.int rng n, Random.State.int rng n))
    in
    let queries i =
      let rng = Random.State.make [| seed; i; 0xba7c |] in
      Array.init batch (fun _ ->
          let u, v =
            if Random.State.bool rng then hot.(Random.State.int rng hot_pairs)
            else (Random.State.int rng n, Random.State.int rng n)
          in
          if Random.State.bool rng then Query.Dist { u; v }
          else Query.Cdl { u; v; q = Random.State.int rng q_size })
    in
    let oracle = function
      | Query.Dist { u; v } -> (Shortest_path.dijkstra fx.g u).(v)
      | Query.Cdl { u; v; q } -> Product.constrained_distance product ~q ~src:u ~dst:v
    in
    (* op 0 starts a fresh cache, so re-running it repeats it exactly *)
    let cache = ref (Cache.create 4096) in
    let answers = Array.make batch 0 in
    let op i =
      if i = 0 then cache := Cache.create 4096;
      let qs = queries i and cache = !cache in
      fun () ->
        if !Span.enabled then
          Span.with_ "serve.batch" (fun () ->
              (* per-query ns by kind, traced runs only *)
              let ns = [| 0; 0 |] and cnt = [| 0; 0 |] in
              for j = 0 to batch - 1 do
                let t0 = Span.now_ns () in
                answers.(j) <- Query.answer ~cache src qs.(j);
                let k = match qs.(j) with Query.Dist _ -> 0 | Query.Cdl _ -> 1 in
                ns.(k) <- ns.(k) + (Span.now_ns () - t0);
                cnt.(k) <- cnt.(k) + 1
              done;
              note "serve.dist_ns_sum" (float ns.(0));
              note "serve.dist_count" (float cnt.(0));
              note "serve.cdl_ns_sum" (float ns.(1));
              note "serve.cdl_count" (float cnt.(1)))
        else
          for j = 0 to batch - 1 do
            answers.(j) <- Query.answer ~cache src qs.(j)
          done;
        fun () ->
          let cm = Metrics.create () in
          Cache.flush cache cm;
          note "serve.cache_hits" (float (Metrics.cache_hits cm));
          note "serve.cache_misses" (float (Metrics.cache_misses cm));
          note "serve.cache_evictions" (float (Metrics.cache_evictions cm));
          (* a sampled slice: 4 answers of every 128th batch *)
          let failures = ref 0 in
          if i mod 128 = 0 then
            List.iter
              (fun j -> if answers.(j) <> oracle qs.(j) then incr failures)
              [ 0; 21; 42; 63 ];
          { exact; metrics = cm; failures = !failures }
    in
    { setup_exact = Some exact; op }
  in
  { requests = batch; min_ops = 1024; setup }

(* ------------------------------------------------------------------ *)
(* congest_faults: reliable SSSP and Bellman-Ford under seeded faults *)

let profile = Fault.profile ~drop:0.1 ~duplicate:0.05 ~max_delay:2 ()

let congest_faults ~seed =
  let setup () =
    let fx = build_fixture () in
    note_rounds fx.fm;
    (* every op runs from the same four sources, so one op's cost sums
       four draws of the fault schedule (Bellman-Ford's run time alone
       varies 5x between schedules); the seed draws the faults *)
    let sources = typical_sources fx.labels 4 in
    let op i =
      let s = mix seed i in
      fun () ->
        let m = Metrics.create () in
        let runs =
          Array.mapi
            (fun k source ->
              let sssp =
                Span.with_ ~metrics:m "congest.sssp" (fun () ->
                    Sssp.run
                      ~faults:(Fault.create ~seed:(s + (2 * k)) profile)
                      ~reliable:true fx.g fx.labels ~source ~metrics:m)
              in
              let bf =
                Span.with_ ~metrics:m "congest.bellman_ford" (fun () ->
                    Bellman_ford.run
                      ~faults:(Fault.create ~seed:(s + (2 * k) + 1) profile)
                      ~reliable:true fx.g ~source ~metrics:m)
              in
              (source, sssp, bf))
            sources
        in
        fun () ->
          let ok =
            Array.for_all
              (fun (source, sssp, bf) ->
                check_sssp fx.g ~source sssp && bf = sssp.Sssp.dist_from_source)
              runs
          in
          {
            exact =
              { (fixture_exact fx) with rounds = Metrics.rounds m; messages = Metrics.messages m };
            metrics = m;
            failures = (if ok then 0 else 1);
          }
    in
    { setup_exact = Some (fixture_exact fx); op }
  in
  { requests = 1; min_ops = 8; setup }

(* ------------------------------------------------------------------ *)
(* apps_match_girth: Theorem 4 matching and Theorem 5 girth *)

(* one Theorem 4-5 instance: matching on a subdivided random 2-tree,
   then girth on a weighted partial 2-tree; returns its decomposition's
   report and [ok], which runs its oracles *)
let apps_instance ~s ~size m =
  let gm =
    Span.with_ "graph.generate" (fun () ->
        Generators.subdivide (Generators.k_tree ~seed:s size 2))
  in
  let matching = Span.with_ ~metrics:m "core.matching" (fun () -> Matching.run ~seed:s gm ~metrics:m) in
  let gg =
    Span.with_ "graph.generate" (fun () ->
        Generators.random_weights ~seed:s ~max_weight:9
          (Generators.partial_k_tree ~seed:s (8 * size / 5) 2 ~keep:0.6))
  in
  (* the decomposition Girth.undirected would build itself, built here so
     its width is visible *)
  let report =
    Span.with_ ~metrics:m "treedec.decompose" (fun () ->
        Build.decompose ~seed:s (Digraph.skeleton gg) ~metrics:m)
  in
  let dec = report.Build.decomposition in
  let girth =
    Span.with_ ~metrics:m "core.girth" (fun () ->
        Girth.undirected ~mode:`Charged ~dec ~seed:s gg ~metrics:m)
  in
  let ok () =
    note "core.matching_augmentations" (float matching.Matching.augmentations);
    note "core.girth_trials" (float girth.Girth.trials);
    Matching_ref.is_matching gm matching.Matching.mate
    && matching.Matching.size = Matching_ref.size (Matching_ref.hopcroft_karp gm)
    && girth.Girth.girth = Girth_ref.girth gg
  in
  (report, ok)

(* Widths (9-20), rounds and run time vary several-fold between random
   instances, so an op solves [apps_instances] small ones: one op's cost
   is an average, and a run (64 instances or more) compares across seeds.
   One instance at k_tree 160 took about 2.2 s, 10 ops a run. *)
let apps_instances = 4
let apps_size = 40

let apps_op ~seed i () =
  let m = Metrics.create () in
  let runs =
    List.init apps_instances (fun k ->
        apps_instance ~s:(mix seed ((apps_instances * i) + k)) ~size:apps_size m)
  in
  fun () ->
    let ok = List.for_all Fun.id (List.map (fun (_, ok) -> ok ()) runs) in
    let mean f =
      float (List.fold_left (fun acc (r, _) -> acc + f r) 0 runs) /. float apps_instances
    in
    let width = mean (fun r -> Decomposition.width r.Build.decomposition) in
    (* per-layer width and levels are per decomposition, not per op *)
    note "treedec.width" width;
    note "treedec.levels" (mean (fun r -> r.Build.levels));
    {
      exact =
        {
          no_exact with
          rounds = Metrics.rounds m;
          messages = Metrics.messages m;
          width;
        };
      metrics = m;
      failures = (if ok then 0 else 1);
    }

let apps_match_girth ~seed =
  {
    requests = 1;
    min_ops = 16;
    setup =
      (fun () ->
        let warm = apps_op ~seed:warmup_seed 0 () in
        ignore (warm ());
        { setup_exact = None; op = apps_op ~seed });
  }

let workloads =
  [
    ("pipeline_ptk3", pipeline_ptk3);
    ("serve_mixed", serve_mixed);
    ("apps_match_girth", apps_match_girth);
    ("congest_faults", congest_faults);
  ]

(* ------------------------------------------------------------------ *)
(* Statistics *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then 0. else if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* nearest-rank percentile *)
let percentile p xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then 0. else a.(max 0 (min (n - 1) (int_of_float (ceil (p *. float n)) - 1)))

let mean xs = match xs with [] -> 0. | _ -> List.fold_left ( +. ) 0. xs /. float (List.length xs)

let rec take k = function x :: tl when k > 0 -> x :: take (k - 1) tl | _ -> []

(* ------------------------------------------------------------------ *)
(* The timed loop *)

type run = {
  setup_s : float list;
  setup_exacts : exact list;
  ops : (int * float * finished) list;
      (** wall ns, ns at the reference speed (Calib) and outcome, in op order *)
  raised : int;  (** ops that raised *)
  failed : int;
  heap_mb : float;
  rerun_ok : bool;
}

let run_workload (w : workload) ~seconds =
  let setups =
    List.init setup_reps (fun r ->
        Span.in_group (Span.setup_group r) (fun () ->
            let before = Calib.read () in
            let t0 = Span.now_ns () in
            let s = w.setup () in
            let wall = Span.now_ns () - t0 in
            (Calib.scale wall ~before ~after:(Calib.read ()) /. 1e9, s)))
  in
  let setup = snd (List.nth setups (setup_reps - 1)) in
  let deadline = Span.now_ns () + (seconds * 1_000_000_000) in
  let ops = ref [] and raised = ref 0 and failed = ref 0 and i = ref 0 and op0 = ref None in
  (* ops since the last calibration reading, scaled at the next one *)
  let pending = ref [] and before = ref (Calib.read ()) and last = ref (Span.now_ns ()) in
  let calibrate () =
    let after = Calib.read () in
    List.iter
      (fun (wall, f) -> ops := (wall, Calib.scale wall ~before:!before ~after, f) :: !ops)
      (List.rev !pending);
    pending := [];
    before := after;
    last := Span.now_ns ()
  in
  let run_op ~group i =
    match
      Span.in_group group (fun () ->
          let timed = setup.op i in
          (* Gc.allocated_bytes is exact only right after a minor
             collection, so the ops whose allocation is reported get one
             at each end, outside the timed window *)
          let exact_alloc = i < w.min_ops in
          if exact_alloc then Gc.minor ();
          let a0 = Gc.allocated_bytes () in
          let t0 = Span.now_ns () in
          let finish = Span.with_ "op" timed in
          let wall = Span.now_ns () - t0 in
          if exact_alloc then Gc.minor ();
          let alloc = Gc.allocated_bytes () -. a0 in
          let f = finish () in
          note_rounds f.metrics;
          (wall, { f with exact = { f.exact with alloc_bytes = alloc } }))
    with
    | r -> Some r
    | exception e ->
        Printf.eprintf "op %d raised %s\n%!" i (Printexc.to_string e);
        None
  in
  while !i < w.min_ops || Span.now_ns () < deadline do
    (match run_op ~group:!i !i with
    | Some (wall, f) ->
        if !i = 0 then op0 := Some f;
        failed := !failed + f.failures;
        pending := (wall, f) :: !pending
    | None ->
        incr raised;
        failed := !failed + w.requests);
    if Span.now_ns () - !last >= calib_every_ns then calibrate ();
    incr i
  done;
  calibrate ();
  let heap_mb = float ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6 in
  let ops = List.rev !ops in
  (* determinism self-check: op 0 again must repeat its exact counters *)
  let rerun_ok =
    match (run_op ~group:Span.rerun_group 0, !op0) with
    | Some (_, f), Some f0 ->
        if f.exact <> f0.exact then
          Printf.eprintf "op 0 re-run: %s, first run: %s\n" (show_exact f.exact) (show_exact f0.exact);
        f.exact = f0.exact
    | _ -> false
  in
  {
    setup_s = List.map fst setups;
    setup_exacts = List.filter_map (fun (_, s) -> s.setup_exact) setups;
    ops;
    raised = !raised;
    failed = !failed;
    heap_mb;
    rerun_ok;
  }

let end_to_end (w : workload) r =
  (* op times at the reference speed (Calib) *)
  let walls = List.map (fun (_, scaled, _) -> scaled /. 1e9) r.ops in
  (* the exact counters average the first min_ops ops, which every run
     makes, so they repeat exactly for a seed *)
  let first = List.map (fun (_, _, f) -> f) (take w.min_ops r.ops) in
  let exact f = mean (List.map (fun x -> f x.exact) first) in
  let busy = List.fold_left ( +. ) 0. walls in
  let lat_us = List.map (fun s -> s *. 1e6 /. float w.requests) walls in
  [
    ("setup_s", median r.setup_s, "s");
    ("op_s", median walls, "s");
    ("qps", float (w.requests * List.length walls) /. busy, "1/s");
    ("query_us_p50", median lat_us, "us");
    ("query_us_p90", percentile 0.9 lat_us, "us");
    ("alloc_mb_per_op", exact (fun e -> e.alloc_bytes) /. 1e6, "MB");
    ("peak_heap_mb", r.heap_mb, "MB");
    ("sim_rounds", exact (fun e -> float e.rounds), "count");
    ("sim_messages", exact (fun e -> float e.messages), "count");
    ("decomp_width", exact (fun e -> e.width), "count");
  ]

(* ------------------------------------------------------------------ *)
(* Per-layer metrics of a traced run *)

let per_layer r =
  let spans = Span.all () in
  let notes = !Span.notes in
  let in_ops g = g >= 0 in
  (* values per group: from the ops when the ops produced any, else from
     the set-up repetitions and probes (e.g. serve_mixed's decomposition) *)
  let by_group values =
    let tbl = Hashtbl.create 16 in
    List.iter
      (fun (g, v) ->
        if g <> Span.rerun_group then
          Hashtbl.replace tbl g (v +. Option.value ~default:0. (Hashtbl.find_opt tbl g)))
      values;
    let all = Hashtbl.fold (fun g v acc -> (g, v) :: acc) tbl [] in
    let ops = List.filter (fun (g, _) -> in_ops g) all in
    List.map snd (if ops = [] then all else ops)
  in
  let span_values ?(field = fun s -> float (Span.duration s) /. 1e6) name =
    by_group
      (List.filter_map
         (fun (s : Span.t) -> if s.name = name then Some (s.group, field s) else None)
         spans)
  in
  let span_median ?field name = median (span_values ?field name) in
  let note_values name =
    by_group (List.filter_map (fun (g, n, v) -> if n = name then Some (g, v) else None) notes)
  in
  let note_median name = median (note_values name) in
  (* rounds charged under any of [labels], per op (or per set-up) *)
  let rounds labels =
    median
      (by_group
         (List.filter_map
            (fun (g, n, v) -> if List.mem n (List.map (( ^ ) "rounds:") labels) then Some (g, v) else None)
            notes))
  in
  let note_sum name = List.fold_left ( +. ) 0. (note_values name) in
  let ratio a b = if b = 0. then 0. else a /. b in
  let op_metrics = List.map (fun (_, _, f) -> f.metrics) r.ops in
  let per_op f = median (List.map (fun m -> float (f m)) op_metrics) in
  let n_ops = float (List.length r.ops) in
  let self = Span.self_ns (List.filter (fun (s : Span.t) -> in_ops s.group) spans) in
  let self_ms layer =
    List.fold_left
      (fun acc ((s : Span.t), ns) -> if Span.layer s.name = layer then acc +. float ns else acc)
      0. self
    /. 1e6 /. n_ops
  in
  let op_spans = List.filter (fun (s : Span.t) -> s.name = "op" && in_ops s.group) spans in
  (* share of traced op time inside layer spans, over all ops, and the
     share of ops whose own coverage reaches 95% *)
  let op_cover =
    List.filter_map
      (fun ((s : Span.t), ns) ->
        if s.name = "op" && in_ops s.group then Some (float (Span.duration s), float ns) else None)
      self
  in
  let total_op = List.fold_left (fun acc (d, _) -> acc +. d) 0. op_cover in
  let total_gap = List.fold_left (fun acc (_, g) -> acc +. g) 0. op_cover in
  let covered_95 = List.filter (fun (d, g) -> g <= 0.05 *. d) op_cover in
  let mb words = words *. float (Sys.word_size / 8) /. 1e6 in
  let messages = per_op Metrics.messages in
  let retransmissions = per_op Metrics.retransmissions in
  [
    ("graph.generate_ms", span_median "graph.generate", "ms");
    ("treedec.decompose_ms", span_median "treedec.decompose", "ms");
    ( "treedec.decompose_alloc_mb",
      span_median ~field:(fun s -> mb s.Span.alloc_words) "treedec.decompose",
      "MB" );
    ("treedec.major_gcs", span_median ~field:(fun s -> float s.Span.major_gcs) "treedec.decompose", "count");
    ("treedec.rounds", span_median ~field:(fun s -> float s.Span.rounds) "treedec.decompose", "count");
    ("treedec.width", note_median "treedec.width", "count");
    ("treedec.levels", note_median "treedec.levels", "count");
    ("treedec.root_separator_ms", span_median "treedec.root_separator", "ms");
    ("shortcut.basis_ms", span_median "shortcut.basis", "ms");
    ("congest.bfs_tree_ms", span_median "congest.bfs_tree", "ms");
    ("core.dl_build_ms", span_median "core.dl_build", "ms");
    ("core.dl_alloc_mb", span_median ~field:(fun s -> mb s.Span.alloc_words) "core.dl_build", "MB");
    ("core.dl_rounds", span_median ~field:(fun s -> float s.Span.rounds) "core.dl_build", "count");
    ("core.label_max_words", note_median "core.label_max_words", "words");
    ("core.sssp_ms", span_median "core.sssp", "ms");
    ("core.cdl_build_ms", span_median "core.cdl_build", "ms");
    ("core.matching_ms", span_median "core.matching", "ms");
    ("core.girth_ms", span_median "core.girth", "ms");
    ("core.matching_augmentations", note_median "core.matching_augmentations", "count");
    ("core.girth_trials", note_median "core.girth_trials", "count");
    ("core.rounds_matching_sep", rounds [ "matching/sep" ], "count");
    ("core.rounds_matching_augment", rounds [ "matching/augment" ], "count");
    ("core.rounds_cdl", rounds [ "cdl/simulated"; "girth/cdl" ], "count");
    ("core.rounds_girth_trials", rounds [ "girth/trials" ], "count");
    ("congest.sssp_ms", span_median "congest.sssp", "ms");
    ("congest.bellman_ford_ms", span_median "congest.bellman_ford", "ms");
    ("congest.messages", messages, "count");
    ("congest.words", per_op Metrics.words, "count");
    ("congest.retransmissions", retransmissions, "count");
    ("congest.retransmit_ratio", ratio retransmissions messages, "ratio");
    ("congest.dropped", per_op Metrics.dropped, "count");
    ("congest.duplicated", per_op Metrics.duplicated, "count");
    ("serve.store_save_ms", span_median "serve.store_save", "ms");
    ("serve.store_bytes", note_median "serve.store_bytes", "bytes");
    ("serve.pool_ratio", note_median "serve.pool_ratio", "ratio");
    ("serve.store_open_ms", span_median "serve.store_open", "ms");
    ("serve.first_touch_ms", span_median "serve.first_touch", "ms");
    ("serve.dist_ns", ratio (note_sum "serve.dist_ns_sum") (note_sum "serve.dist_count"), "ns");
    ("serve.cdl_ns", ratio (note_sum "serve.cdl_ns_sum") (note_sum "serve.cdl_count"), "ns");
    ( "serve.cache_hit_ratio",
      ratio (note_sum "serve.cache_hits")
        (note_sum "serve.cache_hits" +. note_sum "serve.cache_misses"),
      "ratio" );
    ("serve.cache_evictions", note_sum "serve.cache_evictions", "count");
    ("gc.minor_words", mean (List.map (fun (s : Span.t) -> s.minor_words) op_spans), "words");
    ("gc.major_collections", mean (List.map (fun (s : Span.t) -> float s.major_gcs) op_spans), "count");
  ]
  @ List.map
      (fun l -> ("self_ms." ^ l, self_ms l, "ms"))
      [ "graph"; "treedec"; "core"; "congest"; "serve"; "op" ]
  @ [
      ("trace.op_s", median (List.map (fun (_, scaled, _) -> scaled /. 1e9) r.ops), "s");
      ("host.op_wall_s", median (List.map (fun (ns, _, _) -> float ns /. 1e9) r.ops), "s");
      ("host.kernel_ms", median (List.map float !Calib.readings) /. 1e6, "ms");
      ("trace.span_coverage", ratio (total_op -. total_gap) total_op, "ratio");
      ( "trace.ops_covered_95",
        ratio (float (List.length covered_95)) (float (List.length op_cover)),
        "ratio" );
      ("trace.overhead_us_per_op", float !Span.overhead_ns /. 1e3 /. n_ops, "us");
    ]

(* ------------------------------------------------------------------ *)
(* Main *)

let json_number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME  one of the four workloads");
      ("--seed", Arg.Set_int seed, "N  workload seed");
      ("--seconds", Arg.Set_int seconds, "S  length of the timed loop");
      ("--trace", Arg.Set_int trace, "0|1  1 records spans and prints per-layer metrics");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME --seed N --seconds S --trace 0|1";
  if !seconds < 1 || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline "--seconds must be at least 1 and --trace 0 or 1";
    exit 2
  end;
  let make =
    match List.assoc_opt !workload workloads with
    | Some w -> w
    | None ->
        prerr_endline
          ("unknown workload " ^ !workload ^ "; expected one of "
          ^ String.concat ", " (List.map fst workloads));
        exit 2
  in
  (* timed runs never audit and never emit engine events *)
  Engine.audit_enabled := false;
  if !Engine.trace_sink.Repro_obs.Sink.enabled then failwith "engine trace sink is enabled";
  Span.enabled := !trace = 1;
  if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
  let w = make ~seed:!seed in
  let r = run_workload w ~seconds:!seconds in
  let setups_agree =
    match r.setup_exacts with
    | [] -> true
    | e :: rest -> List.for_all (( = ) e) rest
  in
  let deterministic = r.rerun_ok && setups_agree in
  if not deterministic then prerr_endline "determinism self-check failed: exact counters differ";
  let failed = r.failed + if deterministic then 0 else 1 in
  let attempted = w.requests * (List.length r.ops + r.raised) in
  let e2e = end_to_end w r in
  let metrics = if !trace = 1 then per_layer r else e2e in
  if !trace = 1 then begin
    let path =
      Filename.concat out_dir (Printf.sprintf "spans_%s_%d.jsonl" !workload !seed)
    in
    Span.write path (Span.all ());
    Printf.eprintf "spans written to %s\n" path
  end;
  List.iter (fun (n, v, u) -> Printf.eprintf "  %-28s %14.6g %s\n" n v u) e2e;
  Printf.eprintf "  unscaled op_s %.6g s; reference kernel %.4g ms (median of %d readings)\n"
    (median (List.map (fun (ns, _, _) -> float ns /. 1e9) r.ops))
    (median (List.map float !Calib.readings) /. 1e6)
    (List.length !Calib.readings);
  Printf.printf "settings: workload=%s seed=%d seconds=%d trace=%d ops=%d audit_enabled=%b trace_sink_enabled=%b domains=1\n"
    !workload !seed !seconds !trace (List.length r.ops) !Engine.audit_enabled
    !Engine.trace_sink.Repro_obs.Sink.enabled;
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (failed = 0) attempted failed
    (String.concat ", "
       (List.map
          (fun (n, v, u) -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" n (json_number v) u)
          metrics))
