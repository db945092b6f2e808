(* One benchmark run of one workload: set-up, timed phase, verification,
   metrics. *)

module Json = Pperf_server.Json
module Protocol = Pperf_server.Protocol

type config = {
  workload : Corpus.workload;
  seed : int;
  seconds : float;
  trace : bool;
  ppredict : string;
  root : string;
}

type metric = { name : string; value : float; unit_ : string }

(* ---- statistics ---- *)

let median l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan else if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* nearest-rank percentile of a sorted array *)
let percentile sorted p =
  let n = Array.length sorted in
  let k = int_of_float (Float.ceil (p *. float_of_int n)) - 1 in
  sorted.(max 0 (min (n - 1) k))

(* ---- the server under test ---- *)

let spawn cfg =
  match cfg.workload with
  | Corpus.Cold_corpus | Corpus.Deep_nests -> Proc.spawn_stdio ~ppredict:cfg.ppredict ~jobs:1
  | Corpus.Hot_fleet ->
    let dir = Filename.concat cfg.root ".bench_build" in
    (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    Proc.spawn_tcp ~ppredict:cfg.ppredict ~jobs:2
      ~port_file:(Filename.concat dir (Printf.sprintf "port.%d" (Unix.getpid ())))

let expect_ok what line =
  match Json.of_string line with
  | j when Json.member "ok" j = Some (Json.Bool true) -> ()
  | _ | (exception Json.Parse_error _) -> failwith (Printf.sprintf "set-up %s failed: %s" what line)

(* Spawn a server and warm it: first pong, each machine loaded by a
   request outside the timed corpus, and on hot-fleet the hot set filled
   once. Returns the server and the seconds it took. *)
let setup cfg =
  let t0 = Unix.gettimeofday () in
  let srv = spawn cfg in
  match
    expect_ok "ping" (Proc.roundtrip srv {|{"id":"ping","verb":"ping"}|});
    List.iteri (fun i r -> expect_ok "warm-up" (Proc.roundtrip srv (Corpus.line ~id:(-1 - i) r))) Corpus.warmups;
    if cfg.workload = Corpus.Hot_fleet then
      List.iteri
        (fun i r -> expect_ok "hot-set fill" (Proc.roundtrip srv (Corpus.line ~id:(-100 - i) r)))
        (Corpus.hot_keys ~root:cfg.root)
  with
  | () -> (srv, Unix.gettimeofday () -. t0)
  | exception e ->
    Proc.kill srv;
    raise e

(* set-ups per run; [setup_s] is their median. One spawn varies by ±25%;
   with 15 the median still spread 0.29 between runs, with 61 about 0.1.
   A hot-fleet set-up (about 20 ms, the hot set filled) costs three times
   one of the others. *)
let setups = function Corpus.Hot_fleet -> 61 | Corpus.Cold_corpus | Corpus.Deep_nests -> 101

(* ---- one timed phase ---- *)

type sent = { index : int; req : Corpus.request; line : string }

type phase = {
  sent : sent array;  (** in request-index order *)
  latency : float array;  (** seconds, by request index *)
  response : string array;
  wall : float;
  cpu_ticks : int;
}

(* Drive requests from [stream] for [seconds], or for at most
   [max_rounds] rounds: round-based workloads run whole rounds, so every
   run attempts the same mix. [base] numbers the requests so that ids
   stay unique across phases. *)
let run_phase ?(max_rounds = max_int) srv (stream : Corpus.stream) ~seconds ~base =
  let sent = ref [] in
  let queue = Queue.create () in
  let count = ref 0 and rounds = ref 0 in
  let t_start = Unix.gettimeofday () in
  let until = t_start +. seconds in
  let next () =
    let take r =
      let index = base + !count in
      incr count;
      let line = Corpus.line ~id:index r in
      sent := { index; req = r; line } :: !sent;
      Some (index, line)
    in
    match stream with
    | Corpus.Draws draw -> if Unix.gettimeofday () >= until then None else take (draw ())
    | Corpus.Rounds round ->
      if Queue.is_empty queue && !rounds < max_rounds && Unix.gettimeofday () < until then (
        incr rounds;
        List.iter (fun r -> Queue.push r queue) (round ()));
      if Queue.is_empty queue then None else take (Queue.pop queue)
  in
  let results = Hashtbl.create 4096 in
  let cpu0 = Proc.cpu_ticks srv.Proc.pid in
  Proc.drive srv ~next ~on_response:(fun i lat line -> Hashtbl.replace results i (lat, line));
  let cpu1 = Proc.cpu_ticks srv.Proc.pid in
  let wall = Unix.gettimeofday () -. t_start in
  let sent = Array.of_list (List.rev !sent) in
  let get i = match Hashtbl.find_opt results sent.(i).index with Some x -> x | None -> (nan, "") in
  {
    sent;
    latency = Array.init (Array.length sent) (fun i -> fst (get i));
    response = Array.init (Array.length sent) (fun i -> snd (get i));
    wall;
    cpu_ticks = cpu1 - cpu0;
  }

let concat = function
  | [] -> { sent = [||]; latency = [||]; response = [||]; wall = 0.0; cpu_ticks = 0 }
  | ps ->
    {
      sent = Array.concat (List.map (fun p -> p.sent) ps);
      latency = Array.concat (List.map (fun p -> p.latency) ps);
      response = Array.concat (List.map (fun p -> p.response) ps);
      wall = List.fold_left (fun a p -> a +. p.wall) 0.0 ps;
      cpu_ticks = List.fold_left (fun a p -> a + p.cpu_ticks) 0 ps;
    }

(* ---- verification ---- *)

type verdict = { attempted : int; failed : int; wrong : (int * string) list }

(* Check every response of the phases; two domains, each owning the
   requests whose content hashes to it, so each keeps its own memo of
   expected outputs (hot-fleet repeats a few dozen requests). Requests
   that run a relational domain are all checked on domain 0: lib/absint
   registers its relational telemetry through [lazy], and a lazy value
   forced from two domains at once raises [CamlinternalLazy.Undefined]. *)
let verify phases =
  let items =
    List.concat_map (fun p -> List.init (Array.length p.sent) (fun i -> (p.sent.(i), p.response.(i)))) phases
    |> Array.of_list
  in
  let key s = Corpus.line ~id:0 s.req in
  let relational s =
    match List.assoc_opt "domain" s.req.Corpus.flags with Some (Json.String "interval") | None -> false | Some _ -> true
  in
  let work part () =
    let memo = Hashtbl.create 256 in
    let failed = ref 0 and wrong = ref [] in
    Array.iter
      (fun (s, resp) ->
        let k = key s in
        if (if relational s then 0 else Hashtbl.hash k mod 2) = part then (
          let req = match Protocol.request_of_line s.line with Ok r -> r | Error (_, m) -> failwith m in
          let expected_output () =
            match Hashtbl.find_opt memo k with
            | Some v -> v
            | None ->
              let v = Check.expected req in
              Hashtbl.replace memo k v;
              v
          in
          match Check.judge ~id:s.index s.req ~req ~expected_output resp with
          | Check.Passed -> ()
          | Check.Failed_op -> incr failed
          | Check.Wrong m -> wrong := (s.index, m) :: !wrong
          | exception e -> wrong := (s.index, "check raised " ^ Printexc.to_string e) :: !wrong))
      items;
    (!failed, !wrong)
  in
  let other = Domain.spawn (work 1) in
  let f0, w0 = work 0 () in
  let f1, w1 = Domain.join other in
  { attempted = Array.length items; failed = f0 + f1; wrong = w0 @ w1 }

(* ---- end-to-end metrics ---- *)

let latencies_ms p = Array.map (fun s -> s *. 1000.0) p.latency

(* The p99 is taken in each window of [window] or more consecutive
   requests and the median over the windows is reported: a host stall
   that hits a burst of requests moves one window's p99, not the run's.
   hot-fleet's windows hold 1000 requests, so ten lie beyond each p99.
   cold-corpus and deep-nests run whole rounds of a fixed mix, and a
   window of part of them would hold a varying mix, so their one window
   is the whole run. *)
let window_of = function Corpus.Draws _ -> 1000 | Corpus.Rounds _ -> max_int

let windowed_p99 lat ~window =
  let n = Array.length lat in
  let k = max 1 (n / window) in
  median
    (List.init k (fun i ->
         let lo = i * n / k and hi = (i + 1) * n / k in
         let a = Array.sub lat lo (hi - lo) in
         Array.sort compare a;
         percentile a 0.99))

let end_to_end p ~window ~setup_s ~peak_kb =
  let n = Array.length p.sent in
  let lat = latencies_ms p in
  let p99 = windowed_p99 lat ~window in
  Array.sort compare lat;
  [ { name = "throughput_rps"; value = float_of_int n /. p.wall; unit_ = "req/s" };
    { name = "latency_p50_ms"; value = percentile lat 0.50; unit_ = "ms" };
    { name = "latency_p99_ms"; value = p99; unit_ = "ms" };
    { name = "server_cpu_ms_per_req";
      value = float_of_int p.cpu_ticks *. 1000.0 /. Proc.clk_tck /. float_of_int n;
      unit_ = "ms" };
    { name = "peak_rss_mb"; value = float_of_int peak_kb /. 1024.0; unit_ = "MB" };
    { name = "setup_s"; value = setup_s; unit_ = "s" } ]

(* ---- per-layer metrics (traced run) ---- *)

let stats srv =
  let line = Proc.roundtrip srv {|{"id":"stats","verb":"stats"}|} in
  match Json.member "stats" (Json.of_string line) with
  | Some s -> s
  | None -> failwith ("stats verb failed: " ^ line)

let rec path j = function
  | [] -> Option.value ~default:0.0 (Json.to_number_opt j)
  | k :: rest -> ( match Json.member k j with Some j -> path j rest | None -> 0.0)

(* The benchmark's own timers and allocation counters around the public
   protocol and engine functions, replaying the phase's request lines
   in-process (after the same warm-up as the server). *)
type replay = { protocol_ms : float; protocol_kw : float; engine_kw : float }

let allocated () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

let replay cfg p ~seconds =
  let engine = Pperf_server.Engine.create ~jobs:1 () in
  let handle line =
    match Protocol.request_of_line line with
    | Ok r -> ignore (Pperf_server.Engine.handle engine ~received:(Unix.gettimeofday ()) r)
    | Error _ -> ()
  in
  List.iter (fun r -> handle (Corpus.line ~id:0 r)) Corpus.warmups;
  if cfg.workload = Corpus.Hot_fleet then List.iter (fun r -> handle (Corpus.line ~id:0 r)) (Corpus.hot_keys ~root:cfg.root);
  let until = Unix.gettimeofday () +. seconds in
  let proto_s = ref 0.0 and proto_w = ref 0.0 and engine_w = ref 0.0 and n = ref 0 in
  (try
     Array.iter
       (fun s ->
         if Unix.gettimeofday () > until && !n > 0 then raise Exit;
         let w0 = allocated () in
         let t0 = Unix.gettimeofday () in
         let req = Protocol.request_of_line s.line in
         let t1 = Unix.gettimeofday () in
         let w1 = allocated () in
         match req with
         | Error _ -> ()
         | Ok req ->
           let resp = Pperf_server.Engine.handle engine ~received:t1 req in
           let w2 = allocated () in
           let t2 = Unix.gettimeofday () in
           ignore (Protocol.response_line resp);
           let t3 = Unix.gettimeofday () in
           let w3 = allocated () in
           proto_s := !proto_s +. (t1 -. t0) +. (t3 -. t2);
           proto_w := !proto_w +. (w1 -. w0) +. (w3 -. w2);
           engine_w := !engine_w +. (w2 -. w1);
           incr n)
       p.sent
   with Exit -> ());
  let per x = x /. float_of_int (max 1 !n) in
  { protocol_ms = per !proto_s *. 1000.0; protocol_kw = per !proto_w /. 1000.0; engine_kw = per !engine_w /. 1000.0 }

let ratio a b = if a +. b > 0.0 then a /. (a +. b) else 0.0

let per_layer (p : phase) ~snapshots ~untraced_p50 ~(rp : replay) =
  let n = float_of_int (max 1 (Array.length p.sent)) in
  let d keys = List.fold_left (fun acc (before, after) -> acc +. path after keys -. path before keys) 0.0 snapshots in
  let span_ms name = d [ "spans"; name; "self_ns" ] /. n /. 1e6 in
  let calls name = d [ "spans"; name; "count" ] /. n in
  let counter name = d [ "counters"; name ] in
  let stage_ms name = d [ "stages"; name; "sum_ns" ] /. n /. 1e6 in
  let layer_ms =
    [ ("protocol.ms", rp.protocol_ms);
      ("server.cache_lookup.ms", span_ms "server.cache_lookup");
      ("fleet.queue.ms", stage_ms "queue");
      ("write.ms", stage_ms "write");
      ("parse.ms", span_ms "parse");
      ("typecheck.ms", span_ms "typecheck");
      ("absint.ms", span_ms "absint.fixpoint" +. span_ms "absint.relational");
      ("depend.ms", span_ms "depend");
      ("aggregate.ms", span_ms "aggregate");
      ("sched.bins.ms", span_ms "sched.bins");
      ("bounds.ms", span_ms "bounds");
      ("compare.ms", span_ms "compare");
      ("sturm.ms", span_ms "sturm");
      ("render.ms", span_ms "render");
      ("server.eval.ms", span_ms "server.eval") ]
  in
  let lat = latencies_ms p in
  let mean_ms = Array.fold_left ( +. ) 0.0 lat /. n in
  let covered = List.fold_left (fun acc (_, v) -> acc +. v) 0.0 layer_ms in
  let sorted = Array.copy lat in
  Array.sort compare sorted;
  let p50 = percentile sorted 0.5 in
  let ms = List.map (fun (name, value) -> { name; value; unit_ = "ms" }) in
  let count name value = { name; value; unit_ = "count" } in
  let kw name value = { name; value; unit_ = "kwords" } in
  let share name value = { name; value; unit_ = "ratio" } in
  ms layer_ms
  @ [ { name = "untraced.ms"; value = mean_ms -. covered; unit_ = "ms" };
      count "depend.calls" (calls "depend");
      count "parse.calls" (calls "parse");
      count "aggregate.calls" (calls "aggregate");
      count "sched.bins.calls" (calls "sched.bins");
      count "bounds.calls" (calls "bounds");
      count "sturm.calls" (calls "sturm");
      count "bins.placements" (counter "bins.placements" /. n);
      count "poly.mul" (counter "poly.mul" /. n);
      count "monomial.alloc" (counter "monomial.alloc" /. n);
      count "roots.chain_builds" (counter "roots.chain_builds" /. n);
      count "absint.widenings" ((counter "absint.widenings" +. counter "absint.relational.widenings") /. n);
      kw "engine.kwords" rp.engine_kw;
      kw "protocol.kwords" rp.protocol_kw;
      share "cache.hit_ratio" (ratio (d [ "cache"; "hits" ]) (d [ "cache"; "misses" ]));
      share "incremental.hit_ratio" (ratio (d [ "incremental"; "hits" ]) (d [ "incremental"; "misses" ]));
      share "compare.memo.hit_ratio" (ratio (counter "compare.memo.hits") (counter "compare.memo.misses"));
      share "roots.chain_hit_ratio" (ratio (counter "roots.chain_cache_hits") (counter "roots.chain_builds"));
      share "fleet.affinity_ratio" (ratio (counter "fleet.routed.affinity") (counter "fleet.routed.free"));
      share "trace.coverage" (if mean_ms > 0.0 then covered /. mean_ms else 0.0);
      { name = "trace.overhead_pct"; value = (p50 -. untraced_p50) /. untraced_p50 *. 100.0; unit_ = "%" } ]

(* ---- a whole run ---- *)

type result = { verdict : verdict; metrics : metric list }

let run cfg =
  Proc.pin_first_cpu ();
  let setup_times = ref [] in
  let timed_setup () =
    let srv, dt = setup cfg in
    setup_times := dt :: !setup_times;
    srv
  in
  let set_up_and_stop k = for _ = 1 to k do Proc.stop (timed_setup ()) done in
  (* Half the set-ups come before the timed phase and half after it, so
     that [setup_s] samples the host over the whole run rather than over
     its first second. *)
  let before = setups cfg.workload / 2 in
  set_up_and_stop before;
  let srv = timed_setup () in
  let alive = ref (Some srv) in
  (* Stop the measured server, set up the rest, and unpin for the checks.
     Returns [setup_s]. *)
  let finish () =
    Proc.stop srv;
    alive := None;
    set_up_and_stop (setups cfg.workload - before - 1);
    Proc.unpin ();
    median !setup_times
  in
  Fun.protect
    ~finally:(fun () -> Option.iter Proc.kill !alive)
    (fun () ->
      let stream = Corpus.stream ~root:cfg.root ~seed:cfg.seed cfg.workload in
      if not cfg.trace then (
        let p = run_phase srv stream ~seconds:cfg.seconds ~base:0 in
        let peak_kb = Proc.vmhwm_kb srv.pid in
        let setup_s = finish () in
        let verdict = verify [ p ] in
        { verdict; metrics = end_to_end p ~window:(window_of stream) ~setup_s ~peak_kb })
      else (
        (* Untraced and traced blocks alternate, so that drift over the
           run (a growing heap and result cache) falls on both alike. A
           traced block is framed by two [stats] snapshots; a block is
           one round, or half a second of hot-fleet draws. *)
        let block_s = match stream with Corpus.Draws _ -> 0.5 | Corpus.Rounds _ -> cfg.seconds in
        let block ~base = run_phase ~max_rounds:1 srv stream ~seconds:block_s ~base in
        let until = Unix.gettimeofday () +. cfg.seconds in
        let rec go base plain traced snapshots =
          if Unix.gettimeofday () >= until then (List.rev plain, List.rev traced, snapshots)
          else (
            let a = block ~base in
            let before = stats srv in
            let b = block ~base:(base + Array.length a.sent) in
            let after = stats srv in
            go (base + Array.length a.sent + Array.length b.sent) (a :: plain) (b :: traced) ((before, after) :: snapshots))
        in
        let plain, traced, snapshots = go 0 [] [] [] in
        ignore (finish ());
        let a = concat plain and b = concat traced in
        let verdict = verify [ a; b ] in
        let untraced_p50 =
          let l = latencies_ms a in
          Array.sort compare l;
          percentile l 0.5
        in
        let rp = replay cfg b ~seconds:(cfg.seconds /. 2.0) in
        { verdict; metrics = per_layer b ~snapshots ~untraced_p50 ~rp }))

let result_json r =
  let num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0" in
  Printf.sprintf {|{"correct": %b, "attempted": %d, "failed": %d, "metrics": {%s}}|}
    (r.verdict.wrong = []) r.verdict.attempted r.verdict.failed
    (String.concat ", "
       (List.map
          (fun m -> Printf.sprintf {|"%s": {"value": %s, "unit": "%s"}|} m.name (num m.value) m.unit_)
          r.metrics))
