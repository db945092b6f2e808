(* The three workloads' request streams, generated from a seed.

   The program sees only the JSON request lines; each request also carries
   the properties its response is checked against. Same seed, same bytes:
   every random choice draws from one [Random.State] made from the seed.

   cold-corpus and deep-nests are built of whole rounds. A round has a fixed
   make-up (which source, verb and flags); the seed picks the order inside
   the round, the machine rotation, the [--eval]/[--range] values and the
   renaming. So every run does the same kind of work in the same
   proportions, whatever the seed. Each request is made unique by renaming
   its routines and loop indices with a fresh suffix: that changes the AST
   (so the per-routine incremental predictors miss, not only the result
   cache), not just a comment. *)

module Json = Pperf_server.Json

type prop =
  | Dynamic of int
      (** predict at [--eval n=N]: the printed cycles equal the
          interpreter's dynamic cycles at n = N *)
  | Deps of Nest.t * string
      (** every dependence the brute-force oracle finds in the nest
          (renamed with the suffix) is reported by [Depend] *)
  | Lint_status of int  (** the lint exit status the sample must earn *)
  | Compare_sound  (** a decided verdict agrees with pointwise evaluation *)
  | Bounds_sound  (** bounds --json: critical path <= one-iteration packing *)

type request = {
  verb : string;
  machine : string;
  source : string;
  source2 : string option;
  flags : (string * Json.t) list;
  deadline_ms : float option;
  props : prop list;
  expect_fail : bool;
      (** deadline-bound: answered late today and counted as failed; an
          answer in time counts as passed, unchecked against [Render] *)
}

let line ~id r =
  Json.to_string
    (Json.Obj
       ([ ("id", Json.Int id); ("verb", Json.String r.verb); ("machine", Json.String r.machine);
          ("source", Json.String r.source) ]
       @ (match r.source2 with Some s -> [ ("source2", Json.String s) ] | None -> [])
       @ (if r.flags = [] then [] else [ ("flags", Json.Obj r.flags) ])
       @ match r.deadline_ms with Some d -> [ ("deadline_ms", Json.Float d) ] | None -> []))

let query ?(flags = []) ?source2 ?deadline_ms ?(props = []) ?(expect_fail = false) verb ~machine
    source =
  { verb; machine; source; source2; flags; deadline_ms; props; expect_fail }

let machines = [| "power1"; "power1x2"; "alpha21064"; "scalar"; "machines/ooo4.pmach" |]

(* ---- sources ---- *)

type source = { name : string; text : string }

let read_file path = In_channel.with_open_bin path In_channel.input_all

let samples ~root =
  let dir = Filename.concat root "samples" in
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".pf")
  |> List.sort compare
  |> List.map (fun f -> { name = Filename.chop_suffix f ".pf"; text = read_file (Filename.concat dir f) })

let kernels =
  List.map
    (fun (k : Pperf_workloads.Workloads.kernel) -> { name = k.name; text = k.source })
    Pperf_workloads.Workloads.all_kernels

(* EXPERIMENTS TAB-DYN: kernels whose static prediction equals the
   interpreter's dynamic cycles exactly *)
let exact_kernels = [ "F1"; "F2"; "F3"; "F4"; "F6"; "Jacobi" ]

let find name srcs = List.find (fun s -> s.name = name) srcs

(* ---- renaming ---- *)

let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_ident_char c = is_ident_start c || (c >= '0' && c <= '9')

type token = Ident of string | Other of string

let tokenize s =
  let n = String.length s in
  let rec go i acc =
    if i >= n then List.rev acc
    else if is_ident_start s.[i] then (
      let j = ref i in
      while !j < n && is_ident_char s.[!j] do incr j done;
      go !j (Ident (String.sub s i (!j - i)) :: acc))
    else (
      let j = ref i in
      while !j < n && not (is_ident_start s.[!j]) do incr j done;
      go !j (Other (String.sub s i (!j - i)) :: acc))
  in
  go 0 []

(* Routine names and loop indices: identifiers after [subroutine] or
   [function], and after [do] when an [=] follows on the same line. *)
let renamable tokens =
  let blank s = String.for_all (fun c -> c = ' ' || c = '\t') s in
  let rec go acc = function
    | Ident kw :: Other sp :: Ident x :: rest
      when (let kw = String.lowercase_ascii kw in kw = "subroutine" || kw = "function")
           && blank sp ->
      go (String.lowercase_ascii x :: acc) rest
    | Ident kw :: Other sp :: Ident x :: (Other eq :: _ as rest)
      when String.lowercase_ascii kw = "do" && blank sp
           && String.length (String.trim eq) > 0
           && (String.trim eq).[0] = '='
           && not (String.contains eq '\n') ->
      go (String.lowercase_ascii x :: acc) rest
    | _ :: rest -> go acc rest
    | [] -> acc
  in
  List.sort_uniq compare (go [] tokens)

(* Append [suffix] to every routine name and loop index of the source. *)
let rename ~suffix text =
  let tokens = tokenize text in
  let names = renamable tokens in
  String.concat ""
    (List.map
       (function
         | Ident x when List.mem (String.lowercase_ascii x) names -> x ^ suffix
         | Ident x | Other x -> x)
       tokens)

let base36 n =
  let digits = "0123456789abcdefghijklmnopqrstuvwxyz" in
  if n = 0 then "0"
  else (
    let b = Buffer.create 8 in
    let rec go n = if n > 0 then (go (n / 36); Buffer.add_char b digits.[n mod 36]) in
    go n;
    Buffer.contents b)

(* A run's renaming suffixes: a seeded salt (so the bytes depend on the
   seed) and a counter (so no two requests of a run share a name). *)
type namer = { tag : char; salt : string; mutable next : int }

let namer ~seed tag = { tag; salt = base36 (seed land 0xfff); next = 0 }

let fresh nm =
  let s = Printf.sprintf "_%c%s%s" nm.tag nm.salt (base36 nm.next) in
  nm.next <- nm.next + 1;
  s

let shuffle rng l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* ---- cold-corpus ---- *)

let bool b = Json.Bool b
let strings l = Json.List (List.map (fun s -> Json.String s) l)

(* The lint flags each sample is checked under and the status it must
   earn, as .github/workflows/ci.yml documents: lintdemo fails, the
   range and relational demos fail plainly and pass under their analysis,
   every other sample lints clean. *)
let sample_lints name =
  match name with
  | "lintdemo" -> [ ([], 2) ]
  | "rangedemo" -> [ ([], 2); ([ ("ranges", bool true) ], 0) ]
  | "reldemo" | "reldemo2" -> [ ([ ("domain", Json.String "product") ], 0) ]
  | _ -> [ ([], 0) ]

type cold = {
  rng : Random.State.t;
  nm : namer;
  samples : source list;
  mutable round : int;
}

let cold_create ~root ~seed =
  { rng = Random.State.make [| seed; 0xc01d |]; nm = namer ~seed 'c'; samples = samples ~root; round = 0 }

(* One round of cold-corpus: per source a predict (at a seeded n), a
   bounds --json, a bounds --memory, a lint (samples: under the flags CI
   checks them with) and a ranges (interval or product, alternating by
   source); plus seven compare pairs. Machines rotate per round. *)
let cold_round c =
  let r = c.round in
  c.round <- r + 1;
  let rng = c.rng in
  let rot = Random.State.int rng (Array.length machines) in
  let machine k = machines.((k + r + rot) mod Array.length machines) in
  let uniq text = rename ~suffix:(fresh c.nm) text in
  let per_source k (s, is_sample) =
    let text () = uniq s.text in
    let n = 8 + Random.State.int rng 33 in
    let dyn = (not is_sample) && List.mem s.name exact_kernels in
    let predict =
      query "predict" ~machine:(machine k) (text ())
        ~flags:
          ([ ("eval", strings [ Printf.sprintf "n=%d" n ]) ]
          @ if s.name = "calls" then [ ("interproc", bool true) ] else [])
        ~props:(if dyn then [ Dynamic n ] else [])
    in
    let bounds =
      query "bounds" ~machine:(machine (k + 1)) (text ()) ~flags:[ ("json", bool true) ]
        ~props:[ Bounds_sound ]
    in
    let memory = query "bounds" ~machine:(machine (k + 2)) (text ()) ~flags:[ ("memory", bool true) ] in
    let lints =
      if is_sample then
        List.map
          (fun (flags, status) -> query "lint" ~machine:"power1" (text ()) ~flags ~props:[ Lint_status status ])
          (sample_lints s.name)
      else [ query "lint" ~machine:"power1" (text ()) ]
    in
    let ranges =
      query "ranges" ~machine:"power1" (text ())
        ~flags:(if k mod 2 = 0 then [] else [ ("domain", Json.String "product") ])
    in
    (predict :: bounds :: memory :: lints) @ [ ranges ]
  in
  let sources = List.map (fun s -> (s, true)) c.samples @ List.map (fun s -> (s, false)) kernels in
  let all = c.samples @ kernels in
  let pair k ?(flags = []) a b =
    query "compare" ~machine:(machine k) ~flags ~props:[ Compare_sound ]
      (uniq (find a all).text) ~source2:(uniq (find b all).text)
  in
  let range () =
    let lo = 1 + Random.State.int rng 16 and hi = 64 + Random.State.int rng 2000 in
    [ ("range", strings [ Printf.sprintf "n=%d:%d" lo hi ]) ]
  in
  let compares =
    [ pair 0 "divloop" "mulloop"; pair 1 ~flags:[ ("ranges", bool true) ] "divloop" "mulloop";
      pair 2 "reldemo" "reldemo2"; pair 3 ~flags:[ ("domain", Json.String "product") ] "reldemo" "reldemo2";
      pair 4 ~flags:(range ()) "F1" "StrideAx"; pair 5 ~flags:(range ()) "Jacobi" "RB";
      pair 6 ~flags:(range ()) "F3" "Conv5" ]
  in
  shuffle rng (List.concat (List.mapi per_source sources) @ compares)

(* ---- deep-nests ---- *)

type deep = { drng : Random.State.t; dnm : namer; znm : namer; mutable dround : int }

let deep_create ~seed =
  { drng = Random.State.make [| seed; 0xdee9 |]; dnm = namer ~seed 'd'; znm = namer ~seed:0 'z'; dround = 0 }

let nest_machines = [ "power1"; "machines/ooo4.pmach" ]
let nest_stmts = 6

(* nests per depth in one round, for each verb and machine *)
let depth_mix = [ (3, 3); (4, 1); (5, 1) ]

(* The deadline-bound nest does not depend on the seed: a fixed 5-deep
   nest, renamed per round so that it never hits a cache. *)
let deadline_nest = Nest.generate (Random.State.make [| 0x5eed |]) ~depth:5 ~stmts:nest_stmts
let deadline_ms = 1.0

(* n for the interpreter check: small enough that a 5-deep walk is cheap *)
let nest_eval_n rng = 5 + Random.State.int rng 4

(* One round of deep-nests: for each machine power1, ooo4, three fresh
   3-deep nests, one 4-deep and one 5-deep, each asked predict, lint and
   bounds (30 requests), plus one deadline-bound request (predict on even
   rounds, bounds on odd ones). *)
let deep_round d =
  let r = d.dround in
  d.dround <- r + 1;
  let rng = d.drng in
  let seeded =
    List.concat_map
      (fun (depth, copies) ->
        List.concat_map
          (fun machine ->
            (* one nest per depth copy and machine, asked three ways under
               three names; the dependence check runs once per nest *)
            let nest = Nest.generate rng ~depth ~stmts:nest_stmts in
            List.map
              (fun verb ->
                let suffix = fresh d.dnm in
                let src = Nest.to_source ~name:("nest" ^ suffix) ~suffix nest in
                match verb with
                | "predict" ->
                  let n = nest_eval_n rng in
                  query "predict" ~machine src
                    ~flags:[ ("eval", strings [ Printf.sprintf "n=%d" n ]) ]
                    ~props:[ Dynamic n; Deps (nest, suffix) ]
                | v -> query v ~machine src)
              [ "predict"; "lint"; "bounds" ])
          (List.concat (List.init copies (fun _ -> nest_machines))))
      depth_mix
  in
  let suffix = fresh d.znm in
  let late =
    query
      (if r mod 2 = 0 then "predict" else "bounds")
      ~machine:"power1" ~deadline_ms ~expect_fail:true
      (Nest.to_source ~name:("late" ^ suffix) ~suffix deadline_nest)
  in
  shuffle rng (late :: seeded)

(* ---- hot-fleet ---- *)

(* The hot set: 32 fixed (kernel, machine, verb, flags) keys over the
   light samples and the F kernels. The Zipf ranks are fixed (the list's
   order), so that every seed asks for the same mix of costs; the seed
   decides the order of the draws and the fresh --eval values. *)
let hot_sources ~root =
  let light = [ "daxpy"; "jacobi"; "lcd"; "recurrence"; "divloop"; "mulloop"; "streambound"; "gather" ] in
  List.filter (fun s -> List.mem s.name light) (samples ~root)
  @ List.filter (fun s -> String.length s.name = 2 && s.name.[0] = 'F') kernels

let hot_keys ~root =
  let srcs = Array.of_list (hot_sources ~root) in
  let verbs =
    [| ("predict", []); ("bounds", [ ("json", bool true) ]); ("lint", []);
       ("ranges", [ ("json", bool true) ]) |]
  in
  List.init 32 (fun i ->
      let s = srcs.(i mod Array.length srcs) in
      let verb, flags = verbs.(i mod Array.length verbs) in
      let machine = machines.((i / 4) mod Array.length machines) in
      query verb ~machine ~flags s.text)

type hot = {
  keys : request array;  (** in Zipf rank order: keys.(0) is the hottest *)
  cdf : float array;
  predicts : request array;  (** the hot predict keys, for fresh --eval *)
  hrng : Random.State.t;
  mutable fresh_n : int;
  mutable sent : int;
}

let zipf_s = 1.0
let fresh_every = 40

let hot_create ~root ~seed =
  let rng = Random.State.make [| seed; 0x4077 |] in
  let keys = Array.of_list (hot_keys ~root) in
  let w = Array.init (Array.length keys) (fun i -> 1.0 /. (float_of_int (i + 1) ** zipf_s)) in
  let total = Array.fold_left ( +. ) 0.0 w in
  let acc = ref 0.0 in
  let cdf = Array.map (fun x -> acc := !acc +. (x /. total); !acc) w in
  let predicts = Array.of_list (List.filter (fun r -> r.verb = "predict") (hot_keys ~root)) in
  { keys; cdf; predicts; hrng = rng; fresh_n = 1000 + Random.State.int rng 1000; sent = 0 }

(* Every [fresh_every]-th request is a predict of a hot kernel at a fresh
   n: it misses the result cache but reuses the shard's warm incremental
   predictor. The rest are Zipf draws over the hot set. *)
let hot_next h =
  let k = h.sent in
  h.sent <- k + 1;
  if k mod fresh_every = fresh_every - 1 then (
    let p = h.predicts.((k / fresh_every) mod Array.length h.predicts) in
    h.fresh_n <- h.fresh_n + 1 + Random.State.int h.hrng 7;
    { p with flags = [ ("eval", strings [ Printf.sprintf "n=%d" h.fresh_n ]) ] })
  else (
    let u = Random.State.float h.hrng 1.0 in
    let rec find i = if i >= Array.length h.cdf - 1 || u <= h.cdf.(i) then i else find (i + 1) in
    h.keys.(find 0))

(* ---- warm-up ---- *)

(* One request per machine whose source lies outside every timed corpus,
   so that set-up loads each machine without touching a timed entry. *)
let warmup_source =
  "subroutine warmup(x, n)\n  integer n, q\n  real x(64)\n  do q = 1, n\n    x(q) = x(q) * 2.0\n  end do\nend\n"

let warmups = Array.to_list (Array.map (fun machine -> query "predict" ~machine warmup_source) machines)

(* ---- uniform access ---- *)

type workload = Cold_corpus | Deep_nests | Hot_fleet

let workload_of_string = function
  | "cold-corpus" -> Some Cold_corpus
  | "deep-nests" -> Some Deep_nests
  | "hot-fleet" -> Some Hot_fleet
  | _ -> None

let workload_to_string = function
  | Cold_corpus -> "cold-corpus"
  | Deep_nests -> "deep-nests"
  | Hot_fleet -> "hot-fleet"

(* A workload's request stream: [next_round] for the round-based
   workloads, one request at a time for hot-fleet. *)
type stream = Rounds of (unit -> request list) | Draws of (unit -> request)

let stream ~root ~seed = function
  | Cold_corpus ->
    let c = cold_create ~root ~seed in
    Rounds (fun () -> cold_round c)
  | Deep_nests ->
    let d = deep_create ~seed in
    Rounds (fun () -> deep_round d)
  | Hot_fleet ->
    let h = hot_create ~root ~seed in
    Draws (fun () -> hot_next h)

(* The first [count] requests of a workload's timed stream (whole rounds
   for the round-based workloads: at least [count]). *)
let first ~root ~seed w ~count =
  match stream ~root ~seed w with
  | Rounds next ->
    let rec go acc n = if n >= count then List.concat (List.rev acc) else (let r = next () in go (r :: acc) (n + List.length r)) in
    go [] 0
  | Draws next -> List.init count (fun _ -> next ())
