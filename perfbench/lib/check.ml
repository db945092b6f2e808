(* Correctness of the program's answers, judged by computations made
   apart from the server or by properties the method must have — never by
   a stored copy of earlier output.

   - [expected]: the same request rendered in-process through [Render]
     (the CLI≡server property).
   - [Dynamic]: the predicted cycles at n equal the interpreter's.
   - [Deps]: every dependence the brute-force oracle finds, [Depend]
     reports.
   - [Compare_sound]: a decided comparison agrees with evaluating both
     predicted totals at sample points of the range.
   - [Lint_status], [Bounds_sound]: the sample lint statuses CI documents,
     and critical path <= one-iteration bin packing. *)

open Pperf_server
open Pperf_symbolic
module Rat = Pperf_num.Rat

let text_of = function Some (Protocol.Text s) -> s | Some (Protocol.File p) -> Corpus.read_file p | None -> ""

(* [Render] of the request, exactly as the one-shot CLI would print it:
   (output, status). *)
let expected (req : Protocol.request) =
  let flags = req.flags in
  let options = Options.to_aggregate flags in
  let domain = Options.domain flags in
  let machine = Machines.load req.machine in
  let src = text_of req.source in
  match req.verb with
  | Protocol.Predict ->
    ( Render.predict ~machine ~options ~interproc:flags.interproc ~strict:flags.strict
        ~evals:flags.eval ~warn:ignore src,
      0 )
  | Protocol.Compare ->
    ( Render.compare ~domain ~machine ~options ~use_ranges:flags.ranges ~ranges:flags.range src
        (text_of req.source2),
      0 )
  | Protocol.Ranges -> (Render.ranges ~domain ~json:flags.json src, 0)
  | Protocol.Lint -> Render.lint ~domain ~json:flags.json ~use_ranges:flags.ranges src
  | Protocol.Bounds -> (Render.bounds ~machine ~memory:flags.memory ~json:flags.json ~evals:flags.eval src, 0)
  | _ -> invalid_arg "Check.expected: not a query verb"

(* ---- property checks: [Ok ()] or [Error reason] ---- *)

let find_sub s sub from =
  let n = String.length s and m = String.length sub in
  let rec go i = if i + m > n then None else if String.sub s i m = sub then Some i else go (i + 1) in
  go from

(* the "at n=N: X cycles" figure of a predict report *)
let printed_cycles output ~n =
  let tag = Printf.sprintf "at n=%d: " n in
  match find_sub output tag 0 with
  | None -> None
  | Some i ->
    let start = i + String.length tag in
    Option.map (fun j -> String.sub output start (j - start)) (find_sub output " cycles" start)

let dynamic (req : Protocol.request) output ~n =
  let machine = Machines.load req.machine in
  let r =
    Pperf_exec.Interp.run_source ~machine ~args:[ ("n", Pperf_exec.Interp.VInt n) ] (text_of req.source)
  in
  let dyn = Printf.sprintf "%.0f" r.cycles in
  match printed_cycles output ~n with
  | Some s when s = dyn -> Ok ()
  | Some s -> Error (Printf.sprintf "predicted %s cycles at n=%d, interpreter %s" s n dyn)
  | None -> Error (Printf.sprintf "no cycle count at n=%d in the output" n)

let deps (req : Protocol.request) nest ~suffix =
  match Nest.missed nest ~suffix ~n:5 (text_of req.source) with
  | [] -> Ok ()
  | missed ->
    Error
      (Printf.sprintf "Depend misses %d oracle dependence(s), e.g. %s" (List.length missed)
         (Nest.dep_to_string nest (List.hd missed)))

let lint_status ~status ~want =
  if status = want then Ok () else Error (Printf.sprintf "lint status %d, want %d" status want)

let bounds_sound output =
  match Json.of_string output with
  | exception Json.Parse_error m -> Error ("bounds --json output: " ^ m)
  | doc ->
    let num = function Some j -> Json.to_number_opt j | None -> None in
    let list k j = Option.value ~default:[] (Option.bind (Json.member k j) Json.to_list_opt) in
    let bad =
      List.concat_map
        (fun r ->
          List.filter
            (fun nest ->
              match (num (Json.member "critical_path" nest), num (Json.member "bin_once" nest)) with
              | Some cp, Some bin -> cp > bin
              | _ -> true)
            (list "nests" r))
        (list "routines" doc)
    in
    if bad = [] then Ok () else Error "a nest's critical path exceeds its one-iteration bin packing"

(* sample points of a variable's range: the endpoints and four points in
   between; unbounded ends are cut at 0 and lo + 1000 *)
let points iv =
  let lo = match Interval.lo iv with Interval.Fin r -> r | _ -> Rat.zero in
  let hi = match Interval.hi iv with Interval.Fin r -> r | _ -> Rat.add lo (Rat.of_int 1000) in
  let hi = if Rat.compare hi lo < 0 then lo else hi in
  let step = Rat.div (Rat.sub hi lo) (Rat.of_int 5) in
  List.sort_uniq Rat.compare (List.init 6 (fun k -> Rat.add lo (Rat.mul step (Rat.of_int k))))

let is_prob v = String.length v > 1 && v.[0] = 'p' && String.for_all (fun c -> c >= '0' && c <= '9') (String.sub v 1 (String.length v - 1))

let compare_sound (req : Protocol.request) output =
  let lines = String.split_on_char '\n' output in
  let verdict =
    List.find_map
      (fun l ->
        let starts p = String.length l >= String.length p && String.sub l 0 (String.length p) = p in
        if starts "first <= second" then Some `Le
        else if starts "first >= second" then Some `Ge
        else if starts "equal" then Some `Eq
        else if starts "crossover" || starts "undecided" then Some `Open
        else None)
      lines
  in
  match verdict with
  | None -> Error "no verdict line in the compare output"
  | Some `Open -> Ok ()
  | Some ((`Le | `Ge | `Eq) as v) ->
    let open Pperf_core in
    let flags = req.flags in
    let options = Options.to_aggregate flags in
    let domain = Options.domain flags in
    let machine = Machines.load req.machine in
    let check src = Pperf_lang.Typecheck.check_routine (Pperf_lang.Parser.parse_routine src) in
    let c1 = check (text_of req.source) and c2 = check (text_of req.source2) in
    let user_env = Render.range_env flags.range in
    let env, rel =
      if flags.ranges || domain <> Pperf_absint.Absint.Box then
        Compare.inferred_rel ~base:user_env ~domain [ c1; c2 ]
      else (user_env, None)
    in
    let total c = Predict.total (Predict.of_checked ~options ~machine c) in
    let diff = Poly.sub (total c1) (total c2) in
    let diff =
      match rel with
      | Some r -> List.fold_left (fun d (x, q) -> Poly.subst x q d) diff r.Compare.rel_rewrites
      | None -> diff
    in
    let range v =
      if is_prob v then Interval.unit_prob
      else match Interval.Env.find_opt v env with Some iv -> iv | None -> Interval.nonneg
    in
    let rec valuations = function
      | [] -> [ [] ]
      | v :: rest ->
        let tails = valuations rest in
        List.concat_map (fun x -> List.map (fun t -> (v, x) :: t) tails) (points (range v))
    in
    let wrong =
      List.find_opt
        (fun vals ->
          let s = Rat.sign (Poly.eval (fun x -> List.assoc x vals) diff) in
          match v with `Le -> s > 0 | `Ge -> s < 0 | `Eq -> s <> 0)
        (valuations (Poly.vars diff))
    in
    (match wrong with
     | None -> Ok ()
     | Some vals ->
       Error
         (Printf.sprintf "decided verdict contradicted at %s"
            (String.concat ", " (List.map (fun (x, r) -> x ^ "=" ^ Rat.to_string r) vals))))

(* ---- one response ---- *)

type outcome = Passed | Failed_op | Wrong of string

(* Judge one response against its request. Only a deadline-bound request
   may fail: its error response, or its answer past the deadline, is
   [Failed_op]. Any other request that errs or misses a deadline is
   [Wrong]; a completed one is checked in full. [expected_output] is
   memoized by the caller. *)
let judge ~id (r : Corpus.request) ~(req : Protocol.request) ~expected_output line =
  match Json.of_string line with
  | exception Json.Parse_error m -> Wrong ("unparsable response: " ^ m)
  | resp -> (
    let field k = Json.member k resp in
    let failed = field "ok" <> Some (Json.Bool true) || field "deadline_missed" = Some (Json.Bool true) in
    if field "id" <> Some (Json.Int id) then Wrong "response out of order or for another request"
    else if failed && r.expect_fail then Failed_op
    else if failed then Wrong ("request failed: " ^ line)
    else if r.expect_fail then
      (* a deadline-bound request answered in time: the fault is mended,
         and a budgeted answer may rightly be less precise than [Render] *)
      Passed
    else
      let output = Option.value ~default:"" (Option.bind (field "output") Json.to_string_opt) in
      let status =
        match Option.bind (field "status") Json.to_number_opt with Some f -> int_of_float f | None -> -1
      in
      let want_output, want_status = expected_output () in
      if output <> want_output then Wrong "output differs from the in-process Render"
      else if status <> want_status then Wrong "status differs from the in-process Render"
      else
        let rec props = function
          | [] -> Passed
          | p :: rest -> (
            let res =
              match p with
              | Corpus.Dynamic n -> dynamic req output ~n
              | Corpus.Deps (nest, suffix) -> deps req nest ~suffix
              | Corpus.Lint_status want -> lint_status ~status ~want
              | Corpus.Compare_sound -> compare_sound req output
              | Corpus.Bounds_sound -> bounds_sound output
            in
            match res with Ok () -> props rest | Error m -> Wrong m)
        in
        props r.props)
