(* Tests of the benchmark's own parts: the brute-force dependence oracle
   on hand-written nests whose dependences are known, the request
   generator's determinism and uniqueness, and which answers count as
   failed. *)

open Perfbench
open Nest

let root = "../.."

(* [a(i) = a(i - 1) + 1]: the write reaches the next iteration's read *)
let recurrence_1d =
  {
    depth = 1;
    layouts = [| [| 0 |] |];
    stmts = [ { lhs = { arr = 0; subs = [ { level = 0; off = 0 } ] }; rhs = [ { arr = 0; subs = [ { level = 0; off = -1 } ] } ] } ];
  }

(* [a(j) = a(j) + 1] inside i, j: every i revisits the same elements *)
let revisit_2d =
  {
    depth = 2;
    layouts = [| [| 1 |] |];
    stmts = [ { lhs = { arr = 0; subs = [ { level = 1; off = 0 } ] }; rhs = [ { arr = 0; subs = [ { level = 1; off = 0 } ] } ] } ];
  }

(* [a(i, j) = a(i - 1, j + 1) + 1], the shape of samples/recurrence.pf *)
let wavefront_2d =
  {
    depth = 2;
    layouts = [| [| 0; 1 |] |];
    stmts =
      [ { lhs = { arr = 0; subs = [ { level = 0; off = 0 }; { level = 1; off = 0 } ] };
          rhs = [ { arr = 0; subs = [ { level = 0; off = -1 }; { level = 1; off = 1 } ] } ] } ];
  }

(* [a(i) = b(i) + 1]: b is only read, a never revisited *)
let independent_1d =
  {
    depth = 1;
    layouts = [| [| 0 |]; [| 0 |] |];
    stmts = [ { lhs = { arr = 0; subs = [ { level = 0; off = 0 } ] }; rhs = [ { arr = 1; subs = [ { level = 0; off = 0 } ] } ] } ];
  }

let w = (0, 0) and r = (0, 1)

let known =
  [ ("recurrence", recurrence_1d, [ { a = w; b = r; dirs = [ Lt ] } ]);
    ( "revisit",
      revisit_2d,
      [ { a = w; b = w; dirs = [ Lt; Eq ] }; { a = w; b = r; dirs = [ Lt; Eq ] };
        { a = w; b = r; dirs = [ Eq; Eq ] }; { a = w; b = r; dirs = [ Gt; Eq ] } ] );
    ("wavefront", wavefront_2d, [ { a = w; b = r; dirs = [ Lt; Gt ] } ]);
    ("independent", independent_1d, []) ]

let deps_testable =
  Alcotest.testable
    (fun fmt d ->
      Format.fprintf fmt "(%d,%d)->(%d,%d) %s" (fst d.a) (snd d.a) (fst d.b) (snd d.b)
        (String.concat "," (List.map dir_to_string d.dirs)))
    ( = )

let test_oracle (name, nest, want) =
  Alcotest.test_case name `Quick (fun () ->
      Alcotest.(check (list deps_testable)) "oracle" (List.sort compare want) (oracle nest ~n:6);
      let src = to_source ~name:"t" ~suffix:"_x" nest in
      Alcotest.(check (list deps_testable)) "Depend covers the oracle" [] (missed nest ~suffix:"_x" ~n:6 src))

let test_generated_nests () =
  let rng = Random.State.make [| 11 |] in
  List.iter
    (fun depth ->
      let nest = generate rng ~depth ~stmts:6 in
      let src = to_source ~name:"g" ~suffix:"_y" nest in
      Alcotest.(check (list deps_testable)) (Printf.sprintf "depth %d" depth) [] (missed nest ~suffix:"_y" ~n:5 src))
    [ 1; 2; 3; 4; 5 ]

let workloads = [ Corpus.Cold_corpus; Corpus.Deep_nests; Corpus.Hot_fleet ]
let lines w ~seed = List.mapi (fun i r -> Corpus.line ~id:i r) (Corpus.first ~root ~seed w ~count:400)

let test_deterministic () =
  List.iter
    (fun w ->
      let name = Corpus.workload_to_string w in
      Alcotest.(check (list string)) (name ^ ": same seed, same bytes") (lines w ~seed:7) (lines w ~seed:7);
      Alcotest.(check bool) (name ^ ": another seed, other bytes") true (lines w ~seed:7 <> lines w ~seed:8))
    workloads

(* digest of the parsed program printed back: blind to comments and
   layout, so it tells ASTs apart, not texts *)
let fingerprint src = Digest.string (Pperf_lang.Pp_ast.program_to_string (Pperf_lang.Parser.parse_program src))

let test_unique () =
  List.iter
    (fun w ->
      let reqs = Corpus.first ~root ~seed:3 w ~count:400 in
      let sources = List.concat_map (fun (r : Corpus.request) -> r.source :: Option.to_list r.source2) reqs in
      let distinct f = List.length (List.sort_uniq compare (List.map f sources)) in
      let name = Corpus.workload_to_string w in
      Alcotest.(check int) (name ^ ": source digests") (List.length sources) (distinct Digest.string);
      Alcotest.(check int) (name ^ ": routine fingerprints") (List.length sources) (distinct fingerprint))
    [ Corpus.Cold_corpus; Corpus.Deep_nests ]

(* renaming changes names only: the predicted cost is the same polynomial,
   up to the suffix on variables named after a loop index ([trip_k]) *)
let drop_suffix ~suffix s =
  let n = String.length suffix in
  let b = Buffer.create (String.length s) in
  let i = ref 0 in
  while !i < String.length s do
    if !i + n <= String.length s && String.sub s !i n = suffix then i := !i + n
    else (
      Buffer.add_char b s.[!i];
      incr i)
  done;
  Buffer.contents b

let test_rename_keeps_cost () =
  let machine = Pperf_server.Machines.load "power1" in
  List.iter
    (fun (s : Corpus.source) ->
      let total src =
        List.map
          (fun p -> Pperf_symbolic.Poly.to_string (Pperf_core.Predict.total p))
          (Pperf_core.Predict.of_program ~machine src)
      in
      Alcotest.(check (list string)) s.name (total s.text)
        (List.map (drop_suffix ~suffix:"_r9") (total (Corpus.rename ~suffix:"_r9" s.text))))
    (Corpus.samples ~root @ Corpus.kernels)

(* only a deadline-bound request may fail: an error or a late answer on
   any other request makes the run incorrect *)
let test_judge () =
  let src = "program p\n  real x\n  x = 1.0\nend\n" in
  let outcome ~expect_fail resp =
    let r = Corpus.query "lint" ~machine:"power1" ~expect_fail src in
    let req = match Pperf_server.Protocol.request_of_line (Corpus.line ~id:0 r) with Ok q -> q | Error (_, m) -> failwith m in
    match Check.judge ~id:0 r ~req ~expected_output:(fun () -> Check.expected req) resp with
    | Check.Passed -> "passed"
    | Check.Failed_op -> "failed"
    | Check.Wrong _ -> "wrong"
  in
  let error = {|{"id":0,"ok":false,"error":{"code":"failed","message":"x"}}|} in
  let late = {|{"id":0,"ok":true,"deadline_missed":true,"output":""}|} in
  Alcotest.(check string) "error, deadline-bound" "failed" (outcome ~expect_fail:true error);
  Alcotest.(check string) "late, deadline-bound" "failed" (outcome ~expect_fail:true late);
  Alcotest.(check string) "error, ordinary request" "wrong" (outcome ~expect_fail:false error);
  Alcotest.(check string) "late, ordinary request" "wrong" (outcome ~expect_fail:false late);
  Alcotest.(check string) "another id" "wrong" (outcome ~expect_fail:true {|{"id":1,"ok":false}|})

let () =
  Alcotest.run "perfbench"
    [ ("oracle", List.map test_oracle known @ [ Alcotest.test_case "generated nests" `Quick test_generated_nests ]);
      ( "generator",
        [ Alcotest.test_case "deterministic" `Quick test_deterministic;
          Alcotest.test_case "unique requests" `Quick test_unique;
          Alcotest.test_case "rename keeps cost" `Quick test_rename_keeps_cost ] );
      ("check", [ Alcotest.test_case "only deadline-bound requests fail" `Quick test_judge ]) ]
