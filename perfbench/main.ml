(* perfbench: the end-to-end benchmark of ppredict.

     main.exe run --workload W --seed N --seconds S --trace 0|1
                  [--ppredict PATH]
     main.exe gen --workload W --seed N [--count K]

   Both run from the root of the repository. [run] prints one JSON result
   line last on stdout; [gen] writes the
   workload's request lines, replayable with [ppredict loadgen --script]
   or by piping them into [ppredict serve]. Workloads: cold-corpus,
   deep-nests, hot-fleet. *)

open Perfbench

let usage () =
  prerr_endline
    "usage: main.exe run --workload W --seed N --seconds S --trace 0|1 [--ppredict PATH]\n\
    \       main.exe gen --workload W --seed N [--count K]";
  exit 2

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let cmd, opts = match args with c :: rest -> (c, rest) | [] -> usage () in
  let rec pairs = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" -> (String.sub k 2 (String.length k - 2), v) :: pairs rest
    | [] -> []
    | _ -> usage ()
  in
  let opts = pairs opts in
  let get k ~default = match List.assoc_opt k opts with Some v -> v | None -> default () in
  let required k = get k ~default:(fun () -> Printf.eprintf "missing --%s\n" k; usage ()) in
  let int k v = match int_of_string_opt v with Some n -> n | None -> Printf.eprintf "--%s: not a number\n" k; usage () in
  let workload =
    match Corpus.workload_of_string (required "workload") with
    | Some w -> w
    | None -> prerr_endline "unknown workload (cold-corpus, deep-nests, hot-fleet)"; exit 2
  in
  let seed = int "seed" (required "seed") in
  let root = Sys.getcwd () in
  match cmd with
  | "gen" ->
    let count = int "count" (get "count" ~default:(fun () -> "200")) in
    List.iteri (fun i r -> print_endline (Corpus.line ~id:i r)) (Corpus.first ~root ~seed workload ~count)
  | "run" ->
    let seconds = int "seconds" (required "seconds") in
    let cfg =
      {
        Bench.workload;
        seed;
        seconds = float_of_int seconds;
        trace = int "trace" (get "trace" ~default:(fun () -> "0")) <> 0;
        ppredict = get "ppredict" ~default:(fun () -> Filename.concat root "_build/default/bin/ppredict.exe");
        root;
      }
    in
    (* a hung server must not hang the run. Set-up, the timed phase, the
       checks and the traced replay all grow with the run length, so the
       limit does too. *)
    Sys.set_signal Sys.sigalrm (Sys.Signal_handle (fun _ -> failwith "run exceeded its time limit"));
    ignore (Unix.alarm (60 + (5 * seconds)));
    let r = Bench.run cfg in
    List.iter (fun (i, m) -> Printf.eprintf "perfbench: request %d: %s\n" i m) r.verdict.wrong;
    print_endline (Bench.result_json r)
  | _ -> usage ()
