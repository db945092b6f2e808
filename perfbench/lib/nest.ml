(* Generated perfect loop nests over symbolic n, and a brute-force
   dependence oracle that walks their iteration space.

   A nest is [depth] loops [do x = 2, n - 1], outermost first, around a
   body of assignments to and from 3 arrays. Every array has a fixed
   layout: dimension d is indexed by loop level [levels.(d)] plus a small
   per-reference offset, so distinct references to one array differ only
   by their offsets. That is the shape whose dependences the classic
   subscript tests decide, and the shape whose cost grows with depth in
   [Depend]. *)

type sub = { level : int; off : int }
type aref = { arr : int; subs : sub list }
type stmt = { lhs : aref; rhs : aref list }

type t = {
  depth : int;
  layouts : int array array;  (** per array: the loop level of each dimension *)
  stmts : stmt list;
}

let array_name k = String.make 1 (Char.chr (Char.code 'a' + k))
let index_base = [| "i"; "j"; "k"; "l"; "m" |]
let max_depth = Array.length index_base

(* extent of every array dimension: loops run over 2..n-1 and offsets are
   at most 1, so any n <= extent stays in bounds *)
let extent = 16

(* Three arrays; statement [s] writes array [s mod 3] and reads the other
   two, in random order, so every nest of a size has the same number of
   reference pairs to test. The seed picks the layouts and the offsets. *)
let narrays = 3

let generate rng ~depth ~stmts =
  if depth < 1 || depth > max_depth then invalid_arg "Nest.generate: depth";
  let layouts =
    Array.init narrays (fun _ ->
        let rank = min depth (2 + Random.State.int rng 2) in
        (* a random choice of [rank] distinct levels, in random order *)
        let levels = Array.init depth Fun.id in
        for i = depth - 1 downto 1 do
          let j = Random.State.int rng (i + 1) in
          let t = levels.(i) in
          levels.(i) <- levels.(j);
          levels.(j) <- t
        done;
        Array.sub levels 0 rank)
  in
  let offset () =
    match Random.State.int rng 4 with 0 -> -1 | 1 -> 1 | _ -> 0
  in
  let ref_ arr =
    { arr; subs = Array.to_list (Array.map (fun level -> { level; off = offset () }) layouts.(arr)) }
  in
  let stmt s =
    let w = s mod narrays in
    let r1 = (w + 1) mod narrays and r2 = (w + 2) mod narrays in
    let reads = if Random.State.bool rng then [ r1; r2 ] else [ r2; r1 ] in
    { lhs = ref_ w; rhs = List.map ref_ reads }
  in
  { depth; layouts; stmts = List.init stmts stmt }

(* ---- PF rendering ---- *)

let index_name ~suffix level = index_base.(level) ^ suffix

let sub_to_string ~suffix { level; off } =
  let x = index_name ~suffix level in
  if off = 0 then x else if off > 0 then Printf.sprintf "%s + %d" x off
  else Printf.sprintf "%s - %d" x (-off)

let ref_to_string ~suffix r =
  Printf.sprintf "%s(%s)" (array_name r.arr)
    (String.concat ", " (List.map (sub_to_string ~suffix) r.subs))

(* line of the body statement [s] (0-based) in [to_source]'s output *)
let stmt_line t s = 4 + t.depth + s

let to_source ~name ~suffix t =
  let b = Buffer.create 512 in
  let arrays = List.init (Array.length t.layouts) array_name in
  Printf.bprintf b "subroutine %s(%s, n)\n" name (String.concat ", " arrays);
  Printf.bprintf b "  integer n, %s\n"
    (String.concat ", " (List.init t.depth (index_name ~suffix)));
  Printf.bprintf b "  real %s\n"
    (String.concat ", "
       (List.mapi
          (fun k layout ->
            Printf.sprintf "%s(%s)" (array_name k)
              (String.concat "," (Array.to_list (Array.map (fun _ -> string_of_int extent) layout))))
          (Array.to_list t.layouts)));
  for l = 0 to t.depth - 1 do
    Printf.bprintf b "%sdo %s = 2, n - 1\n" (String.make (2 * (l + 1)) ' ') (index_name ~suffix l)
  done;
  let pad = String.make (2 * (t.depth + 1)) ' ' in
  List.iter
    (fun s ->
      let rhs =
        match List.map (ref_to_string ~suffix) s.rhs with
        | [] -> "1.0"
        | [ x ] -> x ^ " + 1.0"
        | x :: rest -> x ^ " + " ^ String.concat " * " rest ^ " * 0.5"
      in
      Printf.bprintf b "%s%s = %s\n" pad (ref_to_string ~suffix s.lhs) rhs)
    t.stmts;
  for l = t.depth - 1 downto 0 do
    Printf.bprintf b "%send do\n" (String.make (2 * (l + 1)) ' ')
  done;
  Buffer.add_string b "end\n";
  Buffer.contents b

(* ---- dependences ---- *)

type dir = Lt | Eq | Gt

(* A reference's identity: statement index, and 0 for the write or 1+k
   for the k-th read of the right-hand side. Dependences are kept between
   ordered reference pairs [(a, b)] with [a <= b]; the direction vector
   compares the iteration of [a] with that of [b], level by level. *)
type ref_id = int * int

type dep = { a : ref_id; b : ref_id; dirs : dir list }

let flip = List.map (function Lt -> Gt | Gt -> Lt | Eq -> Eq)

(* one canonical form per dependence: references ordered, and a
   reference paired with itself oriented forward *)
let normalize ~a ~b dirs =
  let a, b, dirs = if compare a b > 0 then (b, a, flip dirs) else (a, b, dirs) in
  let dirs =
    if a = b then
      match List.find_opt (fun d -> d <> Eq) dirs with Some Gt -> flip dirs | _ -> dirs
    else dirs
  in
  { a; b; dirs }

let dir_of_code = function 0 -> Lt | 1 -> Eq | _ -> Gt

(* Walk every iteration of the nest at [n] in execution order, record
   every access to every array element, and derive the set of
   (reference pair, direction vector) that some two accesses of one
   element, at least one a write, realize. Nothing here looks at
   subscript algebra: the only input is where each access lands. *)
let oracle t ~n =
  let refs =
    List.concat
      (List.mapi
         (fun s st -> ((s, 0), st.lhs, true) :: List.mapi (fun k r -> ((s, k + 1), r, false)) st.rhs)
         t.stmts)
    |> Array.of_list
  in
  let nrefs = Array.length refs in
  let idx_of = Hashtbl.create nrefs in
  Array.iteri (fun i (id, _, _) -> Hashtbl.replace idx_of id i) refs;
  (* execution order inside one iteration: statement by statement, each
     statement's reads before its write *)
  let order =
    List.concat
      (List.mapi
         (fun s st -> List.init (List.length st.rhs) (fun k -> Hashtbl.find idx_of (s, k + 1)) @ [ Hashtbl.find idx_of (s, 0) ])
         t.stmts)
  in
  let lo = 2 and hi = n - 1 in
  let span = hi - lo + 1 in
  if span < 1 then invalid_arg "Nest.oracle: empty iteration space";
  let niters = int_of_float (float_of_int span ** float_of_int t.depth) in
  let iter_vec it =
    let v = Array.make t.depth 0 in
    let r = ref it in
    for l = t.depth - 1 downto 0 do
      v.(l) <- lo + (!r mod span);
      r := !r / span
    done;
    v
  in
  (* element -> accesses (reference index, iteration number), in
     execution order *)
  let cells : (int * int list, (int * int) list ref) Hashtbl.t = Hashtbl.create 1024 in
  for it = 0 to niters - 1 do
    let v = iter_vec it in
    List.iter
      (fun ri ->
        let _, r, _ = refs.(ri) in
        let key = (r.arr, List.map (fun s -> v.(s.level) + s.off) r.subs) in
        match Hashtbl.find_opt cells key with
        | Some l -> l := (ri, it) :: !l
        | None -> Hashtbl.add cells key (ref [ (ri, it) ]))
      order
  done;
  let ndirs = int_of_float (3.0 ** float_of_int t.depth) in
  let seen = Bytes.make (nrefs * nrefs * ndirs) '\000' in
  let vecs = Array.init niters iter_vec in
  Hashtbl.iter
    (fun _ accesses ->
      let acc = Array.of_list (List.rev !accesses) in
      let m = Array.length acc in
      for x = 0 to m - 1 do
        let rx, ix = acc.(x) in
        let _, _, wx = refs.(rx) in
        for y = x + 1 to m - 1 do
          let ry, iy = acc.(y) in
          let _, _, wy = refs.(ry) in
          if wx || wy then (
            let vx = vecs.(ix) and vy = vecs.(iy) in
            let code = ref 0 in
            for l = 0 to t.depth - 1 do
              let d = if vx.(l) < vy.(l) then 0 else if vx.(l) = vy.(l) then 1 else 2 in
              code := (!code * 3) + d
            done;
            Bytes.unsafe_set seen (((rx * nrefs) + ry) * ndirs + !code) '\001')
        done
      done)
    cells;
  let deps = ref [] in
  for rx = 0 to nrefs - 1 do
    for ry = 0 to nrefs - 1 do
      for code = 0 to ndirs - 1 do
        if Bytes.get seen (((rx * nrefs) + ry) * ndirs + code) = '\001' then (
          let dirs = Array.make t.depth Eq in
          let c = ref code in
          for l = t.depth - 1 downto 0 do
            dirs.(l) <- dir_of_code (!c mod 3);
            c := !c / 3
          done;
          let a, _, _ = refs.(rx) and b, _, _ = refs.(ry) in
          deps := normalize ~a ~b (Array.to_list dirs) :: !deps)
      done
    done
  done;
  List.sort_uniq compare !deps

(* ---- matching Depend's answer ---- *)

open Pperf_lang

(* (level, offset) of an affine subscript [x], [x + c] or [x - c] over the
   nest's index names *)
let sub_of_expr ~suffix (e : Ast.expr) =
  let level_of v =
    let rec go l = if l >= max_depth then None else if index_name ~suffix l = v then Some l else go (l + 1) in
    go 0
  in
  match e with
  | Ast.Var v -> Option.map (fun level -> { level; off = 0 }) (level_of v)
  | Ast.Binop (Ast.Add, Ast.Var v, Ast.Int c) -> Option.map (fun level -> { level; off = c }) (level_of v)
  | Ast.Binop (Ast.Sub, Ast.Var v, Ast.Int c) -> Option.map (fun level -> { level; off = -c }) (level_of v)
  | _ -> None

(* Which of the nest's references a [Depend] array reference is: by line
   (statement), array, read/write, and subscripts. Identical reads in one
   statement are interchangeable, so the first match stands for all. *)
let ref_ids_of t ~suffix (r : Analysis.array_ref) =
  let s = r.at.Srcloc.line - stmt_line t 0 in
  match List.nth_opt t.stmts s with
  | None -> []
  | Some st ->
    let subs = List.map (sub_of_expr ~suffix) r.subs in
    let same (x : aref) =
      array_name x.arr = r.array && List.map Option.some x.subs = subs
    in
    if r.is_write then if same st.lhs then [ (s, 0) ] else []
    else List.concat (List.mapi (fun k x -> if same x then [ (s, k + 1) ] else []) st.rhs)

let dir_of_depend = function Depend.Lt -> Lt | Depend.Eq -> Eq | Depend.Gt -> Gt

let depend_deps t ~suffix src =
  let routine = Parser.parse_routine src in
  Depend.dependences_in routine.Ast.body
  |> List.concat_map (fun (d : Depend.dependence) ->
         let dirs = List.map dir_of_depend d.directions in
         List.concat_map
           (fun a -> List.map (fun b -> normalize ~a ~b dirs) (ref_ids_of t ~suffix d.dst))
           (ref_ids_of t ~suffix d.src))

(* Oracle dependences that [Depend] does not report. A direction vector
   from Depend covers an oracle vector when they are equal; the oracle
   only ever sees concrete distances, so no wider matching is needed. *)
let missed t ~suffix ~n src =
  let reported = Hashtbl.create 256 in
  List.iter (fun d -> Hashtbl.replace reported d ()) (depend_deps t ~suffix src);
  List.filter (fun d -> not (Hashtbl.mem reported d)) (oracle t ~n)

let dir_to_string = function Lt -> "<" | Eq -> "=" | Gt -> ">"

let dep_to_string t { a = sa, ka; b = sb, kb; dirs } =
  let name (s, k) =
    let st = List.nth t.stmts s in
    let r = if k = 0 then st.lhs else List.nth st.rhs (k - 1) in
    Printf.sprintf "%s@s%d%s" (array_name r.arr) s (if k = 0 then "w" else "r")
  in
  Printf.sprintf "%s -> %s (%s)" (name (sa, ka)) (name (sb, kb))
    (String.concat "," (List.map dir_to_string dirs))
