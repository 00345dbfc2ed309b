(* Optimum gate counts the exact workloads are checked against, made
   without the engine under test (see README.md, "Reference").

   [reference.txt] is produced once by [bench.exe reference] and
   committed. Each line is [<kind> <hex> <gates|-> <engine>=<answer> ...]:
   the gate count is recorded only when at least two SAT engines agree
   on it under a generous deadline; [-] marks an unreferenced instance,
   which is then checked by simulation alone. FDSD functions need no
   entry: a read-once formula over [n] variables has exactly [n - 1]
   gates, which full support also forces as a lower bound. *)

module Tt = Stp_tt.Tt
module Engine = Stp_synth.Engine

type t = (string, int option) Hashtbl.t

let file = "perfbench/reference.txt"

(* The fixed PDSD8 pool a run draws its PDSD8 instances from. *)
let pdsd8_pool_size = 48

let pdsd8_pool =
  lazy
    (Array.init pdsd8_pool_size (fun i ->
         Stp_workloads.Dsd_gen.pdsd ~n:8 ~seed:(1000 + i)))

let key f = Printf.sprintf "%d:%s" (Tt.num_vars f) (Tt.to_hex f)

let load () : t =
  let tbl = Hashtbl.create 512 in
  List.iter
    (fun line ->
      match String.split_on_char ' ' line with
      | ("npn4" | "pdsd8") :: hex :: gates :: _ ->
        let n = if String.length hex = 4 then 4 else 8 in
        Hashtbl.replace tbl (key (Tt.of_hex ~n hex)) (int_of_string_opt gates)
      | _ -> ())
    (String.split_on_char '\n' (Common.read_file file));
  tbl

(* [Some g]: the optimum is known to be [g]. [None]: unreferenced. *)
let gates (t : t) f =
  match Hashtbl.find_opt t (key f) with
  | Some g -> g
  | None -> None

let engines = [ Engine.bms; Engine.fen; Engine.lutexact ]

(* The per-engine deadline [reference.txt] was made with. *)
let deadline_s = 10.0

(* [bench.exe reference]: solve every NPN4 class and the PDSD8 pool with
   the three SAT engines, [jobs] instances at a time, and print the
   reference file on stdout. *)
let generate ~jobs =
  let instances =
    List.map (fun f -> ("npn4", f)) (Stp_workloads.Npn4.synthesizable ())
    @ List.map (fun f -> ("pdsd8", f)) (Array.to_list (Lazy.force pdsd8_pool))
  in
  ignore (Stp_tt.Npn.canon4 0);
  let solve (kind, f) =
    let answers =
      List.map
        (fun ((module E : Engine.S) as e) ->
          let r, dt =
            Common.time (fun () ->
                E.synthesize (Engine.spec f)
                  ~deadline:(Stp_util.Deadline.after deadline_s))
          in
          (match r with
           | Engine.Solved (c :: _) ->
             if not (Tt.equal (Stp_chain.Chain.simulate c) f) then
               failwith (E.name ^ " returned a wrong chain")
           | _ -> ());
          Common.log "%s %s %s %s %.3fs\n" kind (Tt.to_hex f) E.name
            (Engine.outcome_label r) dt;
          (Engine.name e, Engine.gates r))
        engines
    in
    let counts = List.filter_map snd answers in
    let agreed =
      List.find_opt
        (fun g -> List.length (List.filter (( = ) g) counts) >= 2)
        counts
    in
    Printf.sprintf "%s %s %s %s" kind (Tt.to_hex f)
      (match agreed with Some g -> string_of_int g | None -> "-")
      (String.concat " "
         (List.map
            (fun (name, g) ->
              Printf.sprintf "%s=%s" name
                (match g with Some g -> string_of_int g | None -> "timeout"))
            answers))
  in
  let lines = Stp_parallel.Pool.map ~domains:jobs solve instances in
  Printf.printf
    "# Optimum gate counts agreed by at least two of BMS, FEN, ABC at a %gs \
     deadline.\n\
     # Regenerate with: dune exec perfbench/bench.exe -- reference > %s\n"
    deadline_s file;
  List.iter print_endline lines
