(* Checker self-test: every known-bad answer must raise error_share, and
   the matching good answer must not. Exit code 0 when all cases hold. *)

module Tt = Stp_tt.Tt
module Chain = Stp_chain.Chain
module Ntk = Stp_network.Ntk

let error_share fails = Common.fratio (List.length fails) 1

let run () =
  let ok = ref true in
  let case name ~good ~bad =
    let g = error_share good and b = error_share bad in
    let pass = g = 0.0 && b > 0.0 in
    if not pass then ok := false;
    Printf.printf "%-24s good error_share=%g  bad error_share=%g  %s\n" name g b
      (if pass then "ok" else "FAILED");
    List.iter (fun f -> Printf.printf "  caught: %s\n" f) bad
  in
  (* x3 = AND(x1, x2) and x3 = XOR(x1, x2) over two inputs. *)
  let and2 = Chain.make ~n:2 ~steps:[ { Chain.fanin1 = 0; fanin2 = 1; gate = 8 } ] ~output:2 () in
  let xor2 = Tt.bxor (Tt.var 2 0) (Tt.var 2 1) in
  let and_tt = Tt.band (Tt.var 2 0) (Tt.var 2 1) in
  case "wrong chain"
    ~good:(Check.solved ~target:and_tt ~reference:(Some 1) [ and2 ])
    ~bad:(Check.solved ~target:xor2 ~reference:(Some 1) [ and2 ]);
  case "wrong optimum"
    ~good:(Check.solved ~target:and_tt ~reference:(Some 1) [ and2 ])
    ~bad:(Check.solved ~target:and_tt ~reference:(Some 2) [ and2 ]);
  (* A netlist and a copy with one output complemented. *)
  let dir = Common.fresh_scratch "selftest" in
  let make flip =
    let ntk = Ntk.create () in
    let a = Ntk.add_pi ntk and b = Ntk.add_pi ntk and c = Ntk.add_pi ntk in
    let ab = Ntk.add_and ntk a b in
    ignore (Ntk.add_po ntk (Ntk.add_or ntk ab c));
    ignore (Ntk.add_po ntk (if flip then Ntk.lit_not ab else ab));
    ntk
  in
  let path name ntk =
    let p = Filename.concat dir name in
    Stp_network.Aiger.write_file p ntk;
    p
  in
  let a = path "a.aig" (make false) and a' = path "a2.aig" (make false) in
  let b = path "b.aig" (make true) in
  let fails x y = let f, _, _ = Check.netlist ~seed:1 ~rounds:4 x y in f in
  case "non-equivalent netlist" ~good:(fails a a') ~bad:(fails a b);
  Common.remove_tree dir;
  (* Service responses for request 4, member 8888 (x4 AND x3 ... as a
     4-input table), whose class optimum is taken as 1. *)
  let hex = Tt.to_hex (Tt.band (Tt.var 4 3) (Tt.var 4 2)) in
  let line id = Printf.sprintf
      {|{"id":%d,"status":"solved","gates":1,"chains":["x5=8(x3,x4); f=x5"],"source":"cache","elapsed_s":0.001}|} id
  in
  let check ?(reference = Some 1) id l = snd (Check.response ~id ~n:4 ~hex ~reference l) in
  case "out-of-order response" ~good:(check 4 (line 4)) ~bad:(check 4 (line 5));
  case "solved above optimum" ~good:(check 4 (line 4)) ~bad:(check ~reference:(Some 0) 4 (line 4));
  case "error response" ~good:(check 4 (line 4))
    ~bad:(check 4 {|{"id":4,"status":"error","error":"boom"}|});
  (* The per-layer names a traced run prints are the ones BENCHMARK.json
     declares, with the same units. *)
  let module J = Stp_telemetry.Json in
  let declared =
    match J.of_string (Common.read_file "BENCHMARK.json") with
    | Ok json -> (
      match J.member "per_layer" json with
      | Some (J.List ms) ->
        List.filter_map
          (fun m ->
            match (J.member "name" m, J.member "unit" m) with
            | Some (J.String n), Some (J.String u) -> Some (n, u)
            | _ -> None)
          ms
      | _ -> [])
    | Error _ -> []
  in
  let same = declared = Layers.names in
  if not same then ok := false;
  Printf.printf "%-24s %s\n" "per-layer names" (if same then "ok" else "FAILED: differ from BENCHMARK.json");
  if !ok then 0 else 1
