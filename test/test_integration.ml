(* End-to-end integration tests: engines against the real workloads and
   the harness aggregation machinery. *)

module Tt = Stp_tt.Tt
module Chain = Stp_chain.Chain
module Spec = Stp_synth.Spec
module Engine = Stp_synth.Engine
module Runner = Stp_harness.Runner
module Table = Stp_harness.Table

let deadline () = Stp_util.Deadline.after 20.0

(* The chains of a [Solved] outcome; any other outcome fails the test. *)
let chains_of name = function
  | Spec.Solved chains -> chains
  | Spec.Timeout -> Alcotest.failf "%s timed out" name
  | Spec.Infeasible -> Alcotest.failf "%s reported infeasible" name

let gates_of chains = Chain.size (List.hd chains)

let test_fdsd6_all_engines_agree () =
  (* read-once functions: every engine must find the n-1 = 5-gate optimum *)
  let fns = Stp_workloads.Dsd_gen.fdsd_collection ~n:6 ~count:3 ~seed:77 in
  List.iter
    (fun f ->
      let stp =
        chains_of "stp" (Stp_synth.Stp_exact.synthesize ~deadline:(deadline ()) f)
      in
      Alcotest.(check int) "read-once optimum" 5 (gates_of stp);
      List.iter
        (fun c ->
          Alcotest.(check bool) "simulates" true
            (Tt.equal (Chain.simulate c) f))
        stp;
      match Stp_synth.Baselines.bms ~deadline:(deadline ()) f with
      | Spec.Solved bms ->
        Alcotest.(check int) "bms agrees" (gates_of stp) (gates_of bms)
      | Spec.Timeout -> () (* CNF baselines may be slow; agreement only
                              checked when they finish *)
      | Spec.Infeasible -> Alcotest.fail "bms reported infeasible")
    fns

let test_npn4_easy_classes () =
  (* the small-support NPN4 classes must be near-instant *)
  let fns =
    List.filter
      (fun f -> Tt.support_size f <= 3)
      (Stp_workloads.Npn4.synthesizable ())
  in
  List.iter
    (fun f ->
      List.iter
        (fun c ->
          Alcotest.(check bool) "simulates" true
            (Tt.equal (Chain.simulate c) f))
        (chains_of "solved"
           (Stp_synth.Stp_exact.synthesize ~deadline:(deadline ()) f)))
    fns

let test_runner_aggregates () =
  let fns =
    [ Tt.of_hex ~n:3 "96"; Tt.of_hex ~n:3 "e8"; Tt.of_hex ~n:3 "ca" ]
  in
  let agg = Runner.run_collection ~timeout:20.0 Runner.stp_engine fns in
  Alcotest.(check string) "name" "STP" agg.Runner.name;
  Alcotest.(check int) "all solved" 3 agg.Runner.solved;
  Alcotest.(check int) "no timeouts" 0 agg.Runner.timeouts;
  Alcotest.(check bool) "mean positive" true (agg.Runner.mean_time >= 0.0);
  Alcotest.(check bool) "solutions counted" true (agg.Runner.mean_solutions >= 1.0);
  (* optima histogram: xor3=2, mux=3, maj=4 *)
  Alcotest.(check (list (pair int int))) "histogram" [ (2, 1); (3, 1); (4, 1) ]
    agg.Runner.optima

let test_runner_observes () =
  let fns = [ Tt.of_hex ~n:2 "6" ] in
  let seen = ref [] in
  let on_instance i _f r =
    seen := (i, match r with Engine.Solved _ -> true | _ -> false) :: !seen
  in
  ignore (Runner.run_collection ~timeout:20.0 ~on_instance Runner.stp_engine fns);
  Alcotest.(check (list (pair int bool))) "observed" [ (0, true) ] !seen

let test_runner_timeout_accounting () =
  (* hard function with a microscopic budget: counted as timeout *)
  let fns = [ Tt.of_hex ~n:4 "1ee6" ] in
  let agg = Runner.run_collection ~timeout:0.001 Runner.stp_engine fns in
  Alcotest.(check int) "timeout" 1 agg.Runner.timeouts;
  Alcotest.(check int) "not infeasible" 0 agg.Runner.infeasible;
  Alcotest.(check int) "none solved" 0 agg.Runner.solved

let test_runner_infeasible_accounting () =
  (* AND2 has no chain in the XOR basis: a refutation within max_gates
     counts as infeasible, not as a timeout; XOR3 and XNOR2 solve. The
     runner passes default options, so the engine fixes its own. *)
  let fns = [ Tt.of_hex ~n:3 "96"; Tt.of_hex ~n:2 "8"; Tt.of_hex ~n:2 "9" ] in
  let options =
    { Spec.default_options with Spec.basis = Some [ 6; 9 ]; max_gates = 5 }
  in
  let xor5 =
    (module struct
      let name = "STP-XOR5"

      let synthesize (spec : Engine.spec) ~deadline =
        Stp_synth.Stp_exact.synthesize ~options ~deadline spec.target
    end : Engine.S)
  in
  let agg = Runner.run_collection ~timeout:20.0 xor5 fns in
  Alcotest.(check int) "solved" 2 agg.Runner.solved;
  Alcotest.(check int) "infeasible" 1 agg.Runner.infeasible;
  Alcotest.(check int) "no timeouts" 0 agg.Runner.timeouts;
  let module Report = Stp_harness.Report in
  Alcotest.(check bool) "infeasible key in the JSON row" true
    (Report.member "infeasible" (Report.aggregate_json agg) = Some (Report.Int 1))

let test_table_rendering () =
  let fns = [ Tt.of_hex ~n:3 "96" ] in
  let aggs =
    List.map
      (fun e -> Runner.run_collection ~timeout:20.0 e fns)
      [ Runner.bms_engine; Runner.fen_engine; Runner.abc_engine;
        Runner.stp_engine ]
  in
  let out = Format.asprintf "%a" (fun fmt () ->
      Table.render fmt ~rows:[ ("XOR3", aggs) ]) ()
  in
  let contains haystack needle =
    let nh = String.length haystack and nn = String.length needle in
    let rec scan i =
      i + nn <= nh && (String.sub haystack i nn = needle || scan (i + 1))
    in
    scan 0
  in
  Alcotest.(check bool) "mentions collection" true (contains out "XOR3")

let test_csv_rendering () =
  let fns = [ Tt.of_hex ~n:3 "96" ] in
  let agg = Runner.run_collection ~timeout:20.0 Runner.stp_engine fns in
  let out =
    Format.asprintf "%a" (fun fmt () ->
        Table.render_csv fmt ~rows:[ ("XOR3", [ agg ]) ]) ()
  in
  Alcotest.(check bool) "has header" true
    (String.length out > 10 && String.sub out 0 10 = "collection")

let test_chains_expand_correctly_across_engines () =
  (* a function with a support hole exercises the expand path everywhere *)
  let f = Tt.expand (Tt.of_hex ~n:3 "e8") 5 [| 0; 2; 4 |] in
  List.iter
    (fun (module E : Engine.S) ->
      List.iter
        (fun c ->
          Alcotest.(check bool) (E.name ^ " simulates") true
            (Tt.equal (Chain.simulate c) f))
        (chains_of E.name (E.synthesize (Engine.spec f) ~deadline:(deadline ()))))
    Engine.all

let () =
  Alcotest.run "integration"
    [ ( "engines",
        [ Alcotest.test_case "fdsd6 agreement" `Slow
            test_fdsd6_all_engines_agree;
          Alcotest.test_case "npn4 easy classes" `Slow test_npn4_easy_classes;
          Alcotest.test_case "expand across engines" `Slow
            test_chains_expand_correctly_across_engines ] );
      ( "harness",
        [ Alcotest.test_case "aggregates" `Quick test_runner_aggregates;
          Alcotest.test_case "observer" `Quick test_runner_observes;
          Alcotest.test_case "timeout accounting" `Quick
            test_runner_timeout_accounting;
          Alcotest.test_case "table rendering" `Quick test_table_rendering;
          Alcotest.test_case "csv rendering" `Quick test_csv_rendering;
          Alcotest.test_case "infeasible accounting" `Quick
            test_runner_infeasible_accounting ] ) ]
