module Tt = Stp_tt.Tt
module Chain = Stp_chain.Chain

type spec = {
  target : Tt.t;
  options : Spec.options;
  memo : Factor.memo option;
}

let spec ?(options = Spec.default_options) ?memo target =
  { target; options; memo }

type 'a outcome = 'a Spec.outcome = Solved of 'a | Timeout | Infeasible

type result = Chain.t list outcome

module type S = sig
  val name : string

  val synthesize : spec -> deadline:Stp_util.Deadline.t -> result
end

module Stp_engine : S = struct
  let name = "STP"

  let synthesize { target; options; memo } ~deadline =
    Stp_exact.synthesize ~options ?memo ~deadline target
end

let baseline name (engine : Baselines.engine) : (module S) =
  (module struct
    let name = name

    let synthesize { target; options; memo = _ } ~deadline =
      engine ~options ~deadline target
  end)

let stp = (module Stp_engine : S)
let bms = baseline "BMS" Baselines.bms
let fen = baseline "FEN" Baselines.fen
let lutexact = baseline "ABC" Baselines.abc

let all = [ bms; fen; lutexact; stp ]

let name (module E : S) = E.name

let find n =
  let n = String.uppercase_ascii n in
  List.find_opt (fun (module E : S) -> String.uppercase_ascii E.name = n) all

let gates = function
  | Solved (c :: _) -> Some (Chain.size c)
  | Solved [] | Timeout | Infeasible -> None

let outcome_label = function
  | Solved _ -> "solved"
  | Timeout -> "timeout"
  | Infeasible -> "infeasible"

(* Telemetry decorator: a span per synthesize call (one flame-graph
   block per engine invocation, tagged with the target arity) and, when
   metrics are on, latency histograms per engine and per outcome. The
   engine itself stays uninstrumented; everything that consumes engines
   through [S] (runner, daemon, rewriter) wraps with [observed] so the
   measurements agree across entry points. *)
let observed (module E : S) : (module S) =
  (module struct
    let name = E.name

    let span_name = "synth." ^ E.name
    let hist_engine = lazy (Stp_telemetry.Hist.get ("engine/" ^ E.name))

    let synthesize spec ~deadline =
      let run () =
        if not (Stp_telemetry.Trace.enabled ()) then E.synthesize spec ~deadline
        else
          Stp_telemetry.Trace.span span_name
            ~args:[ ("n", string_of_int (Tt.num_vars spec.target)) ]
            (fun () -> E.synthesize spec ~deadline)
      in
      if not (Stp_telemetry.Telemetry.metrics_enabled ()) then run ()
      else begin
        let t0 = Stp_util.Profile.now_ns () in
        let r = run () in
        let dt = Stp_util.Profile.now_ns () - t0 in
        Stp_telemetry.Hist.observe_ns (Lazy.force hist_engine) dt;
        Stp_telemetry.Hist.observe_ns
          (Stp_telemetry.Hist.get ("engine/" ^ E.name ^ "/" ^ outcome_label r))
          dt;
        r
      end
  end)
