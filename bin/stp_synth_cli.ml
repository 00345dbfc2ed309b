(* Command-line exact synthesis: give a truth table in hex, get every
   optimum Boolean chain. *)

open Cmdliner

let parse_basis = function
  | "" -> None
  | "aig" -> Some [ 1; 2; 4; 7; 8; 11; 13; 14 ]
  | "xor" -> Some [ 6; 9 ]
  | "xag" -> None (* the full ten-gate library *)
  | spec ->
    Some
      (List.map
         (fun name ->
           try Stp_chain.Gate.of_name name
           with Not_found ->
             Printf.eprintf "error: unknown gate %s\n" name;
             exit 2)
         (String.split_on_char ',' spec))

let synthesize_cmd hex n engine timeout all verbose basis max_depth output =
  (* "@file.pla" reads the function from a PLA file instead of hex. *)
  let f =
    try
      if String.length hex > 0 && hex.[0] = '@' then begin
        let path = String.sub hex 1 (String.length hex - 1) in
        let ic = open_in path in
        let len = in_channel_length ic in
        let text = really_input_string ic len in
        close_in ic;
        let tables = Stp_tt.Pla.parse text in
        if output < 0 || output >= Array.length tables then begin
          Printf.eprintf "error: PLA has %d outputs\n" (Array.length tables);
          exit 2
        end;
        tables.(output)
      end
      else
        match n with
        | Some n -> Stp_tt.Tt.of_hex ~n hex
        | None ->
          Printf.eprintf "error: -n is required with a hex table\n";
          exit 2
    with
    | Invalid_argument msg ->
      Printf.eprintf "error: %s\n" msg;
      exit 2
    | Sys_error msg ->
      Printf.eprintf "error: %s\n" msg;
      exit 2
  in
  let options =
    { Stp_synth.Spec.default_options with
      solution_cap = (if all then 10_000 else 1);
      basis = parse_basis basis;
      max_depth = (if max_depth <= 0 then None else Some max_depth) }
  in
  let (module E : Stp_synth.Engine.S) =
    match Stp_synth.Engine.find engine with
    | Some e -> e
    | None ->
      Printf.eprintf "error: unknown engine %s (stp|bms|fen|abc)\n" engine;
      exit 2
  in
  let start = Stp_util.Unix_time.now () in
  let result =
    E.synthesize (Stp_synth.Engine.spec ~options f)
      ~deadline:(Stp_util.Deadline.after timeout)
  in
  let elapsed = Stp_util.Unix_time.now () -. start in
  match result with
  | Stp_synth.Engine.Timeout ->
    Printf.printf "timeout after %.2fs\n" elapsed;
    exit 1
  | Stp_synth.Engine.Infeasible ->
    Printf.printf "infeasible: no chain of at most %d gates (%.2fs)\n"
      options.max_gates elapsed;
    exit 3
  | Stp_synth.Engine.Solved chains ->
    Printf.printf "optimum: %d gates; %d chain(s); %.3fs\n"
      (Option.get (Stp_synth.Engine.gates result))
      (List.length chains) elapsed;
    List.iteri
      (fun i c ->
        if verbose then Format.printf "--- solution %d ---@.%a@." (i + 1)
            Stp_chain.Chain.pp c
        else Format.printf "%a@." Stp_chain.Chain.pp_compact c)
      chains

let hex_arg =
  let doc =
    "Truth table in hexadecimal (most significant bits first), or \
     @FILE.pla to read a PLA file."
  in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"HEX" ~doc)

let n_arg =
  let doc = "Number of input variables (required for hex tables)." in
  Arg.(value & opt (some int) None & info [ "n"; "inputs" ] ~docv:"N" ~doc)

let engine_arg =
  let doc = "Engine: stp (all solutions), bms, fen or abc." in
  Arg.(value & opt string "stp" & info [ "e"; "engine" ] ~docv:"ENGINE" ~doc)

let timeout_arg =
  let doc = "Per-instance timeout in seconds." in
  Arg.(value & opt float 60.0 & info [ "t"; "timeout" ] ~docv:"SECONDS" ~doc)

let all_arg =
  let doc = "Collect all optimum chains (STP engine only)." in
  Arg.(value & flag & info [ "a"; "all" ] ~doc)

let verbose_arg =
  let doc = "Print chains gate by gate instead of one-line form." in
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc)

let basis_arg =
  let doc =
    "Gate library: $(b,aig) (AND class), $(b,xor) (XOR/XNOR), or a \
     comma-separated list of gate names (AND,OR,XOR,NAND,...)."
  in
  Arg.(value & opt string "" & info [ "b"; "basis" ] ~docv:"BASIS" ~doc)

let depth_arg =
  let doc = "Maximum logic depth (0 = unbounded)." in
  Arg.(value & opt int 0 & info [ "d"; "max-depth" ] ~docv:"LEVELS" ~doc)

let output_arg =
  let doc = "Which output column of a PLA file to synthesise." in
  Arg.(value & opt int 0 & info [ "o"; "output" ] ~docv:"K" ~doc)

let cmd =
  let doc = "exact synthesis via the semi-tensor-product circuit solver" in
  let exits =
    Cmd.Exit.info 1 ~doc:"the deadline expired before an answer."
    :: Cmd.Exit.info 3
         ~doc:
           "no chain exists within the gate limit, the basis and the depth \
            bound."
    :: Cmd.Exit.defaults
  in
  Cmd.v
    (Cmd.info "stp_synth" ~doc ~exits)
    Term.(
      const synthesize_cmd $ hex_arg $ n_arg $ engine_arg $ timeout_arg
      $ all_arg $ verbose_arg $ basis_arg $ depth_arg $ output_arg)

let () = exit (Cmd.eval cmd)
