(* The benchmark's answer checker. Engine chains are simulated against
   their targets with [Chain.simulate]; service chains are parsed and
   simulated here; netlists are parsed from the AIGER bytes and
   simulated here on patterns from the benchmark's own seed; optimum
   gate counts come from [Reference], never from the engine being
   checked. Each check returns its failures as lines of text; an
   operation with any failure counts as failed. *)

module Tt = Stp_tt.Tt
module Chain = Stp_chain.Chain

(* {2 Exact synthesis answers} *)

(* A [Solved] engine answer: every chain computes the target, all have
   one size, and that size is the reference optimum when one is known. *)
let solved ~target ~reference chains =
  match chains with
  | [] -> [ "solved with no chain" ]
  | c :: _ ->
    let g = Chain.size c in
    let wrong =
      List.filter (fun c -> not (Tt.equal (Chain.simulate c) target)) chains
    in
    (if wrong = [] then []
     else [ Printf.sprintf "%d chain(s) do not compute %s" (List.length wrong)
              (Tt.to_hex target) ])
    @ (if List.for_all (fun c -> Chain.size c = g) chains then []
       else [ "chains of different sizes" ])
    (* Full support over s variables needs s - 1 two-input gates. *)
    @ (if g >= Tt.support_size target - 1 then []
       else [ Printf.sprintf "%s solved with %d gates, below the support bound" (Tt.to_hex target) g ])
    @
    match reference with
    | Some r when r <> g ->
      [ Printf.sprintf "%s solved with %d gates, optimum is %d" (Tt.to_hex target) g r ]
    | _ -> []

(* {2 Compact chains, as the service prints them} *)

(* Simulate "x5=8(x1,x2); x6=6(x5,x3); f=!x6" over [n <= 5] inputs as
   an int truth table of [2^n] bits. Gate code bit [2*v1 + v2] is the
   output for fanin values (v1, v2). *)
let simulate_compact ~n text =
  let bits = 1 lsl n in
  let mask = (1 lsl bits) - 1 in
  let var i =
    let t = ref 0 in
    for m = 0 to bits - 1 do
      if (m lsr i) land 1 = 1 then t := !t lor (1 lsl m)
    done;
    !t
  in
  let signals = Hashtbl.create 16 in
  for i = 1 to n do Hashtbl.replace signals i (var (i - 1)) done;
  let get i =
    match Hashtbl.find_opt signals i with
    | Some v -> v
    | None -> failwith (Printf.sprintf "signal x%d used before it is defined" i)
  in
  let output = ref None in
  List.iter
    (fun part ->
      let part = String.trim part in
      if part = "" then ()
      else if String.length part > 2 && String.sub part 0 2 = "f=" then
        output :=
          Some
            (Scanf.sscanf part "f=%s" (fun s ->
                 if s.[0] = '!' then
                   Scanf.sscanf s "!x%d" (fun i -> lnot (get i) land mask)
                 else Scanf.sscanf s "x%d" get))
      else
        Scanf.sscanf part "x%d=%x(x%d,x%d)" (fun k g a b ->
            let va = get a and vb = get b in
            let out = ref 0 in
            for v1 = 0 to 1 do
              for v2 = 0 to 1 do
                if (g lsr ((2 * v1) + v2)) land 1 = 1 then
                  out :=
                    !out
                    lor ((if v1 = 1 then va else lnot va)
                        land if v2 = 1 then vb else lnot vb)
              done
            done;
            Hashtbl.replace signals k (!out land mask)))
    (String.split_on_char ';' text);
  let steps = Hashtbl.length signals - n in
  match !output with
  | Some f -> (f, steps)
  | None -> failwith "chain has no output"

(* {2 Service responses} *)

type response = {
  status : string;
  source : string;
  elapsed_s : float;
}

(* One response to request [id] for the [n]-input member [hex] of a
   class whose optimum is [reference]. Returns the parsed response and
   the failures found. Timeouts and upper bounds are not failures; an
   upper bound below the optimum is. *)
let response ~id ~n ~hex ~reference line =
  let module J = Stp_telemetry.Json in
  match J.of_string line with
  | Error e -> ({ status = "error"; source = ""; elapsed_s = 0.0 }, [ "bad JSON: " ^ e ])
  | Ok json ->
    let str k = match J.member k json with Some (J.String s) -> s | _ -> "" in
    let r =
      { status = str "status";
        source = str "source";
        elapsed_s =
          Option.value ~default:0.0
            (Option.bind (J.member "elapsed_s" json) J.to_float_opt) }
    in
    let fails = ref [] in
    let fail fmt = Printf.ksprintf (fun s -> fails := s :: !fails) fmt in
    (match J.member "id" json with
     | Some (J.Int i) when i = id -> ()
     | _ -> fail "response out of order: expected id %d in %s" id line);
    let target = int_of_string ("0x" ^ hex) in
    let chains () =
      match J.member "chains" json with
      | Some (J.List (_ :: _ as cs)) ->
        List.map (function J.String s -> s | _ -> "") cs
      | _ ->
        fail "request %d: %s answer without chains" id r.status;
        []
    in
    let gates =
      match J.member "gates" json with Some (J.Int g) -> g | _ -> -1
    in
    let check_chain text =
      match simulate_compact ~n text with
      | f, steps ->
        if f <> target then fail "request %d: chain %S does not compute %s" id text hex;
        if steps <> gates then fail "request %d: chain %S is not %d gates" id text gates
      | exception (Failure _ | Scanf.Scan_failure _ | End_of_file | Invalid_argument _) ->
        fail "request %d: unreadable chain %S" id text
    in
    (match r.status with
     | "solved" -> (
       List.iter check_chain (chains ());
       match reference with
       | Some opt when opt <> gates ->
         fail "request %d: solved %s with %d gates, optimum is %d" id hex gates opt
       | _ -> ())
     | "upper_bound" -> (
       List.iter check_chain (chains ());
       match reference with
       | Some opt when gates < opt ->
         fail "request %d: upper bound %d below the optimum %d" id gates opt
       | _ -> ())
     | "timeout" -> ()
     | other -> fail "request %d: status %S" id other);
    (r, List.rev !fails)

(* {2 Netlists} *)

(* A binary AIGER file (combinational), as outputs over inputs. *)
type aig = { inputs : int; ands : (int * int) array; outputs : int array }

let read_aig path =
  let s = Common.read_file path in
  let nl = String.index s '\n' in
  let m, i, l, o, a =
    Scanf.sscanf (String.sub s 0 nl) "aig %d %d %d %d %d" (fun m i l o a -> (m, i, l, o, a))
  in
  if l <> 0 then failwith "latches in a combinational netlist";
  if m <> i + a then failwith "non-reencoded AIGER header";
  let pos = ref (nl + 1) in
  let outputs =
    Array.init o (fun _ ->
        let e = String.index_from s !pos '\n' in
        let v = int_of_string (String.sub s !pos (e - !pos)) in
        pos := e + 1;
        v)
  in
  let varint () =
    let rec go shift acc =
      let b = Char.code s.[!pos] in
      incr pos;
      let acc = acc lor ((b land 0x7f) lsl shift) in
      if b land 0x80 = 0 then acc else go (shift + 7) acc
    in
    go 0 0
  in
  let ands =
    Array.init a (fun k ->
        let lhs = 2 * (i + k + 1) in
        let d0 = varint () in
        let d1 = varint () in
        let r0 = lhs - d0 in
        (r0, r0 - d1))
  in
  { inputs = i; ands; outputs }

(* Output words of [aig] for 63 patterns per input word. *)
let simulate_aig aig (patterns : int array) =
  let vals = Array.make (1 + aig.inputs + Array.length aig.ands) 0 in
  Array.blit patterns 0 vals 1 aig.inputs;
  let lit l = if l land 1 = 0 then vals.(l lsr 1) else lnot vals.(l lsr 1) in
  Array.iteri (fun k (r0, r1) -> vals.(aig.inputs + k + 1) <- lit r0 land lit r1) aig.ands;
  Array.map lit aig.outputs

let depth aig =
  let level = Array.make (1 + aig.inputs + Array.length aig.ands) 0 in
  Array.iteri
    (fun k (r0, r1) ->
      level.(aig.inputs + k + 1) <- 1 + max level.(r0 lsr 1) level.(r1 lsr 1))
    aig.ands;
  Array.fold_left (fun acc l -> max acc level.(l lsr 1)) 0 aig.outputs

(* Size and depth of a netlist file, as this parser reads it. *)
let shape aig = (Array.length aig.ands, depth aig)

(* Compare two netlist files on [rounds] x 63 random patterns drawn from
   [seed]; returns the failures and the shapes of both files. *)
let netlist ~seed ~rounds a b =
  let x = read_aig a and y = read_aig b in
  let fails =
    if x.inputs <> y.inputs || Array.length x.outputs <> Array.length y.outputs then
      [ "netlist interface changed" ]
    else begin
      let rng = Random.State.make [| seed; 0x5eed |] in
      let word () =
        Random.State.bits rng
        lxor (Random.State.bits rng lsl 30)
        lxor (Random.State.bits rng lsl 60)
      in
      let rec go r =
        if r = rounds then []
        else
          let patterns = Array.init x.inputs (fun _ -> word ()) in
          let ox = simulate_aig x patterns and oy = simulate_aig y patterns in
          let differs = ref (-1) in
          Array.iteri (fun k v -> if !differs < 0 && v <> oy.(k) then differs := k) ox;
          if !differs >= 0 then
            [ Printf.sprintf "netlist output %d differs in simulation round %d" !differs r ]
          else go (r + 1)
      in
      go 0
    end
  in
  (fails, shape x, shape y)
