module Tt = Stp_tt.Tt
module Chain = Stp_chain.Chain

let prepare f =
  match Tt.support f with
  | [] -> invalid_arg "synthesis: constant target has no Boolean chain"
  | [ v ] ->
    let n = Tt.num_vars f in
    let negated = Tt.equal f (Tt.bnot (Tt.var n v)) in
    `Trivial (Chain.make ~n ~steps:[] ~output:v ~output_negated:negated ())
  | _ ->
    let g, support = Tt.shrink_to_support f in
    `Reduced (g, support)

let expand_chain ~n ~support chain =
  let sup = Array.of_list support in
  let s = Array.length sup in
  let map signal = if signal < s then sup.(signal) else n + (signal - s) in
  let steps =
    Array.to_list
      (Array.map
         (fun (st : Chain.step) ->
           { Chain.fanin1 = map st.fanin1; fanin2 = map st.fanin2; gate = st.gate })
         chain.Chain.steps)
  in
  Chain.make ~n ~steps ~output:(map chain.Chain.output)
    ~output_negated:chain.Chain.output_negated ()

(* Dedup key: the normalised chain's steps, output and output flag. *)
module Chain_key = Hashtbl.Make (struct
  type t = Chain.t

  let equal = Chain.equal

  let hash (c : Chain.t) =
    Array.fold_left
      (fun h (s : Chain.step) ->
        (h * 65599) + (s.fanin1 lsl 12) + (s.fanin2 lsl 4) + s.gate)
      ((2 * c.Chain.output) + Bool.to_int c.Chain.output_negated)
      c.Chain.steps
end)

let optimal_and_verified ?(deadline = Stp_util.Deadline.never) target chains =
  Stp_util.Profile.time Stp_util.Profile.Verify @@ fun () ->
  let seen = Chain_key.create 97 in
  let session = Stp_circuitsat.Circuit_solver.session ~n:(Tt.num_vars target) in
  List.filter
    (fun c ->
      Stp_util.Deadline.check deadline;
      let key = Chain.normalise_fanin_order c in
      if Chain_key.mem seen key then false
      else begin
        Chain_key.replace seen key ();
        Stp_util.Profile.incr Stp_util.Profile.Chains_verified;
        Tt.equal (Chain.simulate c) target
        && Stp_circuitsat.Circuit_solver.verify session c target
      end)
    chains
