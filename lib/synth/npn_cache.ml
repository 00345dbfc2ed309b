module Tt = Stp_tt.Tt
module Npn = Stp_tt.Npn
module Chain = Stp_chain.Chain
module Deadline = Stp_util.Deadline

type solver = Engine.spec -> deadline:Stp_util.Deadline.t -> Engine.result

type stats = {
  hits : int;
  misses : int;
  bypassed : int;
  failures : int;
  known_timeouts : int;
}

type entry = {
  gates : int;
  chains : Chain.t list; (* over the canonical function's variable space *)
}

type t = {
  lock : Mutex.t;
  table : (Tt.t, entry) Hashtbl.t;
  timed_out : (Tt.t, float) Hashtbl.t;
      (* canonical class -> the largest budget it timed out under *)
  max_support : int;
  mutable hits : int;
  mutable misses : int;
  mutable bypassed : int;
  mutable failures : int;
  mutable known_timeouts : int;
}

let create ?(max_support = Npn.max_arity) () =
  { lock = Mutex.create ();
    table = Hashtbl.create 997;
    timed_out = Hashtbl.create 97;
    max_support = min max_support Npn.max_arity;
    hits = 0;
    misses = 0;
    bypassed = 0;
    failures = 0;
    known_timeouts = 0 }

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let stats t =
  locked t (fun () ->
      { hits = t.hits;
        misses = t.misses;
        bypassed = t.bypassed;
        failures = t.failures;
        known_timeouts = t.known_timeouts })

let classes t = locked t (fun () -> Hashtbl.length t.table)

let hit_rate t =
  let s = stats t in
  let looked_up = s.hits + s.misses in
  if looked_up = 0 then 0.0 else float_of_int s.hits /. float_of_int looked_up

let lookup t canon = locked t (fun () -> Hashtbl.find_opt t.table canon)

let store t canon entry =
  locked t (fun () ->
      Hashtbl.remove t.timed_out canon;
      if not (Hashtbl.mem t.table canon) then Hashtbl.replace t.table canon entry)

(* A class that timed out under budget [b] is not solved again for a
   budget [<= b]: such a miss counts as a known timeout and is skipped,
   any other counts as a miss and is solved. [Deadline.never] (an
   infinite budget) is never skipped, since only finite budgets are
   recorded. *)
let skip_known_timeout t canon budget =
  locked t (fun () ->
      match Hashtbl.find_opt t.timed_out canon with
      | Some b when b >= budget ->
        t.known_timeouts <- t.known_timeouts + 1;
        true
      | _ ->
        t.misses <- t.misses + 1;
        false)

let record_timeout t canon budget =
  if Float.is_finite budget then
    locked t (fun () ->
        let b =
          match Hashtbl.find_opt t.timed_out canon with
          | Some b -> Float.max b budget
          | None -> budget
        in
        Hashtbl.replace t.timed_out canon b)

let cached t f =
  (* Mirrors [wrap_solver]'s lookup path without touching the stats:
     would this target be answered by a replay right now? *)
  if Tt.is_const f then false
  else
    match Common.prepare f with
    | `Trivial _ -> false
    | `Reduced (target, _) ->
      Tt.num_vars target <= t.max_support
      &&
      let canon, _ = Npn.canonical target in
      locked t (fun () -> Hashtbl.mem t.table canon)

let entries t =
  locked t (fun () ->
      Hashtbl.fold (fun canon entry acc -> (canon, entry) :: acc) t.table [])

let add_entry t canon entry =
  (* Entries arriving from outside the solving path (a persisted store)
     are sanitised rather than trusted: only chains that simulate to
     the key survive, sizes must agree, and the key must really be a
     cacheable canonical representative. A corrupt or stale record can
     therefore never poison replays — it is simply dropped. *)
  if Tt.num_vars canon > t.max_support || not (Npn.is_canonical canon) then
    false
  else
    let chains =
      List.filter
        (fun c ->
          c.Chain.n = Tt.num_vars canon
          && Chain.size c = entry.gates
          && Tt.equal (Chain.simulate c) canon)
        entry.chains
    in
    match chains with
    | [] -> false
    | chains ->
      locked t (fun () ->
          if Hashtbl.mem t.table canon then false
          else begin
            Hashtbl.replace t.table canon { entry with chains };
            true
          end)

(* Map the cached optimum chains of the class representative back onto
   the concrete target: [tr] satisfies [Npn.apply target tr = canon], so
   replaying [Npn.inverse tr] onto a chain computing [canon] yields a
   chain of identical size computing [target] (input negations and the
   output negation fold into gate codes, the permutation relabels
   fanins). Cached chains were verified against the canonical target
   once, when the entry was stored; each replay only re-simulates the
   transformed chain (a cheap bit-parallel check) instead of re-running
   the full dedup + circuit-SAT verification per class member. *)
let replay ~n ~support ~target ~tr entry =
  let inv = Npn.inverse tr in
  let replayed =
    List.filter_map
      (fun c ->
        let c = Chain.apply_npn c inv in
        if Tt.equal (Chain.simulate c) target then
          Some (Common.expand_chain ~n ~support c)
        else None)
      entry.chains
  in
  match replayed with [] -> None | chains -> Some chains

let wrap_solver t (solve : solver) : solver =
 fun spec ~deadline ->
  let f = spec.Engine.target in
  if Tt.is_const f then solve spec ~deadline
  else
    match Common.prepare f with
    | `Trivial chain -> Engine.Solved [ chain ]
    | `Reduced (target, support) ->
      if Tt.num_vars target > t.max_support then begin
        (* Exhaustive canonicalisation is impractical this wide; solve
           directly. *)
        locked t (fun () -> t.bypassed <- t.bypassed + 1);
        solve spec ~deadline
      end
      else begin
        let n = Tt.num_vars f in
        let canon, tr = Npn.canonical target in
        match lookup t canon with
        | Some entry -> (
          locked t (fun () -> t.hits <- t.hits + 1);
          match replay ~n ~support ~target ~tr entry with
          | Some chains -> Engine.Solved chains
          | None ->
            (* A cached chain failing replay would be a bug in the
               transform algebra; never let it corrupt results — fall
               back to a direct solve and record the event. *)
            locked t (fun () -> t.failures <- t.failures + 1);
            solve spec ~deadline)
        | None when skip_known_timeout t canon (Deadline.budget deadline) ->
          Engine.Timeout
        | None -> (
          (* Solve the class representative so the cached entry serves
             every member of the class, then replay onto this member. *)
          match solve { spec with Engine.target = canon } ~deadline with
          | Engine.Timeout ->
            record_timeout t canon (Deadline.budget deadline);
            Engine.Timeout
          | Engine.Infeasible -> Engine.Infeasible
          | Engine.Solved chains -> (
            (* The paper's step (iv), run once per class: dedup and
               verify against the canonical target before storing. *)
            match Common.optimal_and_verified canon chains with
            | [] ->
              locked t (fun () -> t.failures <- t.failures + 1);
              solve spec ~deadline
            | verified -> (
              let entry =
                { gates = Chain.size (List.hd verified); chains = verified }
              in
              store t canon entry;
              match replay ~n ~support ~target ~tr entry with
              | Some chains -> Engine.Solved chains
              | None ->
                locked t (fun () -> t.failures <- t.failures + 1);
                solve spec ~deadline)))
      end

let wrap t (module E : Engine.S) : (module Engine.S) =
  (module struct
    let name = E.name

    let synthesize spec ~deadline = wrap_solver t E.synthesize spec ~deadline
  end)
