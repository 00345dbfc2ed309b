(* The JSON value type and its printer/parser live in
   Stp_telemetry.Json (telemetry sits below every instrumented layer);
   Report re-exports them so harness callers keep one import. *)

module Json = Stp_telemetry.Json

type json = Json.t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of json list
  | Obj of (string * json) list

let to_string = Json.to_string
let of_string = Json.of_string
let member = Json.member
let to_float_opt = Json.to_float_opt

let profile_json = Stp_telemetry.Telemetry.profile_json

let aggregate_json (a : Runner.aggregate) =
  Obj
    ([ ("engine", String a.Runner.name);
      ("solved", Int a.Runner.solved);
      ("timeouts", Int a.Runner.timeouts);
      ("infeasible", Int a.Runner.infeasible);
      ("mean_time_s", Float a.Runner.mean_time);
      ("total_time_s", Float a.Runner.total_time);
      ("wall_time_s", Float a.Runner.wall_time);
      ("speedup", Float (Runner.speedup a));
      ("mean_solutions", Float a.Runner.mean_solutions);
      ("mean_per_solution_s", Float a.Runner.mean_per_solution);
      ("optima",
       List
         (List.map
            (fun (gates, count) -> List [ Int gates; Int count ])
            a.Runner.optima));
       ("cache_hits", Int a.Runner.cache_hits);
       ("cache_misses", Int a.Runner.cache_misses);
       ("cache_hit_rate", Float (Runner.hit_rate a));
       ("latency", Stp_telemetry.Hist.snapshot_json a.Runner.latency) ]
     @
     match a.Runner.profile with
     | None -> []
     | Some p -> [ ("profile", profile_json p) ])

let rows_json rows =
  List
    (List.map
       (fun (collection, instances, aggs) ->
         Obj
           [ ("collection", String collection);
             ("instances", Int instances);
             ("engines", List (List.map aggregate_json aggs)) ])
       rows)

let write ~path ~meta ~rows =
  let doc = Obj (meta @ [ ("rows", rows_json rows) ]) in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (to_string doc);
      output_char oc '\n')
