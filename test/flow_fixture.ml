(* The one cold smoke flow the whole-flow tests share: run once, on a
   two-lane pool with telemetry on, against a fresh scratch verdict
   cache, so every level-4 module runs live and is stored.  The run's
   tracer and metrics are kept: Obs.reset swaps in new ones, so later
   tests cannot disturb them. *)

open Symbad_core
module Obs = Symbad_obs.Obs

type t = {
  report : Flow.t;
  cache : Symbad_cache.Cache.t;
  tracer : Symbad_obs.Tracer.t;
  metrics : Symbad_obs.Metrics.t;
}

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then (
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path)
    else Sys.remove path

let cold =
  lazy
    (let dir =
       Filename.concat
         (Filename.get_temp_dir_name ())
         (Printf.sprintf "symbad_flow_fixture_%d" (Unix.getpid ()))
     in
     rm_rf dir;
     at_exit (fun () -> rm_rf dir);
     let cache = Symbad_cache.Cache.create ~dir () in
     Obs.reset ();
     Obs.set_enabled true;
     let report =
       Fun.protect
         ~finally:(fun () -> Obs.set_enabled false)
         (fun () ->
           Symbad_par.Par.with_pool ~jobs:2 (fun pool ->
               Flow.run ~pool ~cache ~workload:Face_app.smoke_workload ()))
     in
     let fixture =
       { report; cache; tracer = Obs.tracer (); metrics = Obs.metrics () }
     in
     Obs.reset ();
     fixture)
