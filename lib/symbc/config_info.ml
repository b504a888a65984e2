(* The "configuration information" input of SymbC: which functions are
   implemented in the FPGA, and which configuration provides which
   function.  Functions not listed anywhere are plain software and are
   always available. *)

type t = {
  fpga_functions : string list;  (* functions that live in the FPGA *)
  configurations : (string * string list) list;
      (* configuration name -> functions present when it is loaded *)
}

let make ~fpga_functions ~configurations =
  List.iter
    (fun (c, fns) ->
      List.iter
        (fun f ->
          if not (List.mem f fpga_functions) then
            invalid_arg
              (Printf.sprintf
                 "Config_info: %s in configuration %s is not an FPGA function"
                 f c))
        fns)
    configurations;
  { fpga_functions; configurations }

let is_fpga_function t f = List.mem f t.fpga_functions

let functions_of t config =
  match List.assoc_opt config t.configurations with
  | Some fns -> fns
  | None -> invalid_arg ("Config_info: unknown configuration " ^ config)

let has_configuration t config = List.mem_assoc config t.configurations

let provides t ~config f = List.mem f (functions_of t config)

let configuration_names t = List.map fst t.configurations
