(* Primitives available inside a simulation process (i.e. inside a function
   passed to [Kernel.spawn]).  They perform the kernel's effects. *)

let wait d = Effect.perform (Kernel.Wait d)
let suspend register = Effect.perform (Kernel.Suspend register)
let kernel () = Effect.perform Kernel.Get_kernel
let now () = Kernel.now (kernel ())
let halt () = raise Kernel.Halted

let spawn body = Kernel.spawn (kernel ()) body
