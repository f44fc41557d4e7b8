(** CPU register file of one simulated thread.

    The flat array is sized for the widest backend (arm64: x0..x30
    plus sp at index 31); x86 worlds simply never touch indices 16+.
    Both ISAs keep their syscall return register at index 0 (rax / x0),
    which the kernel's [complete_syscall] relies on. *)

let width = 32

type t = {
  gpr : int array;
      (** flat register file: x86 rax..r15 at 0..15 per {!K23_isa.Reg};
          arm64 x0..x30 at 0..30, sp at 31 *)
  mutable rip : int;
  mutable zf : bool;
  mutable sf : bool;
  mutable pkru : int;  (** protection-key rights register (2 bits/key) *)
}

let create () = { gpr = Array.make width 0; rip = 0; zf = false; sf = false; pkru = 0 }

let get t r = t.gpr.(K23_isa.Reg.index r)
let set t r v = t.gpr.(K23_isa.Reg.index r) <- v

(** Raw-index accessors for ISA-generic kernel code (ABI seams). *)
let geti t i = t.gpr.(i)
let seti t i v = t.gpr.(i) <- v

let copy t = { t with gpr = Array.copy t.gpr }

(** Restore [t] from [src] in place (sigreturn, ptrace SETREGS). *)
let restore t ~from =
  Array.blit from.gpr 0 t.gpr 0 width;
  t.rip <- from.rip;
  t.zf <- from.zf;
  t.sf <- from.sf;
  t.pkru <- from.pkru

let pp fmt t =
  let open K23_isa in
  List.iter
    (fun r -> Format.fprintf fmt "%s=%#x " (Reg.to_string r) (get t r))
    Reg.all;
  Format.fprintf fmt "rip=%#x zf=%b sf=%b pkru=%#x" t.rip t.zf t.sf t.pkru
