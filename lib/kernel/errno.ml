(** Errno values, returned from system calls as negative numbers in
    rax, following the Linux x86-64 kernel ABI. *)

let eperm = 1
let enoent = 2
let esrch = 3
let eintr = 4
let eio = 5
let ebadf = 9
let echild = 10
let eagain = 11
let enomem = 12
let eacces = 13
let efault = 14
let eexist = 17
let enotdir = 20
let eisdir = 21
let einval = 22
let enfile = 23
let emfile = 24
let efbig = 27
let enosys = 38
let enotempty = 39
let eaddrinuse = 98
let econnreset = 104
let econnrefused = 111

(** Kernel-internal "restart this syscall" sentinel (never visible to
    user space): the fault plane's restart channel re-dispatches the
    call instead of completing it, like Linux's ERESTARTSYS. *)
let erestartsys = 512

(** Encode an error as a syscall return value. *)
let ret e = -e

let to_string e =
  match abs e with
  | 1 -> "EPERM"
  | 2 -> "ENOENT"
  | 3 -> "ESRCH"
  | 4 -> "EINTR"
  | 5 -> "EIO"
  | 9 -> "EBADF"
  | 10 -> "ECHILD"
  | 11 -> "EAGAIN"
  | 12 -> "ENOMEM"
  | 13 -> "EACCES"
  | 14 -> "EFAULT"
  | 17 -> "EEXIST"
  | 20 -> "ENOTDIR"
  | 21 -> "EISDIR"
  | 22 -> "EINVAL"
  | 23 -> "ENFILE"
  | 24 -> "EMFILE"
  | 38 -> "ENOSYS"
  | 39 -> "ENOTEMPTY"
  | 98 -> "EADDRINUSE"
  | 104 -> "ECONNRESET"
  | 111 -> "ECONNREFUSED"
  | 512 -> "ERESTARTSYS"
  | n -> Printf.sprintf "E%d" n

(** Reverse lookup: ["EINTR"] -> [Some 4].  Accepts anything
    {!to_string} can produce, including the ["E%d"] fallback spelling;
    returns [None] for strings that are not an errno name. *)
let of_string s =
  match s with
  | "EPERM" -> Some eperm
  | "ENOENT" -> Some enoent
  | "ESRCH" -> Some esrch
  | "EINTR" -> Some eintr
  | "EIO" -> Some eio
  | "EBADF" -> Some ebadf
  | "ECHILD" -> Some echild
  | "EAGAIN" -> Some eagain
  | "ENOMEM" -> Some enomem
  | "EACCES" -> Some eacces
  | "EFAULT" -> Some efault
  | "EEXIST" -> Some eexist
  | "ENOTDIR" -> Some enotdir
  | "EISDIR" -> Some eisdir
  | "EINVAL" -> Some einval
  | "ENFILE" -> Some enfile
  | "EMFILE" -> Some emfile
  | "ENOSYS" -> Some enosys
  | "ENOTEMPTY" -> Some enotempty
  | "EADDRINUSE" -> Some eaddrinuse
  | "ECONNRESET" -> Some econnreset
  | "ECONNREFUSED" -> Some econnrefused
  | "ERESTARTSYS" -> Some erestartsys
  | _ ->
    if String.length s > 1 && s.[0] = 'E' then
      match int_of_string_opt (String.sub s 1 (String.length s - 1)) with
      | Some n when n > 0 -> Some n
      | _ -> None
    else None
