(* CPU cost model, loosely calibrated to the paper's 33 MHz i486.

   Only relative magnitudes matter for reproducing the paper's shapes:
   a syscall costs hundreds of microseconds, a directory scan costs
   microseconds per entry, block copies cost tens of microseconds per
   kilobyte. All values are in seconds. *)

(** fixed entry/exit + VFS overhead per operation *)
let syscall = 1.2e-3

(** per directory entry scanned *)
let namei_entry = 4e-6

(** insert/remove one entry *)
let dirent_update = 300e-6

(** copy in-core inode to its buffer *)
let inode_update = 150e-6

(** one bitmap search/update *)
let alloc_op = 500e-6

(** memory copy, per 1 KB fragment *)
let copy_per_frag = 60e-6

(** user/cache data move, per 1 KB fragment *)
let data_per_frag = 100e-6
