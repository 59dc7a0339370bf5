open Su_fstypes
module Intf = Su_core.Scheme_intf

exception Enoent of string
exception Eexist of string
exception Enotdir of string
exception Eisdir of string
exception Enotempty of string
exception Einval of string

type file_stat = {
  st_inum : int;
  st_ftype : Types.ftype;
  st_nlink : int;
  st_size : int;
}

let components path =
  List.filter (fun c -> c <> "" && c <> ".") (String.split_on_char '/' path)

let charge_syscall st = State.charge st Costs.syscall

(* One trace event per operation invocation, at entry (composite ops
   like rename also trace the ops they are built from). Accumulation
   only — no simulated time is consumed. *)
let emit_op st op path =
  match st.State.obs with
  | None -> ()
  | Some sink ->
    Su_obs.Events.emit sink
      ~t_sim:(Su_sim.Engine.now st.State.engine)
      ~kind:("fs." ^ op)
      [ ("path", Su_obs.Json.Str path) ]

let as_dir st path (ip : State.incore) =
  ignore st;
  if ip.State.din.Types.ftype <> Types.F_dir then raise (Enotdir path)

(* Walk to the inode named by [path]. Each directory is locked only
   while it is being searched (lookup coupling). *)
let resolve st path =
  let rec walk cur = function
    | [] -> cur
    | name :: rest ->
      let next =
        Inode.with_inode st cur (fun dip ->
            as_dir st path dip;
            Dir.lookup st dip name)
      in
      (match next with
       | Some inum -> walk inum rest
       | None -> raise (Enoent path))
  in
  walk Geom.root_inum (components path)

let resolve_parent st path =
  match List.rev (components path) with
  | [] -> invalid_arg "Fsops: empty path"
  | name :: _ when name = ".." ->
    (* mutating operations may not target ".." *)
    invalid_arg "Fsops: operation on dot-dot"
  | name :: rev_dirs ->
    let parent_path = List.rev rev_dirs in
    let rec walk cur = function
      | [] -> cur
      | n :: rest ->
        let next =
          Inode.with_inode st cur (fun dip ->
              as_dir st path dip;
              Dir.lookup st dip n)
        in
        (match next with
         | Some inum -> walk inum rest
         | None -> raise (Enoent path))
    in
    (walk Geom.root_inum parent_path, name)

(* Link-count decrement, possibly deferred by the scheme (it then
   runs in syncer context). Releases the file when the count drops to
   zero. *)
let dec_link st inum =
  Inode.with_inode st inum (fun ip ->
      let din = ip.State.din in
      if din.Types.ftype = Types.F_free then ()
      else begin
        din.Types.nlink <- din.Types.nlink - 1;
        if din.Types.nlink > 0 then Inode.update st ip
        else File.truncate_release st ip ~free_inode:true
      end)

let attach_inode_reuse_deps st inum =
  match st.State.scheme.Intf.reuse_inode_deps inum with
  | [] -> ()
  | deps ->
    Inode.with_ibuf st inum (fun ibuf -> File.add_wdeps ibuf deps)

let create st path =
  charge_syscall st;
  emit_op st "create" path;
  let parent, name = resolve_parent st path in
  Inode.with_inode st parent (fun dip ->
      as_dir st path dip;
      if Dir.lookup st dip name <> None then raise (Eexist path);
      let cg = Geom.cg_of_inode st.State.geom parent in
      let ip = Inode.allocate st ~ftype:Types.F_reg ~cg_hint:cg ~spread:false in
      Fun.protect
        ~finally:(fun () -> Inode.iput st ip)
        (fun () ->
          attach_inode_reuse_deps st ip.State.inum;
          ip.State.din.Types.nlink <- 1;
          Inode.update st ip;
          Dir.add_entry st dip name ip.State.inum))

let mkdir st path =
  charge_syscall st;
  emit_op st "mkdir" path;
  let parent, name = resolve_parent st path in
  Inode.with_inode st parent (fun dip ->
      as_dir st path dip;
      if Dir.lookup st dip name <> None then raise (Eexist path);
      let ip =
        Inode.allocate st ~ftype:Types.F_dir
          ~cg_hint:(Geom.cg_of_inode st.State.geom parent)
          ~spread:true
      in
      Fun.protect
        ~finally:(fun () -> Inode.iput st ip)
        (fun () ->
          attach_inode_reuse_deps st ip.State.inum;
          ip.State.din.Types.nlink <- 2 (* "." and the parent entry *);
          Inode.update st ip;
          dip.State.din.Types.nlink <- dip.State.din.Types.nlink + 1 (* ".." *);
          Inode.update st dip;
          (* first directory block, seeded with "." and ".." before the
             ordering scheme sees its initialising write. "." gets no
             link_add hook — the block is initialisation-ordered before
             the inode pointer, and the parent entry below (which does
             carry the dependency) keeps the directory unreachable
             until the new inode is durable. ".." keeps the hook: it
             orders the parent's inode, with its incremented link
             count, ahead of the ".." entry (BSD's MKDIR_PARENT). *)
          let buf, commit = File.grow_dir_block st ip in
          Fun.protect
            ~finally:(fun () -> Su_cache.Bcache.release st.State.cache buf)
            (fun () ->
              Dir.insert_prepared ~link_dep:false st ~dir:buf ~slot:0 "."
                ip.State.inum;
              Dir.insert_prepared st ~dir:buf ~slot:1 ".." parent;
              (* entries making the new directory reachable must wait
                 for this block, dots in full form (MKDIR_BODY) *)
              st.State.scheme.Intf.mkdir_body ~body:buf ~inum:ip.State.inum;
              commit ());
          Dir.add_entry st dip name ip.State.inum))

let append st path ~bytes =
  charge_syscall st;
  emit_op st "append" path;
  let inum = resolve st path in
  Inode.with_inode st inum (fun ip ->
      if ip.State.din.Types.ftype = Types.F_dir then raise (Eisdir path);
      File.append st ip ~bytes)

let write_file st path ~bytes =
  charge_syscall st;
  emit_op st "write" path;
  let inum = resolve st path in
  Inode.with_inode st inum (fun ip ->
      if ip.State.din.Types.ftype = Types.F_dir then raise (Eisdir path);
      if ip.State.din.Types.size > 0 then
        File.truncate_release st ip ~free_inode:false;
      File.append st ip ~bytes)

let read_file st path =
  charge_syscall st;
  emit_op st "read" path;
  let inum = resolve st path in
  Inode.with_inode st inum (fun ip -> File.read_all st ip)

let unlink st path =
  charge_syscall st;
  emit_op st "unlink" path;
  let parent, name = resolve_parent st path in
  let found =
    Inode.with_inode st parent (fun dip ->
        as_dir st path dip;
        (match Dir.lookup st dip name with
         | Some inum ->
           Inode.with_inode st inum (fun ip ->
               if ip.State.din.Types.ftype = Types.F_dir then raise (Eisdir path))
         | None -> raise (Enoent path));
        Dir.remove_entry st dip name ~decrement:(fun inum -> dec_link st inum))
  in
  if not found then raise (Enoent path)

let rmdir st path =
  charge_syscall st;
  emit_op st "rmdir" path;
  let parent, name = resolve_parent st path in
  Inode.with_inode st parent (fun dip ->
      as_dir st path dip;
      let inum =
        match Dir.lookup st dip name with
        | Some i -> i
        | None -> raise (Enoent path)
      in
      Inode.with_inode st inum (fun ip ->
          as_dir st path ip;
          if not (Dir.is_empty st ip) then raise (Enotempty path));
      (* the parent's entry removal is the single ordering point (BSD's
         RMDIR dirrem): its deferred decrement carries all three drops —
         the parent's lost "..", the entry itself and the child's "." —
         so nothing is freed before the name is off the disk. The
         child's own block is never rewritten: removing its dots
         in place could reach the disk before the parent's write and
         expose a reachable directory without "." or ".."; the dots
         simply remain in the freed block, where nothing references
         them, and reuse rewrites the block under the allocation
         ordering *)
      ignore
        (Dir.remove_entry st dip name ~decrement:(fun i ->
             dec_link st parent;
             dec_link st i;
             (* the child's "." last: this drop releases the inode *)
             dec_link st i)))

let link st ~src ~dst =
  charge_syscall st;
  emit_op st "link" dst;
  let src_inum = resolve st src in
  let parent, name = resolve_parent st dst in
  Inode.with_inode st parent (fun dip ->
      as_dir st dst dip;
      if Dir.lookup st dip name <> None then raise (Eexist dst);
      Inode.with_inode st src_inum (fun ip ->
          if ip.State.din.Types.ftype = Types.F_dir then raise (Eisdir src);
          ip.State.din.Types.nlink <- ip.State.din.Types.nlink + 1;
          Inode.update st ip);
      Dir.add_entry st dip name src_inum)

(* Is [anc] equal to [inum] or an ancestor of it? Walks the ".."
   chain; a rename may not move a directory under itself. *)
let is_self_or_ancestor st anc inum =
  let rec walk i =
    if i = anc then true
    else if i = Geom.root_inum then false
    else
      match Inode.with_inode st i (fun dip -> Dir.lookup st dip "..") with
      | Some p when p <> i -> walk p
      | Some _ | None -> false
  in
  walk inum

(* Directory rename. The choreography keeps every write boundary
   consistent (no link count ever below its reference count, ".."
   never absent):
   1. raise the child's count — it is about to be named twice;
   2. cross-directory only: raise the new parent's count (it gains the
      child's ".."), then add the new name (ordered behind the child's
      raised inode) and re-point ".." in place (ordered behind the new
      parent's raised inode; the old parent's drop waits for the
      rewritten entry);
   3. remove the old name, deferring the child's compensating drop. *)
let rename_dir st ~src ~dst ~inum =
  let src_parent, src_name = resolve_parent st src in
  let dst_parent, dst_name = resolve_parent st dst in
  if is_self_or_ancestor st inum dst_parent then raise (Einval dst);
  if src_parent = dst_parent then
    Inode.with_inode st src_parent (fun dip ->
        as_dir st dst dip;
        if Dir.lookup st dip dst_name <> None then raise (Eexist dst);
        Inode.with_inode st inum (fun ip ->
            ip.State.din.Types.nlink <- ip.State.din.Types.nlink + 1;
            Inode.update st ip);
        Dir.add_entry st dip dst_name inum;
        ignore
          (Dir.remove_entry st dip src_name ~decrement:(fun i -> dec_link st i)))
  else begin
    Inode.with_inode st inum (fun ip ->
        ip.State.din.Types.nlink <- ip.State.din.Types.nlink + 1;
        Inode.update st ip);
    Inode.with_inode st dst_parent (fun dip ->
        as_dir st dst dip;
        if Dir.lookup st dip dst_name <> None then raise (Eexist dst);
        dip.State.din.Types.nlink <- dip.State.din.Types.nlink + 1;
        Inode.update st dip;
        Dir.add_entry st dip dst_name inum);
    Inode.with_inode st inum (fun ip ->
        ignore
          (Dir.change_entry st ip ".." dst_parent
             ~decrement:(fun old_parent -> dec_link st old_parent)));
    Inode.with_inode st src_parent (fun dip ->
        ignore
          (Dir.remove_entry st dip src_name ~decrement:(fun i -> dec_link st i)))
  end

let rename st ~src ~dst =
  charge_syscall st;
  emit_op st "rename" dst;
  let src_inum = resolve st src in
  let src_is_dir =
    Inode.with_inode st src_inum (fun ip ->
        ip.State.din.Types.ftype = Types.F_dir)
  in
  if not src_is_dir then begin
    (* rule 1: create the new name before destroying the old one *)
    let dst_inum = try Some (resolve st dst) with Enoent _ -> None in
    match dst_inum with
    | Some d when d = src_inum ->
      (* both names are links to the same file: POSIX says do
         nothing (unlinking [dst] first would eat the file when the
         paths coincide) *)
      ()
    | Some _ ->
      unlink st dst;
      link st ~src ~dst;
      unlink st src
    | None ->
      link st ~src ~dst;
      unlink st src
  end
  else begin
    (* an existing destination must be an empty directory; it makes
       way first (not atomically — the window where neither name
       resolves is crash-equivalent to rmdir; rename) *)
    match resolve st dst with
    | dst_inum when dst_inum = src_inum -> ()
    | (_ : int) ->
      let empty =
        Inode.with_inode st (resolve st dst) (fun ip ->
            as_dir st dst ip;
            Dir.is_empty st ip)
      in
      if not empty then raise (Enotempty dst);
      rmdir st dst;
      rename_dir st ~src ~dst ~inum:src_inum
    | exception Enoent _ -> rename_dir st ~src ~dst ~inum:src_inum
  end

let stat st path =
  charge_syscall st;
  let inum = resolve st path in
  Inode.with_inode st inum (fun ip ->
      {
        st_inum = inum;
        st_ftype = ip.State.din.Types.ftype;
        st_nlink = ip.State.din.Types.nlink;
        st_size = ip.State.din.Types.size;
      })

let exists st path =
  match resolve st path with
  | (_ : int) -> true
  | exception (Enoent _ | Enotdir _) -> false

let readdir st path =
  charge_syscall st;
  let inum = resolve st path in
  Inode.with_inode st inum (fun ip ->
      as_dir st path ip;
      Dir.list_names st ip)

let fsync st path =
  charge_syscall st;
  emit_op st "fsync" path;
  let inum = resolve st path in
  Inode.with_inode st inum (fun ip ->
      ignore ip;
      Inode.with_ibuf st inum (fun ibuf ->
          st.State.scheme.Intf.fsync ~inum ~ibuf))

let sync st =
  emit_op st "sync" "/";
  Su_cache.Bcache.sync_all st.State.cache

(* Typed fault-tolerance boundary. The wrappers below shadow the raw
   operations: a definitive device failure that escapes the cache
   surfaces as [Eio] (never a bare [Bcache.Io_error]), and once the
   health monitor has flipped the volume read-only every mutating
   operation refuses up front with [Erofs] instead of risking further
   damage. Composite operations (rename) call the raw versions
   internally, so the guard runs once per syscall. *)

exception Eio of string
exception Erofs of string

let () =
  Printexc.register_printer (function
    | Eio msg -> Some ("Fsops.Eio: " ^ msg)
    | Erofs msg -> Some ("Fsops.Erofs: read-only file system: " ^ msg)
    | _ -> None)

let io_guard path f =
  try f ()
  with Su_cache.Bcache.Io_error e ->
    raise (Eio (path ^ ": " ^ Su_disk.Fault.error_to_string e))

let rw_guard st path f =
  if Health.readonly st.State.health then raise (Erofs path);
  io_guard path f

let create st path = rw_guard st path (fun () -> create st path)
let mkdir st path = rw_guard st path (fun () -> mkdir st path)
let append st path ~bytes = rw_guard st path (fun () -> append st path ~bytes)

let write_file st path ~bytes =
  rw_guard st path (fun () -> write_file st path ~bytes)

let unlink st path = rw_guard st path (fun () -> unlink st path)
let rmdir st path = rw_guard st path (fun () -> rmdir st path)
let link st ~src ~dst = rw_guard st dst (fun () -> link st ~src ~dst)
let rename st ~src ~dst = rw_guard st dst (fun () -> rename st ~src ~dst)
let read_file st path = io_guard path (fun () -> read_file st path)
let stat st path = io_guard path (fun () -> stat st path)
let exists st path = io_guard path (fun () -> exists st path)
let readdir st path = io_guard path (fun () -> readdir st path)
let resolve st path = io_guard path (fun () -> resolve st path)

(* flushing what is already dirty is allowed even read-only: it cannot
   make matters worse and lets the volume quiesce *)
let fsync st path = io_guard path (fun () -> fsync st path)
let sync st = io_guard "/" (fun () -> sync st)
