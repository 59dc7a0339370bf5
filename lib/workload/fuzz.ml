open Su_fstypes
module Fs = Su_fs.Fs
module Fsops = Su_fs.Fsops

type op =
  | Create of string
  | Append of string * int
  | Write of string * int
  | Unlink of string
  | Mkdir of string
  | Rmdir of string
  | Link of { src : string; dst : string }
  | Rename of { src : string; dst : string }
  | Fsync of string
  | Sync

let op_to_string = function
  | Create p -> Printf.sprintf "create %s" p
  | Append (p, n) -> Printf.sprintf "append %s %d" p n
  | Write (p, n) -> Printf.sprintf "write %s %d" p n
  | Unlink p -> Printf.sprintf "unlink %s" p
  | Mkdir p -> Printf.sprintf "mkdir %s" p
  | Rmdir p -> Printf.sprintf "rmdir %s" p
  | Link { src; dst } -> Printf.sprintf "link %s %s" src dst
  | Rename { src; dst } -> Printf.sprintf "rename %s %s" src dst
  | Fsync p -> Printf.sprintf "fsync %s" p
  | Sync -> "sync"

let pp_op ppf o = Format.pp_print_string ppf (op_to_string o)

(* ---------- generation ------------------------------------------------ *)

(* A small fixed namespace: ops draw names from these pools and the
   model decides validity, so any subsequence of a generated list is a
   runnable workload (the shrinker relies on that). Directory paths
   nest, so renames can move whole subtrees. *)
let dir_pool =
  [| "/d0"; "/d1"; "/d2"; "/d0/d3"; "/d1/d4"; "/d0/d3/d5" |]

let file_pool =
  let dirs = [| ""; "/d0"; "/d1"; "/d2"; "/d0/d3"; "/d1/d4" |] in
  Array.concat
    (Array.to_list
       (Array.map (fun d -> [| d ^ "/f0"; d ^ "/f1"; d ^ "/f2" |]) dirs))

let any_pool = Array.append dir_pool file_pool
let size_pool = [| 512; 1024; 2048; 4096 |]

let gen_op rng =
  let file () = Su_util.Rng.pick rng file_pool in
  let dir () = Su_util.Rng.pick rng dir_pool in
  let any () = Su_util.Rng.pick rng any_pool in
  let size () = Su_util.Rng.pick rng size_pool in
  Su_util.Rng.weighted rng
    [
      (3, `Create); (3, `Append); (2, `Write); (2, `Unlink); (3, `Mkdir);
      (2, `Rmdir); (2, `Link); (4, `Rename); (1, `Fsync); (1, `Sync);
    ]
  |> function
  | `Create -> Create (file ())
  | `Append -> Append (file (), size ())
  | `Write -> Write (file (), size ())
  | `Unlink -> Unlink (file ())
  | `Mkdir -> Mkdir (dir ())
  | `Rmdir -> Rmdir (dir ())
  | `Link -> Link { src = file (); dst = file () }
  | `Rename -> Rename { src = any (); dst = any () }
  | `Fsync -> Fsync (file ())
  | `Sync -> Sync

(* ---------- the model ------------------------------------------------- *)

module Model = struct
  (* A pure in-memory mirror of the tree. Files are shared mutable
     records so hard links alias, exactly like inodes. *)
  type file = { mutable size : int }
  type node = File of file | Dir of (string, node) Hashtbl.t
  type t = { root : (string, node) Hashtbl.t }

  let create () = { root = Hashtbl.create 16 }

  let components path =
    List.filter (fun c -> c <> "") (String.split_on_char '/' path)

  (* Resolve to the node chain from the root (deepest last); None if
     any component is missing or crosses a file. *)
  let resolve_chain t path =
    let rec walk tbl chain = function
      | [] -> Some (List.rev chain)
      | c :: rest -> (
        match Hashtbl.find_opt tbl c with
        | Some (Dir sub as n) -> walk sub (n :: chain) rest
        | Some (File _ as n) -> if rest = [] then Some (List.rev (n :: chain)) else None
        | None -> None)
    in
    walk t.root [] (components path)

  let resolve t path =
    match resolve_chain t path with
    | Some [] -> Some (Dir t.root)
    | Some chain -> Some (List.nth chain (List.length chain - 1))
    | None -> None

  (* Parent table + leaf name; None when the parent is missing, not a
     directory, or the path is the root. *)
  let resolve_parent t path =
    match List.rev (components path) with
    | [] -> None
    | name :: rev_parent -> (
      let parent_path = String.concat "/" (List.rev rev_parent) in
      match resolve t ("/" ^ parent_path) with
      | Some (Dir tbl) -> Some (tbl, name)
      | Some (File _) | None -> None)

  (* Mirrors of the Fsops validity rules: [apply] returns [false] and
     leaves the model untouched exactly when Fsops would raise (or,
     for a rename onto the same file, do nothing). *)
  let rec apply t op =
    match op with
    | Create p -> (
      match resolve_parent t p with
      | Some (tbl, name) when not (Hashtbl.mem tbl name) ->
        Hashtbl.replace tbl name (File { size = 0 });
        true
      | _ -> false)
    | Append (p, n) -> (
      match resolve t p with
      | Some (File f) ->
        f.size <- f.size + n;
        true
      | _ -> false)
    | Write (p, n) -> (
      match resolve t p with
      | Some (File f) ->
        f.size <- n;
        true
      | _ -> false)
    | Unlink p -> (
      match resolve_parent t p with
      | Some (tbl, name) -> (
        match Hashtbl.find_opt tbl name with
        | Some (File _) ->
          Hashtbl.remove tbl name;
          true
        | _ -> false)
      | None -> false)
    | Mkdir p -> (
      match resolve_parent t p with
      | Some (tbl, name) when not (Hashtbl.mem tbl name) ->
        Hashtbl.replace tbl name (Dir (Hashtbl.create 8));
        true
      | _ -> false)
    | Rmdir p -> (
      match resolve_parent t p with
      | Some (tbl, name) -> (
        match Hashtbl.find_opt tbl name with
        | Some (Dir sub) when Hashtbl.length sub = 0 ->
          Hashtbl.remove tbl name;
          true
        | _ -> false)
      | None -> false)
    | Link { src; dst } -> (
      match (resolve t src, resolve_parent t dst) with
      | Some (File f), Some (tbl, name) when not (Hashtbl.mem tbl name) ->
        Hashtbl.replace tbl name (File f);
        true
      | _ -> false)
    | Rename { src; dst } -> rename t ~src ~dst
    | Fsync p -> ( match resolve t p with Some _ -> true | None -> false)
    | Sync -> true

  and rename t ~src ~dst =
    match (resolve_parent t src, resolve_parent t dst) with
    | Some (stbl, sname), Some (dtbl, dname) -> (
      match Hashtbl.find_opt stbl sname with
      | None -> false
      | Some (File f) -> (
        match Hashtbl.find_opt dtbl dname with
        | Some (File g) when g == f -> true (* POSIX: same file, no-op *)
        | Some (Dir _) -> false
        | Some (File _) | None ->
          Hashtbl.replace dtbl dname (File f);
          if not (dtbl == stbl && dname = sname) then Hashtbl.remove stbl sname;
          true)
      | Some (Dir _ as snode) -> (
        (* the destination may not lie inside the directory moving
           (mirrors is_self_or_ancestor: the chain to dst's parent
           must not pass through src) *)
        let dst_parent_path =
          match List.rev (components dst) with
          | _ :: rev_parent -> "/" ^ String.concat "/" (List.rev rev_parent)
          | [] -> "/"
        in
        let inside =
          match resolve_chain t dst_parent_path with
          | Some chain -> List.exists (fun n -> n == snode) chain
          | None -> false
        in
        if inside then false
        else
          match Hashtbl.find_opt dtbl dname with
          | Some existing when existing == snode -> true (* no-op *)
          | Some (Dir d) when Hashtbl.length d = 0 ->
            Hashtbl.replace dtbl dname snode;
            Hashtbl.remove stbl sname;
            true
          | Some _ -> false
          | None ->
            Hashtbl.replace dtbl dname snode;
            if not (dtbl == stbl && dname = sname) then
              Hashtbl.remove stbl sname;
            true))
    | _ -> false

  (* The expected final tree, flattened for the oracle: directories as
     (path, child names, subdir count), files grouped by identity so
     hard links can be checked to share an inode. *)
  let flatten t =
    let dirs = ref [] in
    let files = ref [] in (* (file record, paths) grouped by identity *)
    let note_file f path =
      match List.find_opt (fun (g, _) -> g == f) !files with
      | Some (_, paths) -> paths := path :: !paths
      | None -> files := (f, ref [ path ]) :: !files
    in
    let rec walk path tbl =
      let names = Hashtbl.fold (fun k _ acc -> k :: acc) tbl [] in
      let subdirs =
        Hashtbl.fold
          (fun _ n acc -> match n with Dir _ -> acc + 1 | File _ -> acc)
          tbl 0
      in
      dirs := (path, List.sort compare names, subdirs) :: !dirs;
      Hashtbl.iter
        (fun name n ->
          let child = (if path = "/" then "" else path) ^ "/" ^ name in
          match n with
          | Dir sub -> walk child sub
          | File f -> note_file f child)
        tbl
    in
    walk "/" t.root;
    ( List.rev !dirs,
      List.map (fun (f, paths) -> (f.size, List.sort compare !paths)) !files )
end

(* Model-guided generation: candidates are drawn until one is valid
   in sequence (bounded retries), so a seed denotes a dense workload
   rather than a pile of skipped ops. Drawn from substream 0 of the
   seed: adding other randomness consumers later (fault placement,
   shrink order) must not change what a seed denotes. *)
let gen ~seed ~ops =
  let rng = Su_util.Rng.substream (Su_util.Rng.create seed) 0 in
  let m = Model.create () in
  List.init ops (fun _ ->
      let rec draw tries =
        let op = gen_op rng in
        if Model.apply m op then op
        else if tries >= 20 then op (* skipped at run time; harmless *)
        else draw (tries + 1)
      in
      draw 0)

(* ---------- running ops against the real file system ------------------ *)

(* Only the model-valid subsequence touches the file system: the
   model is replayed alongside and invalid ops are skipped in both,
   so model and image agree at the end and any subsequence of an op
   list is runnable (shrinking). A final sync makes the run a clean
   shutdown. *)
let run_ops st ops =
  let m = Model.create () in
  List.iter
    (fun op ->
      if Model.apply m op then
        match op with
        | Create p -> Fsops.create st p
        | Append (p, n) -> Fsops.append st p ~bytes:n
        | Write (p, n) -> Fsops.write_file st p ~bytes:n
        | Unlink p -> Fsops.unlink st p
        | Mkdir p -> Fsops.mkdir st p
        | Rmdir p -> Fsops.rmdir st p
        | Link { src; dst } -> Fsops.link st ~src ~dst
        | Rename { src; dst } -> Fsops.rename st ~src ~dst
        | Fsync p -> Fsops.fsync st p
        | Sync -> Fsops.sync st)
    ops;
  Fsops.sync st

let model_of_ops ops =
  let m = Model.create () in
  List.iter (fun op -> ignore (Model.apply m op)) ops;
  m

let workload_of_ops ~name ops =
  { Su_check.Explorer.wl_name = name; wl_run = (fun st -> run_ops st ops) }

(* Deterministic op-list editions of the explorer's built-in
   workloads. Campaigns that need both a runnable workload and the
   model oracle over the same behavior (the corruption sweep) start
   from these: [workload_of_ops] gives the run, [check_final_image]
   the oracle, over one op list. *)
let builtin_cases =
  let smallfiles =
    let body =
      List.concat
        (List.init 12 (fun i ->
             let p = Printf.sprintf "/sf/f%d" (i + 1) in
             let ops = [ Create p; Append (p, 1024 * (1 + (i mod 5))) ] in
             if i mod 3 = 2 then ops @ [ Unlink p ] else ops))
    in
    (Mkdir "/sf" :: body) @ [ Sync ]
  in
  let dirtree =
    (Mkdir "/t"
     :: List.concat
          (List.init 5 (fun i ->
               let d = Printf.sprintf "/t/d%d" (i + 1) in
               [
                 Mkdir d;
                 Create (d ^ "/a");
                 Append (d ^ "/a", 2048);
                 Rename { src = d ^ "/a"; dst = d ^ "/b" };
               ]
               @
               if (i + 1) mod 2 = 0 then [ Unlink (d ^ "/b"); Rmdir d ]
               else [])))
    @ [ Link { src = "/t/d1/b"; dst = "/t/hard" }; Sync ]
  in
  let renamefile =
    [
      Mkdir "/ra";
      Mkdir "/rb";
      Create "/ra/f";
      Append ("/ra/f", 3072);
      Rename { src = "/ra/f"; dst = "/rb/g" };
      Rename { src = "/rb/g"; dst = "/rb/h" };
      Sync;
    ]
  in
  let renamedir =
    [
      Mkdir "/ra";
      Mkdir "/rb";
      Mkdir "/ra/d";
      Create "/ra/d/f";
      Append ("/ra/d/f", 2048);
      Rename { src = "/ra/d"; dst = "/rb/e" };
      Rename { src = "/rb/e"; dst = "/ra/d2" };
      Sync;
    ]
  in
  [
    ("smallfiles", smallfiles);
    ("dirtree", dirtree);
    ("renamefile", renamefile);
    ("renamedir", renamedir);
  ]

let find_case name = List.assoc_opt name builtin_cases

(* ---------- the oracle ------------------------------------------------ *)

(* Mount the final (recovered) image and walk the model against it:
   every directory must list exactly the model's names with the right
   link count, every file must have the right size, and hard links
   must share an inode. Returns mismatch descriptions; [] = agree. *)
let check_final_image ~cfg image ops =
  let m = model_of_ops ops in
  let dirs, files = Model.flatten m in
  let mismatches = ref [] in
  let bad fmt = Printf.ksprintf (fun s -> mismatches := s :: !mismatches) fmt in
  (try
     let w = Su_fs.Fs.mount_image cfg image in
     let walk w =
       List.iter
         (fun (path, names, subdirs) ->
           match Fsops.readdir w.Su_fs.Fs.st path with
           | listed ->
             let listed =
               List.sort compare
                 (List.filter (fun n -> n <> "." && n <> "..") listed)
             in
             if listed <> names then
               bad "dir %s: on disk [%s], model [%s]" path
                 (String.concat " " listed)
                 (String.concat " " names);
             let st_ = Fsops.stat w.Su_fs.Fs.st path in
             let want = 2 + subdirs in
             if st_.Fsops.st_nlink <> want then
               bad "dir %s: nlink %d, model %d" path st_.Fsops.st_nlink want
           | exception e ->
             bad "dir %s: %s" path (Printexc.to_string e))
         dirs;
       List.iter
         (fun (size, paths) ->
           let stats =
             List.filter_map
               (fun p ->
                 match Fsops.stat w.Su_fs.Fs.st p with
                 | s -> Some (p, s)
                 | exception e ->
                   bad "file %s: %s" p (Printexc.to_string e);
                   None)
               paths
           in
           List.iter
             (fun (p, (s : Fsops.file_stat)) ->
               if s.Fsops.st_ftype <> Types.F_reg then
                 bad "file %s: not a regular file" p;
               if s.Fsops.st_size <> size then
                 bad "file %s: size %d, model %d" p s.Fsops.st_size size;
               if s.Fsops.st_nlink <> List.length paths then
                 bad "file %s: nlink %d, model %d" p s.Fsops.st_nlink
                   (List.length paths))
             stats;
           match stats with
           | (_, first) :: rest ->
             List.iter
               (fun (p, (s : Fsops.file_stat)) ->
                 if s.Fsops.st_inum <> first.Fsops.st_inum then
                   bad "file %s: inum %d, expected the link group's %d" p
                     s.Fsops.st_inum first.Fsops.st_inum)
               rest
           | [] -> ())
         files
     in
     Option.iter
       (fun e -> bad "mount: %s" (Printexc.to_string e))
       (Su_check.Explorer.run w walk)
   with e -> bad "mount: %s" (Printexc.to_string e));
  List.rev !mismatches

(* ---------- one fuzz case --------------------------------------------- *)

type case_result = {
  cr_summary : Su_check.Explorer.summary;
  cr_mismatches : string list;  (** final recovered image vs the model *)
}

let run_case ?(nested = true) ?torn ?jobs ?max_boundaries
    ?nested_max_boundaries ~cfg ~name ops =
  let wl = workload_of_ops ~name ops in
  let recording = Su_check.Explorer.record ~cfg wl in
  let summary =
    Su_check.Explorer.sweep ?torn ?jobs ?max_boundaries ~nested
      ?nested_max_boundaries ~recording ~cfg wl
  in
  let n = Array.length recording.Su_check.Explorer.rec_deltas in
  let cur =
    Su_check.Delta.cursor
      ~initial:recording.Su_check.Explorer.rec_initial
      ~log:recording.Su_check.Explorer.rec_deltas
  in
  let final = Su_check.Explorer.materialize cur (n, None) in
  Su_fs.Fs.recover_image cfg final;
  let mismatches = check_final_image ~cfg final ops in
  { cr_summary = summary; cr_mismatches = mismatches }

(* A fuzz case passes if its sweep keeps the scheme's promise and the
   fault-free run matches the model exactly. *)
let failure r =
  let module E = Su_check.Explorer in
  let level = E.level r.cr_summary in
  if not (E.keeps r.cr_summary.E.s_scheme level) then
    Some
      (if level = E.Repairable then "crash state violated (repairable)"
       else "crash state unrepairable")
  else Option.map (( ^ ) "oracle: ") (List.nth_opt r.cr_mismatches 0)

(* ---------- shrinking ------------------------------------------------- *)

(* Greedy delta-debugging: try dropping chunks (halves downwards),
   then single ops, re-testing with [still_fails]; deterministic, no
   randomness. Any subsequence is runnable because invalid ops are
   skipped identically in model and file system. *)
let shrink ~still_fails ops =
  let drop lst i len = List.filteri (fun j _ -> j < i || j >= i + len) lst in
  let current = ref ops in
  let chunk = ref (max 1 (List.length ops / 2)) in
  while !chunk >= 1 do
    let i = ref 0 in
    while !i < List.length !current do
      let candidate = drop !current !i !chunk in
      if candidate <> [] && still_fails candidate then
        (* keep the cut; the same index now names the next chunk *)
        current := candidate
      else i := !i + !chunk
    done;
    chunk := !chunk / 2
  done;
  !current
