(* Model-based testing: random operation sequences run both against
   the real file system (under every ordering scheme) and against a
   trivial functional model; afterwards the two must agree and the
   synced image must pass fsck. This catches semantic divergence that
   the targeted tests miss. *)
open Su_sim
open Su_fs
open Su_util

(* --- the model: a map from path to [`Dir | `File of size] ------------- *)

module M = Map.Make (String)

type model = [ `Dir | `File of int ] M.t

let m_empty : model = M.add "/" `Dir M.empty

let m_children m path =
  let prefix = if path = "/" then "/" else path ^ "/" in
  M.fold
    (fun p _ acc ->
      if p <> path && String.length p > String.length prefix
         && String.sub p 0 (String.length prefix) = prefix
         && not (String.contains_from p (String.length prefix) '/')
      then p :: acc
      else acc)
    m []

(* --- operations -------------------------------------------------------- *)

type op =
  | O_create of string
  | O_append of string * int
  | O_write of string * int
  | O_unlink of string
  | O_mkdir of string
  | O_rmdir of string
  | O_rename of string * string
  | O_read of string

let pp_op = function
  | O_create p -> "create " ^ p
  | O_append (p, n) -> Printf.sprintf "append %s %d" p n
  | O_write (p, n) -> Printf.sprintf "write %s %d" p n
  | O_unlink p -> "unlink " ^ p
  | O_mkdir p -> "mkdir " ^ p
  | O_rmdir p -> "rmdir " ^ p
  | O_rename (a, b) -> Printf.sprintf "rename %s %s" a b
  | O_read p -> "read " ^ p

(* generate a plausible operation against the current model state *)
let gen_op rng (m : model) counter =
  let dirs = M.fold (fun p k acc -> if k = `Dir then p :: acc else acc) m [] in
  let files =
    M.fold (fun p k acc -> match k with `File _ -> p :: acc | `Dir -> acc) m []
  in
  let pick_dir () = List.nth dirs (Rng.int rng (List.length dirs)) in
  let fresh_path () =
    incr counter;
    let d = pick_dir () in
    (if d = "/" then "" else d) ^ Printf.sprintf "/n%d" !counter
  in
  match Rng.int rng 10 with
  | 0 | 1 -> O_create (fresh_path ())
  | 2 ->
    (match files with
     | [] -> O_create (fresh_path ())
     | fs -> O_append (List.nth fs (Rng.int rng (List.length fs)), 1024 * Rng.int_range rng 1 6))
  | 3 ->
    (match files with
     | [] -> O_mkdir (fresh_path ())
     | fs -> O_write (List.nth fs (Rng.int rng (List.length fs)), 1024 * Rng.int_range rng 1 20))
  | 4 ->
    (match files with
     | [] -> O_create (fresh_path ())
     | fs -> O_unlink (List.nth fs (Rng.int rng (List.length fs))))
  | 5 -> O_mkdir (fresh_path ())
  | 6 ->
    (* remove an empty directory if one exists *)
    let empty_dirs =
      List.filter (fun d -> d <> "/" && m_children m d = []) dirs
    in
    (match empty_dirs with
     | [] -> O_mkdir (fresh_path ())
     | ds -> O_rmdir (List.nth ds (Rng.int rng (List.length ds))))
  | 7 ->
    (match files with
     | [] -> O_create (fresh_path ())
     | fs -> O_rename (List.nth fs (Rng.int rng (List.length fs)), fresh_path ()))
  | _ ->
    (match files with
     | [] -> O_create (fresh_path ())
     | fs -> O_read (List.nth fs (Rng.int rng (List.length fs))))

let apply_model (m : model) = function
  | O_create p -> if M.mem p m then m else M.add p (`File 0) m
  | O_append (p, n) ->
    (match M.find_opt p m with
     | Some (`File s) -> M.add p (`File (s + n)) m
     | _ -> m)
  | O_write (p, n) ->
    (match M.find_opt p m with Some (`File _) -> M.add p (`File n) m | _ -> m)
  | O_unlink p -> (match M.find_opt p m with Some (`File _) -> M.remove p m | _ -> m)
  | O_mkdir p -> if M.mem p m then m else M.add p `Dir m
  | O_rmdir p ->
    (match M.find_opt p m with
     | Some `Dir when m_children m p = [] && p <> "/" -> M.remove p m
     | _ -> m)
  | O_rename (a, b) ->
    (match M.find_opt a m, M.find_opt b m with
     | Some (`File s), None -> M.add b (`File s) (M.remove a m)
     | _ -> m)
  | O_read _ -> m

let apply_fs st op =
  (* the model only generates well-formed operations, but races with
     deferred state are impossible here (single user), so any error is
     a real divergence *)
  match op with
  | O_create p -> Fsops.create st p
  | O_append (p, n) -> Fsops.append st p ~bytes:n
  | O_write (p, n) -> Fsops.write_file st p ~bytes:n
  | O_unlink p -> Fsops.unlink st p
  | O_mkdir p -> Fsops.mkdir st p
  | O_rmdir p -> Fsops.rmdir st p
  | O_rename (a, b) -> Fsops.rename st ~src:a ~dst:b
  | O_read p -> ignore (Fsops.read_file st p)

(* compare the full trees *)
let rec collect_fs st path acc =
  List.fold_left
    (fun acc name ->
      if name = "." || name = ".." then acc
      else
        let p = (if path = "/" then "" else path) ^ "/" ^ name in
        let s = Fsops.stat st p in
        match s.Fsops.st_ftype with
        | Su_fstypes.Types.F_dir -> collect_fs st p (M.add p `Dir acc)
        | Su_fstypes.Types.F_reg -> M.add p (`File s.Fsops.st_size) acc
        | Su_fstypes.Types.F_free -> acc)
    acc (Fsops.readdir st path)

let run_sequence scheme ~seed ~ops_count =
  let cfg =
    { (Fs.config ~scheme ()) with Fs.geom = Su_fstypes.Geom.small; cache_mb = 8 }
  in
  let w = Fs.make cfg in
  let rng = Rng.create seed in
  let failure = ref None in
  ignore
    (Proc.spawn w.Fs.engine ~name:"model" (fun () ->
         let st = w.Fs.st in
         let model = ref m_empty in
         let counter = ref 0 in
         (try
            for _ = 1 to ops_count do
              let op = gen_op rng !model counter in
              apply_fs st op;
              model := apply_model !model op
            done;
            Fsops.sync st;
            (* tree comparison *)
            let actual = collect_fs st "/" (M.add "/" `Dir M.empty) in
            if not (M.equal ( = ) actual !model) then begin
              let diff =
                M.merge
                  (fun _ a b -> if a = b then None else Some (a, b))
                  actual !model
              in
              let first = M.min_binding_opt diff in
              failure :=
                Some
                  (Printf.sprintf "tree divergence at %s"
                     (match first with Some (p, _) -> p | None -> "?"))
            end
          with e ->
            failure := Some ("exception: " ^ Printexc.to_string e));
         Fs.stop w));
  Engine.run w.Fs.engine;
  match !failure with
  | Some msg -> Error msg
  | None ->
    let r = Crash.check cfg (Su_disk.Disk.image_snapshot w.Fs.disk) in
    if Fsck.ok r then Ok () else Error "fsck violations after sync"

let schemes_under_test =
  Fs.all_schemes
  @ [
      Fs.Scheduler_chains { barrier_dealloc = true };
      Fs.Journaled { group_commit = false };
      Fs.Journaled { group_commit = true };
    ]

let prop_model_agreement =
  QCheck.Test.make ~name:"random ops agree with the model on every scheme"
    ~count:12
    QCheck.(int_bound 100_000)
    (fun seed ->
      List.for_all
        (fun scheme ->
          match run_sequence scheme ~seed ~ops_count:60 with
          | Ok () -> true
          | Error msg ->
            Format.eprintf "[%s seed=%d] %s@." (Fs.scheme_kind_name scheme)
              seed msg;
            false)
        schemes_under_test)

let test_long_single_scheme () =
  (* one long deterministic run on soft updates *)
  match run_sequence Fs.Soft_updates ~seed:4242 ~ops_count:400 with
  | Ok () -> ()
  | Error msg -> Alcotest.fail msg

let test_ops_printable () =
  Alcotest.(check string) "pp" "create /x" (pp_op (O_create "/x"))

let suite =
  [
    QCheck_alcotest.to_alcotest prop_model_agreement;
    Alcotest.test_case "long soft-updates sequence" `Quick
      test_long_single_scheme;
    Alcotest.test_case "ops printable" `Quick test_ops_printable;
  ]
