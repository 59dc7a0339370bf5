let crash_at (w : Fs.world) time =
  Su_sim.Engine.run ~until:time w.Fs.engine;
  Su_sim.Engine.stop w.Fs.engine;
  Su_disk.Disk.image_snapshot w.Fs.disk

let fsck_image (w : Fs.world) image =
  (* journaled configurations replay their log first, exactly as the
     recovery procedure would after a real crash *)
  Fs.recover_image w.Fs.cfg image;
  Fsck.check ~geom:w.Fs.cfg.Fs.geom ~image
    ~check_exposure:(Fs.check_exposure w.Fs.cfg)

let crash_and_check w time = fsck_image w (crash_at w time)

(* Remount the (repaired) image and keep living in it: a directory
   create, file writes, a rename and a sync must all succeed, and the
   image must still check out clean afterwards. The final image is the
   mounted array itself, with what the continuation wrote written back
   into it. *)
let remount_probe ~dir cfg image =
  let probe () =
    let w = Fs.mount_image cfg image in
    let finished = ref false in
    let controller () =
      Fsops.mkdir w.Fs.st dir;
      Fsops.create w.Fs.st (dir ^ "/probe");
      Fsops.append w.Fs.st (dir ^ "/probe") ~bytes:3072;
      Fsops.rename w.Fs.st ~src:(dir ^ "/probe") ~dst:(dir ^ "/probe2");
      Fsops.sync w.Fs.st;
      Fs.stop w;
      Su_driver.Driver.quiesce w.Fs.driver;
      finished := true;
      Su_sim.Engine.stop w.Fs.engine
    in
    ignore (Su_sim.Proc.spawn w.Fs.engine ~name:"continue" controller);
    Su_sim.Engine.run w.Fs.engine;
    if not !finished then Error "continuation did not finish"
    else
      let final = Su_disk.Disk.take_image w.Fs.disk in
      Fs.recover_image cfg final;
      match
        (Fsck.check ~geom:cfg.Fs.geom ~image:final
           ~check_exposure:(Fs.check_exposure cfg))
          .Fsck.violations
      with
      | [] -> Ok ()
      | vs ->
        Error
          (Printf.sprintf "final image not clean (%d violations)"
             (List.length vs))
  in
  try probe () with
  | Su_sim.Proc.Process_failure (_, e) -> Error (Printexc.to_string e)
  | e -> Error (Printexc.to_string e)
