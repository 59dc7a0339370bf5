open Su_fstypes

type incore = {
  inum : int;
  din : Types.dinode;
  ilock : Su_sim.Sync.Mutex.t;
  mutable refs : int;
}

type t = {
  geom : Geom.t;
  engine : Su_sim.Engine.t;
  cpu : Su_sim.Cpu.t;
  disk : Su_disk.Disk.t;
  driver : Su_driver.Driver.t;
  cache : Su_cache.Bcache.t;
  scheme : Su_core.Scheme_intf.t;
  alloc_init : bool;
  alloc_mutex : Su_sim.Sync.Mutex.t;
  icache : (int, incore) Hashtbl.t;
  rotor : int array;
  freemaps : Freemap.t array;
  dirx : Dir_index.t option;
  mutable next_cg : int;
  mutable gen_counter : int;
  softdep_stats : Su_core.Softdep.stats option;
  journal_stats : Su_core.Journaled.stats option;
  obs : Su_obs.Events.t option;
  health : Health.t;
}

let charge t cost = Su_sim.Cpu.consume t.cpu cost

let block_frags t = t.geom.Geom.frags_per_block
let block_bytes t = Geom.block_bytes t.geom
