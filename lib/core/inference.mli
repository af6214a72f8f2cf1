(** Greedy policy rollout (the predicted sequences of paper Table VI). *)

type rollout = {
  actions : int list;            (** chosen action indices, in order *)
  optimized : Posetrl_ir.Modul.t; (** the module after applying them *)
}

val predict :
  ?max_steps:int ->
  ?sanitize:Posetrl_analysis.Sanitize.level ->
  ?repro_dir:string ->
  agent:Posetrl_rl.Dqn.t ->
  actions:Posetrl_odg.Action_space.t ->
  target:Posetrl_codegen.Target.t ->
  Posetrl_ir.Modul.t -> rollout
(** Roll the greedy policy out on an unoptimized module. *)

val apply_sequence :
  ?pass_cfg:Posetrl_passes.Config.t ->
  actions:Posetrl_odg.Action_space.t ->
  int list -> Posetrl_ir.Modul.t -> Posetrl_ir.Modul.t
(** Replay an explicit action-index sequence. *)

val pp_sequence : Format.formatter -> int list -> unit
