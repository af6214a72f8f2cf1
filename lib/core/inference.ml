(* Greedy policy rollout: given a trained agent and an unoptimized
   module, predict the action sequence and the optimized module
   (paper Table VI shows such predicted sequences). *)

open Posetrl_ir
module Rl = Posetrl_rl

type rollout = {
  actions : int list;
  optimized : Modul.t;
}

let predict ?(max_steps = Environment.default_max_steps)
    ?(sanitize = Posetrl_analysis.Sanitize.Off) ?repro_dir
    ~(agent : Rl.Dqn.t) ~(actions : Posetrl_odg.Action_space.t)
    ~(target : Posetrl_codegen.Target.t) (m : Modul.t) : rollout =
  let env =
    Environment.create ~max_steps ~sanitize ?repro_dir ~target ~actions ()
  in
  let state = ref (Environment.reset env m) in
  let taken = ref [] in
  let continue_ = ref true in
  while !continue_ do
    let a = Rl.Dqn.greedy_action agent !state in
    taken := a :: !taken;
    let res = Environment.step env a in
    state := res.Environment.state;
    if res.Environment.terminal then continue_ := false
  done;
  { actions = List.rev !taken; optimized = Environment.current_module env }

(* Apply an explicit action-index sequence (replay of a Table-VI row). *)
let apply_sequence ?(pass_cfg = Posetrl_passes.Config.oz)
    ~(actions : Posetrl_odg.Action_space.t) (seq : int list) (m : Modul.t) :
    Modul.t =
  List.fold_left
    (fun m a ->
      Posetrl_passes.Pass_manager.run pass_cfg
        (Posetrl_odg.Action_space.action actions a)
        m)
    m seq

let pp_sequence ppf (seq : int list) =
  Fmt.pf ppf "%a" Fmt.(list ~sep:(any " -> ") int) seq
