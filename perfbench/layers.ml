(* Traced calls into the layers under the library entry points the
   untraced runs use (Environment.step, Inference.predict,
   Evaluate.evaluate_program). Each helper does the same work as the
   library function it stands in for, through the public functions of
   the layers below it, with a span around every call; the traced
   workloads then check their schedules, modules and counts against the
   library's to prove the work was the same. With a disabled recorder
   the helpers skip all bookkeeping, which gives the untraced wall time
   the tracing overhead is measured against. *)

open Posetrl_ir
module P = Posetrl_passes
module C = Posetrl_core
module CG = Posetrl_codegen
module O = Posetrl_odg
module Rl = Posetrl_rl
module I = Posetrl_interp.Interp
module Sanitize = Posetrl_analysis.Sanitize

(* Span names of the per-pass children carry the pass name after this
   prefix. *)
let pass_prefix = "pass:"

(* [Pass_manager.run_names]; traced, its per-pass seconds and
   instruction counts become child spans laid end to end from the call's
   start (the passes run back to back, so only the bookkeeping between
   them is left to the parent's self time). *)
let run_passes ?(sanitize = Sanitize.Off) (tr : Trace.t) (cfg : P.Config.t)
    (names : string list) (m : Modul.t) : Modul.t =
  Trace.with_ tr "passes.run" (fun () ->
      let t0 = tr.Trace.clock () in
      let m', stats =
        P.Pass_manager.run_names ~sanitize ~collect:(Trace.enabled tr) cfg names m
      in
      ignore
        (List.fold_left
           (fun cursor (s : P.Pass_manager.stats) ->
             let t1 = cursor +. s.P.Pass_manager.seconds in
             Trace.add_child tr (pass_prefix ^ s.P.Pass_manager.pass_name)
               ~t0:cursor ~t1
               ~attrs:
                 [ ("insns_before", float_of_int s.P.Pass_manager.insns_before);
                   ("insns_after", float_of_int s.P.Pass_manager.insns_after) ];
             t1)
           t0 stats);
      m')

let size (tr : Trace.t) (target : CG.Target.t) (m : Modul.t) : int =
  Trace.with_ tr "codegen.size" (fun () -> CG.Objfile.size target m)

let measure (tr : Trace.t) (target : CG.Target.t) (m : Modul.t) :
    C.Reward.measurement =
  let throughput =
    Trace.with_ tr "mca.throughput" (fun () -> Posetrl_mca.Mca.throughput target m)
  in
  { C.Reward.bin_size = float_of_int (size tr target m); throughput }

let observe (tr : Trace.t) (m : Modul.t) : float array =
  Trace.with_ tr "ir2vec.embed" (fun () -> C.Environment.observe m)

let greedy (tr : Trace.t) (agent : Rl.Dqn.t) (state : float array) : int =
  Trace.with_ tr "rl.q_values" (fun () -> Rl.Dqn.greedy_action agent state)

(* --- the environment ---------------------------------------------------------

   [Environment] with its defaults (Oz pass config, paper reward weights,
   15-step episodes). *)

type env = {
  target : CG.Target.t;
  actions : O.Action_space.t;
  sanitize : Sanitize.level;
  mutable current : Modul.t;
  mutable base : C.Reward.measurement;
  mutable last : C.Reward.measurement;
  mutable step_idx : int;
}

let env ?(sanitize = Sanitize.Off) ~target ~actions (m : Modul.t) : env =
  let zero = { C.Reward.bin_size = 0.0; throughput = 0.0 } in
  { target; actions; sanitize; current = m; base = zero; last = zero; step_idx = 0 }

let reset (tr : Trace.t) (e : env) (m : Modul.t) : float array =
  Trace.with_ tr "core.env_reset" (fun () ->
      let meas = measure tr e.target m in
      e.current <- m;
      e.base <- meas;
      e.last <- meas;
      e.step_idx <- 0;
      observe tr m)

type step = { state : float array; reward : float; terminal : bool }

let step (tr : Trace.t) (e : env) (action : int) : step =
  Trace.with_ tr "core.env_step" (fun () ->
      let names = O.Action_space.action e.actions action in
      let m' = run_passes ~sanitize:e.sanitize tr P.Config.oz names e.current in
      let curr = measure tr e.target m' in
      let comps =
        C.Reward.decompose ~weights:C.Reward.paper_weights ~base:e.base
          ~last:e.last ~curr ()
      in
      e.current <- m';
      e.last <- curr;
      e.step_idx <- e.step_idx + 1;
      { state = observe tr m';
        reward = comps.C.Reward.total;
        terminal = e.step_idx >= C.Environment.default_max_steps })

(* [Inference.predict]: the greedy rollout, returning the schedule and
   the optimized module. *)
let predict (tr : Trace.t) ~(agent : Rl.Dqn.t) ~(actions : O.Action_space.t)
    ~(target : CG.Target.t) (m : Modul.t) : int list * Modul.t =
  Trace.with_ tr "core.predict" (fun () ->
      let e = env ~target ~actions m in
      let state = ref (reset tr e m) in
      let taken = ref [] in
      let fin = ref false in
      while not !fin do
        let a = greedy tr agent !state in
        taken := a :: !taken;
        let r = step tr e a in
        state := r.state;
        fin := r.terminal
      done;
      (List.rev !taken, e.current))

(* --- evaluation ---------------------------------------------------------------- *)

let interp (tr : Trace.t) (m : Modul.t) : I.outcome option =
  Trace.with_ tr "interp.run" (fun () ->
      match I.run m with
      | o ->
        Trace.set_attr tr "dyn_insns" (float_of_int o.I.dyn_insns);
        Some o
      | exception I.Trap _ -> None)

let oz (tr : Trace.t) (m : Modul.t) : Modul.t =
  Trace.with_ tr "core.oz" (fun () ->
      run_passes tr
        (P.Pipelines.config_of P.Pipelines.Oz)
        (P.Pipelines.sequence_of P.Pipelines.Oz)
        m)

(* [Evaluate.evaluate_program] with run-time measurement on. *)
let evaluate_program (tr : Trace.t) ~(agent : Rl.Dqn.t)
    ~(actions : O.Action_space.t) ~(target : CG.Target.t) ~(name : string)
    (m : Modul.t) : C.Evaluate.program_result =
  Trace.with_ tr "core.evaluate_program" (fun () ->
      let m_oz = oz tr m in
      let predicted, m_model = predict tr ~agent ~actions ~target m in
      let cycles m = Option.map (fun (o : I.outcome) -> o.I.cycles) (interp tr m) in
      let size_unopt = size tr target m in
      let size_oz = size tr target m_oz in
      let size_model = size tr target m_model in
      let time_oz = cycles m_oz in
      let time_model = cycles m_model in
      { C.Evaluate.prog_name = name;
        size_unopt;
        size_oz;
        size_model;
        time_oz;
        time_model;
        predicted })
