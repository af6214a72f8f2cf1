(* train-fast: [Trainer.train] with [Trainer.fast] (1,800 steps, batch 32,
   a train batch every 4 steps, snapshot probes every 500) on the
   130-program training corpus, x86, ODG space, jobs 1. The DQN's
   train_batch and the environment step do nearly all the work; interp,
   the parser, the sanitizer and the serve cache do none. *)

open Common
module W = Posetrl_workloads
module Rng = Posetrl_support.Rng
module Nn = Posetrl_nn

let hp = C.Trainer.fast

(* The corpus [posetrl train] uses, the same on every seed: the seed
   drives the training's own random stream (initial weights, the program
   of each episode, exploration, replay sampling). Generating the corpus
   from the seed as well changed the cost of an environment step by a
   quarter from seed to seed. *)
let corpus () = W.Suites.training_corpus ~n:130 ()

(* The work one training run does, as counts both the library run and
   the traced replica report. *)
type counts = {
  mutable env_steps : int;
  mutable env_resets : int;
  mutable train_batches : int;
  mutable target_syncs : int;
  mutable probes : int;
}

let pp_counts c =
  Printf.sprintf "env_steps=%d env_resets=%d train_batches=%d target_syncs=%d probes=%d"
    c.env_steps c.env_resets c.train_batches c.target_syncs c.probes

let probe_size corpus = min 8 (Array.length corpus)

(* A learning step: one that also runs a train batch (the replay buffer
   holds a batch long before the warm-up ends). *)
let learns (t : int) =
  t >= hp.C.Trainer.warmup_steps && t mod hp.C.Trainer.train_every = 0

(* [Trainer.train] itself; counts come from the library's counters. *)
let library_run ~seed ~corpus ?(on_step = fun (_ : int) -> ()) () =
  let c name = int_of_float (counter name) in
  let steps0 = c "posetrl.env.steps" and resets0 = c "posetrl.env.resets" in
  let batches0 = c "posetrl.dqn.train_batches" and syncs0 = c "posetrl.dqn.target_syncs" in
  let gains = ref [] in
  let res =
    C.Trainer.train ~hp ~on_step
      ~on_episode:(fun e -> gains := e.C.Trainer.ep_size_gain_pct :: !gains)
      ~seed ~corpus ~actions ~target ()
  in
  let resets = c "posetrl.env.resets" - resets0 in
  let counts =
    { env_steps = c "posetrl.env.steps" - steps0;
      env_resets = resets;
      train_batches = c "posetrl.dqn.train_batches" - batches0;
      target_syncs = c "posetrl.dqn.target_syncs" - syncs0;
      probes = (resets - res.C.Trainer.episodes) / probe_size corpus }
  in
  (res, counts, Stats.mean (Array.of_list !gains))

(* [Trainer.train]'s loop through the layers' public entry points, with
   the same random draws in the same order, so its weights must come out
   bit-identical to the library run's. *)
let replica (tr : Trace.t) ~seed ~(corpus : Posetrl_ir.Modul.t array) :
    Rl.Dqn.t * counts =
  let n_actions = O.Action_space.n_actions actions in
  let make rng =
    Rl.Dqn.create ~gamma:hp.C.Trainer.gamma ~lr:hp.C.Trainer.lr
      ~double:hp.C.Trainer.double rng ~state_dim:C.Environment.state_dim
      ~hidden:hp.C.Trainer.hidden ~n_actions
  in
  let rng = Rng.create seed in
  let agent = make (Rng.split rng) in
  let replay = Rl.Replay.create hp.C.Trainer.replay_capacity in
  let n = Array.length corpus in
  let probe_set = Array.init (probe_size corpus) (fun k -> corpus.(k * n / max 1 (probe_size corpus))) in
  let best = make (Rng.split rng) in
  let k = { env_steps = 0; env_resets = 0; train_batches = 0; target_syncs = 0; probes = 0 } in
  (* the training episodes and the snapshot probes each have their own
     environment, as in the trainer *)
  let e = Layers.env ~target ~actions corpus.(0) in
  let probe_env = Layers.env ~target ~actions corpus.(0) in
  let reset e m =
    k.env_resets <- k.env_resets + 1;
    Layers.reset tr e m
  in
  let step e a =
    k.env_steps <- k.env_steps + 1;
    Layers.step tr e a
  in
  let sync () =
    k.target_syncs <- k.target_syncs + 1;
    Trace.with_ tr "rl.sync_target" (fun () -> Rl.Dqn.sync_target agent)
  in
  let probe_score () =
    Trace.with_ tr "rl.snapshot_probe" (fun () ->
        k.probes <- k.probes + 1;
        Array.fold_left
          (fun acc m ->
            let s = ref (reset probe_env m) in
            let total = ref 0.0 in
            let fin = ref false in
            while not !fin do
              let r = step probe_env (Layers.greedy tr agent !s) in
              total := !total +. r.Layers.reward;
              s := r.Layers.state;
              fin := r.Layers.terminal
            done;
            acc +. !total)
          0.0 probe_set)
  in
  let best_score = ref neg_infinity in
  let t = ref 0 and episode = ref 0 in
  while !t < hp.C.Trainer.total_steps do
    incr episode;
    let program = Rng.choose rng corpus in
    Trace.in_group tr !episode (fun () ->
        let state = ref (reset e program) in
        let fin = ref false in
        while (not !fin) && !t < hp.C.Trainer.total_steps do
          incr t;
          let epsilon = Rl.Schedule.value hp.C.Trainer.epsilon !t in
          (* Dqn.select_action's draw pattern: one float, plus one int on
             the explore branch *)
          let action =
            if Rng.float rng < epsilon then Rng.int rng n_actions
            else Layers.greedy tr agent !state
          in
          let r = step e action in
          Rl.Replay.push ~step:!t replay
            { Rl.Replay.state = !state;
              action;
              reward = r.Layers.reward *. hp.C.Trainer.reward_scale;
              next_state = (if r.Layers.terminal then None else Some r.Layers.state) };
          state := r.Layers.state;
          fin := r.Layers.terminal;
          if learns !t && Rl.Replay.size replay >= hp.C.Trainer.batch_size then begin
            let batch =
              Trace.with_ tr "rl.replay_sample" (fun () ->
                  Rl.Replay.sample rng replay hp.C.Trainer.batch_size)
            in
            Trace.with_ tr "rl.train_batch" (fun () ->
                let a0 = Gc.allocated_bytes () in
                ignore (Rl.Dqn.train_batch agent batch);
                Trace.set_attr tr "alloc_b" (Gc.allocated_bytes () -. a0));
            k.train_batches <- k.train_batches + 1
          end;
          if !t mod hp.C.Trainer.target_sync_every = 0 then sync ();
          if hp.C.Trainer.snapshot_every > 0 && !t mod hp.C.Trainer.snapshot_every = 0
             && !t >= hp.C.Trainer.warmup_steps then begin
            let score = probe_score () in
            if score > !best_score then begin
              best_score := score;
              Nn.Mlp.copy_params ~src:agent.Rl.Dqn.online ~dst:best.Rl.Dqn.online
            end
          end
        done)
  done;
  if hp.C.Trainer.snapshot_every > 0 && probe_score () < !best_score then begin
    Nn.Mlp.copy_params ~src:best.Rl.Dqn.online ~dst:agent.Rl.Dqn.online;
    sync ()
  end;
  (agent, k)

let check_weights (agent : Rl.Dqn.t) (failures : string list ref) =
  if not (Rl.Dqn.weights_finite agent) then
    failures := "train: non-finite weights" :: !failures

(* --- end to end ----------------------------------------------------------------- *)

(* Training is deterministic per seed, so every run repeats the same
   work, step for step. Training runs on one domain, so steps are timed
   in CPU time, and the reference kernel [Speed.gemm] runs after every
   [probe_every] steps, outside the timings, to correct each step's time
   for the machine's speed at that point ([Speed.correct]). Each step's
   time is then its median over the runs, which drops a disturbance
   shorter than the probe spacing that hit one run; steps/s is 1,800
   over the sum of those medians, and the learning-step percentiles are
   over theirs. The number of runs follows from [seconds] alone, a run
   nominally taking [nominal_run_s]. The corpus is generated again
   before each run, and the kernel runs after it, so the set-up samples
   are corrected too and spread over the whole measurement. *)
let nominal_run_s = 8.0
let probe_every = 50
let kernel = Speed.gemm

let run ~seed ~seconds : outcome =
  let failures = ref [] in
  let profiles = ref [] and raw_runs_s = ref [] and walls = ref [] in
  let digests = ref [] and setups = ref [] in
  let reward = ref 0.0 and size_gain = ref 0.0 in
  let steps = hp.C.Trainer.total_steps in
  let runs = Stats.reps_for ~seconds ~nominal:nominal_run_s in
  for _ = 1 to runs do
    let corpus, setup_s = timed_setup ~reps:9 corpus in
    setups := setup_s *. kernel.Speed.reference_s /. Speed.probe kernel :: !setups;
    (* each run starts from the same heap *)
    Gc.compact ();
    (* segment i is the time up to step i's end; the last one is the
       closing snapshot probe after the final step *)
    let seg = Array.make (steps + 1) 0.0 in
    let probes = Array.make (steps / probe_every) 0.0 in
    let w0 = now () and t0 = Speed.cpu_now () in
    let last = ref t0 in
    let on_step i =
      seg.(i - 1) <- Speed.cpu_now () -. !last;
      if i mod probe_every = 0 then probes.((i / probe_every) - 1) <- Speed.probe kernel;
      last := Speed.cpu_now ()
    in
    let res, _, gain = library_run ~seed ~corpus ~on_step () in
    seg.(steps) <- Speed.cpu_now () -. !last;
    walls := (now () -. w0) :: !walls;
    raw_runs_s := Array.fold_left ( +. ) 0.0 seg :: !raw_runs_s;
    profiles := Speed.correct kernel ~every:probe_every ~probes seg :: !profiles;
    check_weights res.C.Trainer.agent failures;
    digests := weights_digest res.C.Trainer.agent :: !digests;
    reward := res.C.Trainer.final_mean_reward;
    size_gain := gain
  done;
  (match List.sort_uniq compare !digests with
   | [ _ ] -> ()
   | ds -> failures := Printf.sprintf "train: %d distinct weight digests at one seed" (List.length ds) :: !failures);
  let profile = Stats.median_profile !profiles in
  let rate = float_of_int steps /. Array.fold_left ( +. ) 0.0 profile in
  let rate_of runs = float_of_int steps /. Stats.median (Array.of_list runs) in
  (* latency of the learning steps, whose cost the train batch sets; the
     other steps' cost follows the programs the seed happens to draw *)
  let learning =
    Array.of_list
      (List.filter_map
         (fun t -> if learns t then Some (ms profile.(t - 1)) else None)
         (List.init steps (fun i -> i + 1)))
  in
  let p50 = Stats.percentile learning 0.5 and p90 = Stats.percentile learning 0.9 in
  let failed = List.length !failures in
  { attempted = runs;
    failed;
    metrics =
      [ ("setup_s", Stats.median (Array.of_list !setups));
        ("peak_rss_mb", peak_rss_mb ());
        ("work_per_s", rate);
        ("latency_p50_ms", p50);
        ("latency_tail_ms", p90) ];
    report =
      [ ("train_steps_per_s", rate, "1/s");
        ("train_steps_per_s_cpu_uncorrected", rate_of !raw_runs_s, "1/s");
        ("train_steps_per_s_wall_uncorrected", rate_of !walls, "1/s");
        ("train_mean_reward", !reward, "reward");
        ("train_size_gain_pct", !size_gain, "%");
        ("learning_step_ms_p50", p50, "ms");
        ("learning_step_ms_p90", p90, "ms");
        ("learning_steps", float_of_int (Array.length learning), "count");
        ("samples_beyond_p90", float_of_int (Stats.beyond (Array.length learning) 0.9), "count");
        ("training_runs", float_of_int runs, "count");
        ("failed_frac", Stats.failed_frac ~attempted:runs ~failed, "frac") ];
    failures = !failures }

(* --- traced ------------------------------------------------------------------------ *)

let run_traced ~seed : outcome * Trace.span list =
  let corpus = corpus () in
  let failures = ref [] in
  let lib_res, lib_counts, _ = library_run ~seed ~corpus () in
  let lib_digest = weights_digest lib_res.C.Trainer.agent in
  let t = traced_pairs ~root:"train" (fun tr -> replica tr ~seed ~corpus) in
  let agent, k = t.value in
  if k <> lib_counts then
    failures :=
      Printf.sprintf "train: traced replica did other work (%s) than Trainer.train (%s)"
        (pp_counts k) (pp_counts lib_counts)
      :: !failures;
  if weights_digest agent <> lib_digest then
    failures := "train: traced replica's weights differ from Trainer.train's" :: !failures;
  check_weights agent failures;
  let share name = 100.0 *. Trace.total t.spans name /. Trace.total t.spans "train" in
  ( { attempted = 1;
      failed = List.length !failures;
      metrics = traced_metrics t @ [ ("rl.mean_reward", lib_res.C.Trainer.final_mean_reward) ];
      report =
        [ ("env_steps", float_of_int k.env_steps, "count");
          ("train_batches", float_of_int k.train_batches, "count");
          ("target_syncs", float_of_int k.target_syncs, "count");
          ("snapshot_probes", float_of_int k.probes, "count");
          ("train_batch_share_pct", share "rl.train_batch", "%");
          ("env_step_share_pct", share "core.env_step", "%") ];
      failures = !failures },
    t.spans )
