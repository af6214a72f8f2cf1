(* compile-suite: the 31 bundled validation programs (the MiBench /
   SPEC-2006 / SPEC-2017 models of paper Tables IV-V), compiled by the
   stored greedy policy and evaluated against -Oz with
   [Evaluate.evaluate_programs], at jobs 1 and at jobs = nproc. Passes
   and IR2Vec dominate compile latency and the interpreter dominates
   evaluation; the network only runs forward passes, so a change to the
   training kernels must not move these figures. The seed sets the
   program order. *)

open Common
module W = Posetrl_workloads
module I = Posetrl_interp.Interp
module Pool = Posetrl_support.Pool
module Printer = Posetrl_ir.Printer

let programs ~seed : (string * (unit -> Posetrl_ir.Modul.t)) list =
  let all =
    Array.of_list
      (List.concat_map
         (fun s ->
           List.map
             (fun (n, mk) -> (s.W.Suites.suite_name ^ "/" ^ n, mk))
             s.W.Suites.programs)
         W.Suites.validation_suites)
  in
  Posetrl_support.Rng.shuffle (Posetrl_support.Rng.create seed) all;
  Array.to_list all

let result_text (r : C.Evaluate.program_result) : string =
  Obs.Json.to_string (C.Evaluate.result_to_json r)

type setup = {
  agent : Rl.Dqn.t;
  progs : (string * (unit -> Posetrl_ir.Modul.t)) list;
  modules : (string * Posetrl_ir.Modul.t) list;
}

let setup ~seed : setup =
  let agent = load_policy () in
  let progs = programs ~seed in
  let modules = List.map (fun (n, mk) -> (n, mk ())) progs in
  { agent; progs; modules }

(* [f] on a pool of nproc domains, or None when nproc = 1. The pool lives
   only for the pooled evaluation, as in [posetrl eval --jobs N]: idle
   worker domains would otherwise join every minor collection of the
   jobs-1 phases. *)
let with_pool (f : Pool.t -> 'a) : 'a option =
  if nproc () > 1 then Some (Pool.with_pool ~jobs:(nproc ()) f) else None

let predict_lib (s : setup) (m : Posetrl_ir.Modul.t) : C.Inference.rollout =
  C.Inference.predict ~agent:s.agent ~actions ~target m

(* Interpreter output and return value of the optimized module must equal
   the unoptimized module's. *)
let same_behaviour (before : Posetrl_ir.Modul.t) (after : Posetrl_ir.Modul.t) : bool =
  match I.run before, I.run after with
  | a, b -> a.I.ret = b.I.ret && a.I.output = b.I.output
  | exception I.Trap _ -> false

let mean xs = Stats.mean (Array.of_list xs)

(* --- end to end ------------------------------------------------------------------ *)

(* Every round sets up afresh and repeats the same work (the policy is
   greedy and the programs fixed). Set-up, compiling and the jobs-1
   evaluation run on one domain and are timed in CPU time, and the
   reference kernel [Speed.table] runs after each of them, outside the
   timings, to correct each program's time for the machine's speed at
   that point ([Speed.correct]). Each program's compile time is its
   median over its corrected samples (the suite is compiled twice a
   round) and its evaluation time likewise; the compile percentiles are
   Harrell-Davis estimates over the 31 programs ([Stats.harrell_davis]:
   with 31 programs a nearest-rank percentile jumps from one program to
   the next), and the evaluation rate is 31 over the sum. The pooled
   evaluation runs on nproc domains and is timed in wall time,
   uncorrected (its fastest round is printed). The number of rounds
   follows from [seconds] alone, a round nominally taking
   [nominal_round_s]. *)
let nominal_round_s = 5.0
let kernel = Speed.table

let run ~seed ~seconds : outcome =
  let n = float_of_int (List.length (programs ~seed)) in
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun m -> failures := m :: !failures) fmt in
  let compile_ms = ref [] and eval_s = ref [] and raw_eval_s = ref [] and pool_s = ref [] in
  let attempted = ref 0 in
  let last_rollouts = ref [] and last_results = ref [] in
  (* [f ()] with its CPU time and the kernel's time right after it *)
  let time f =
    let t0 = Speed.cpu_now () in
    let v = f () in
    let t = Speed.cpu_now () -. t0 in
    (v, t, Speed.probe kernel)
  in
  let corrected timed =
    let times = Array.of_list (List.map (fun (_, t, _) -> t) timed) in
    let probes = Array.of_list (List.map (fun (_, _, p) -> p) timed) in
    (times, Speed.correct kernel ~every:1 ~probes times)
  in
  let setups = ref [] in
  for _ = 1 to Stats.reps_for ~seconds ~nominal:nominal_round_s do
    let s, setup_s, probe = time (fun () -> setup ~seed) in
    setups := setup_s *. kernel.Speed.reference_s /. probe :: !setups;
    (* the suite is compiled twice a round, before the evaluations and
       after them, so each program's compile samples are spread over
       the whole run *)
    let compile () =
      let timed = List.map (fun (name, m) -> ((name, m), time (fun () -> predict_lib s m))) s.modules in
      let _, c = corrected (List.map snd timed) in
      compile_ms := Array.map ms c :: !compile_ms;
      List.map (fun ((name, m), (r, _, _)) -> (name, m, r)) timed
    in
    last_rollouts := compile ();
    (* one program per call, so each program's time is known; the
       library maps over the list the same way *)
    let results =
      List.map
        (fun p ->
          time (fun () ->
              List.hd (C.Evaluate.evaluate_programs ~agent:s.agent ~actions ~target [ p ])))
        s.progs
    in
    let raw, c = corrected results in
    raw_eval_s := Array.fold_left ( +. ) 0.0 raw :: !raw_eval_s;
    eval_s := c :: !eval_s;
    let results = List.map (fun (r, _, _) -> r) results in
    last_results := results;
    attempted := !attempted + (2 * List.length results);
    Option.iter
      (fun ((pooled, t), jobs) ->
        pool_s := t :: !pool_s;
        List.iter2
          (fun a b ->
            incr attempted;
            if result_text a <> result_text b then
              fail "compile: %s differs at jobs %d from jobs 1" a.C.Evaluate.prog_name jobs)
          results pooled)
      (with_pool (fun pool ->
           let t0 = now () in
           let v = C.Evaluate.evaluate_programs ~pool ~agent:s.agent ~actions ~target s.progs in
           ((v, now () -. t0), Pool.jobs pool)));
    List.iter2
      (fun (name, _, (a : C.Inference.rollout)) (_, _, (b : C.Inference.rollout)) ->
        incr attempted;
        if a.C.Inference.actions <> b.C.Inference.actions then
          fail "compile: %s compiled to two schedules in one round" name)
      !last_rollouts (compile ())
  done;
  List.iter2
    (fun (name, m, (r : C.Inference.rollout)) (e : C.Evaluate.program_result) ->
      if not (same_behaviour m r.C.Inference.optimized) then
        fail "compile: %s behaves differently after optimization" name;
      if r.C.Inference.actions <> e.C.Evaluate.predicted then
        fail "compile: %s schedule differs between predict and evaluate" name)
    !last_rollouts !last_results;
  let rounds = List.length !eval_s in
  let samples = Array.length (Array.concat !compile_ms) in
  let compile_ms = Stats.median_profile !compile_ms in
  let p50 = Stats.harrell_davis compile_ms 0.5 and p90 = Stats.harrell_davis compile_ms 0.9 in
  let rate = n /. Array.fold_left ( +. ) 0.0 (Stats.median_profile !eval_s) in
  let rate_of rounds = n /. Stats.median (Array.of_list rounds) in
  let size_pct = mean (List.map C.Evaluate.size_reduction_pct !last_results) in
  let cycles_pct = mean (List.filter_map C.Evaluate.time_improvement_pct !last_results) in
  let failed = List.length !failures in
  let pool_rate =
    match !pool_s with
    | [] -> [ ("eval_programs_per_s_pool (n/a: nproc = 1)", nan, "1/s") ]
    | ts -> [ ("eval_programs_per_s_pool", n /. List.fold_left Float.min infinity ts, "1/s") ]
  in
  { attempted = !attempted;
    failed;
    metrics =
      [ ("setup_s", Stats.median (Array.of_list !setups));
        ("peak_rss_mb", peak_rss_mb ());
        ("work_per_s", rate);
        ("latency_p50_ms", p50);
        ("latency_tail_ms", p90) ];
    report =
      [ ("compile_ms_p50", p50, "ms");
        ("compile_ms_p90", p90, "ms");
        ("compile_samples", float_of_int samples, "count");
        ("eval_programs_per_s", rate, "1/s");
        ("eval_programs_per_s_cpu_uncorrected", rate_of !raw_eval_s, "1/s") ]
      @ pool_rate
      @ [ ("rounds", float_of_int rounds, "count");
          ("size_vs_oz_pct", size_pct, "%");
          ("cycles_vs_oz_pct", cycles_pct, "%");
          ("failed_frac", Stats.failed_frac ~attempted:!attempted ~failed, "frac") ];
    failures = !failures }

(* --- traced ------------------------------------------------------------------------- *)

(* One round of the workload through the traced layers: the compile pass,
   the jobs-1 evaluation, and the pooled evaluation, whose tasks run the
   library on other domains and are timed in the benchmark's own task
   closures (their spans would overlap). *)
let round (tr : Trace.t) (s : setup) =
  let rollouts =
    Trace.with_ tr "compile" (fun () ->
        List.mapi
          (fun g (name, m) ->
            Trace.in_group tr g (fun () ->
                (name, Layers.predict tr ~agent:s.agent ~actions ~target m)))
          s.modules)
  in
  let results =
    Trace.with_ tr "core.evaluate_programs" (fun () ->
        List.mapi
          (fun g (name, mk) ->
            Trace.in_group tr g (fun () ->
                Layers.evaluate_program tr ~agent:s.agent ~actions ~target ~name (mk ())))
          s.progs)
  in
  let pooled =
    with_pool (fun pool ->
      Trace.with_ tr "support.pool" (fun () ->
          let t0 = now () in
          let out =
            Pool.map pool
              (fun (name, mk) ->
                let a = now () in
                let r =
                  C.Evaluate.evaluate_program ~agent:s.agent ~actions ~target ~name (mk ())
                in
                (r, a, now ()))
              (Array.of_list s.progs)
          in
          let wall = now () -. t0 in
          let busy = Array.fold_left (fun acc (_, a, b) -> acc +. (b -. a)) 0.0 out in
          let wait = Stats.mean (Array.map (fun (_, a, _) -> ms (a -. t0)) out) in
          ( Array.to_list (Array.map (fun (r, _, _) -> r) out),
            busy /. (wall *. float_of_int (Pool.jobs pool)),
            wait )))
  in
  (rollouts, results, pooled)

let run_traced ~seed : outcome * Trace.span list =
  let s = setup ~seed in
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun m -> failures := m :: !failures) fmt in
  let lib_rollouts = List.map (fun (_, m) -> predict_lib s m) s.modules in
  let lib_results =
    List.map result_text (C.Evaluate.evaluate_programs ~agent:s.agent ~actions ~target s.progs)
  in
  let t = traced_pairs ~root:"compile-suite" (fun tr -> round tr s) in
  let rollouts, results, pooled = t.value in
  let spans = t.spans in
  List.iter2
    (fun (name, (sched, m)) (lib : C.Inference.rollout) ->
      if sched <> lib.C.Inference.actions then fail "compile: traced schedule of %s differs" name
      else if Printer.module_to_string m <> Printer.module_to_string lib.C.Inference.optimized
      then fail "compile: traced optimized module of %s differs" name)
    rollouts lib_rollouts;
  let check what rs =
    List.iter2
      (fun r lib ->
        if result_text r <> lib then
          fail "compile: %s result of %s differs from Evaluate" what r.C.Evaluate.prog_name)
      rs lib_results
  in
  check "traced" results;
  let pool_metrics =
    match pooled with
    | None -> []
    | Some (rs, busy, wait) ->
      check "pooled" rs;
      [ ("support.pool_busy_frac", busy); ("support.pool_queue_wait_ms", wait) ]
  in
  let share ~of_ names =
    100.0
    *. List.fold_left (fun a n -> a +. Trace.total_under spans ~ancestor:of_ n) 0.0 names
    /. Float.max (Trace.total spans of_) 1e-9
  in
  ( { attempted = List.length s.progs;
      failed = List.length !failures;
      metrics =
        traced_metrics t
        @ pool_metrics
        @ [ ("core.size_vs_oz_pct", mean (List.map C.Evaluate.size_reduction_pct results));
            ("core.cycles_vs_oz_pct",
             mean (List.filter_map C.Evaluate.time_improvement_pct results)) ];
      report =
        [ ("interp_share_of_eval_pct",
           share ~of_:"core.evaluate_programs" [ "interp.run" ], "%");
          ("passes_ir2vec_share_of_compile_pct",
           share ~of_:"compile" [ "passes.run"; "ir2vec.embed" ], "%") ];
      failures = !failures },
    spans )
