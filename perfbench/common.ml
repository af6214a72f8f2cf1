(* Shared plumbing for the workloads: the fixed policy, the environment
   record, process memory, GC deltas, the metric tables and the result
   line. *)

module C = Posetrl_core
module O = Posetrl_odg
module Rl = Posetrl_rl
module Obs = Posetrl_obs

let now = Unix.gettimeofday
let target = Posetrl_codegen.Target.x86_64
let actions = O.Action_space.odg

(* Weights trained once by [posetrl train --fast --seed 42] and stored
   with the benchmark, so compile-suite and the serve workloads run the same
   policy on every commit. *)
let policy_path = "perfbench/policy.dqn"

let load_policy () : Rl.Dqn.t =
  let agent =
    Rl.Dqn.create (Posetrl_support.Rng.create 0) ~state_dim:C.Environment.state_dim
      ~hidden:C.Trainer.fast.C.Trainer.hidden
      ~n_actions:(O.Action_space.n_actions actions)
  in
  Rl.Dqn.load_weights agent policy_path;
  agent

(* Digest of the online weights' bit patterns. *)
let weights_digest (agent : Rl.Dqn.t) : string =
  let b = Buffer.create (1 lsl 20) in
  Array.iter
    (fun (l : Posetrl_nn.Layer.t) ->
      let add x = Buffer.add_int64_le b (Int64.bits_of_float x) in
      Array.iter add l.Posetrl_nn.Layer.w.Posetrl_nn.Matrix.data;
      Array.iter add l.Posetrl_nn.Layer.b)
    agent.Rl.Dqn.online.Posetrl_nn.Mlp.layers;
  Digest.to_hex (Digest.string (Buffer.contents b))

let nproc () = max 1 (Domain.recommended_domain_count ())

(* Set up [reps] times, timing each in CPU time; the last set-up's value
   is kept and the median time is reported. *)
let timed_setup ~(reps : int) (f : unit -> 'a) : 'a * float =
  let times = Array.make reps 0.0 and last = ref None in
  for i = 0 to reps - 1 do
    let t0 = Speed.cpu_now () in
    last := Some (f ());
    times.(i) <- Speed.cpu_now () -. t0
  done;
  (Option.get !last, Stats.median times)

(* --- the process ---------------------------------------------------------- *)

let status_field (pid : string) (field : string) : float option =
  match open_in (Printf.sprintf "/proc/%s/status" pid) with
  | exception Sys_error _ -> None
  | ic ->
    let rec go () =
      match input_line ic with
      | exception End_of_file -> None
      | line ->
        let n = String.length field in
        if String.length line > n && String.sub line 0 n = field then
          Scanf.sscanf (String.sub line n (String.length line - n)) " %f" Option.some
        else go ()
    in
    let v = go () in
    close_in ic;
    v

(* High-water resident set of a process in MB (VmHWM, kB on Linux); 0
   where /proc is missing. *)
let peak_rss_mb ?(pid = "self") () : float =
  match status_field pid "VmHWM:" with Some kb -> kb /. 1024.0 | None -> 0.0

let run_out (cmd : string) : string option =
  match Unix.open_process_in cmd with
  | exception Unix.Unix_error _ -> None
  | ic ->
    let line = try Some (String.trim (input_line ic)) with End_of_file -> None in
    (match Unix.close_process_in ic with
     | Unix.WEXITED 0 -> line
     | _ -> None)

(* Digest of the library sources, which names the code measured even
   where the checkout is not a git repository. *)
let source_digest () : string =
  let rec files dir =
    match Sys.readdir dir with
    | exception Sys_error _ -> []
    | entries ->
      Array.sort compare entries;
      Array.to_list entries
      |> List.concat_map (fun e ->
             let p = Filename.concat dir e in
             if Sys.is_directory p then files p
             else if Filename.check_suffix e ".ml" || Filename.check_suffix e ".mli"
             then [ p ]
             else [])
  in
  let b = Buffer.create 4096 in
  List.iter
    (fun p ->
      Buffer.add_string b p;
      Buffer.add_string b (Digest.to_hex (Digest.file p)))
    (files "lib" @ files "bin");
  Digest.to_hex (Digest.string (Buffer.contents b))

let env_json ~(workload : string) ~(seed : int) ~(jobs : (string * int) list) :
    Obs.Json.t =
  let str = function Some s -> Obs.Json.Str s | None -> Obs.Json.Null in
  Obs.Json.Obj
    ([ ("workload", Obs.Json.Str workload);
       ("seed", Obs.Json.Int seed);
       ("nproc", Obs.Json.Int (nproc ()));
       ("ocaml", Obs.Json.Str Sys.ocaml_version);
       ("flambda",
        match run_out "ocamlopt -config-var flambda 2>/dev/null" with
        | Some s -> Obs.Json.Bool (s = "true")
        | None -> Obs.Json.Null);
       ("commit",
        str (if Sys.file_exists ".git" then run_out "git rev-parse --short=12 HEAD 2>/dev/null"
             else None));
       ("source_digest", Obs.Json.Str (source_digest ())) ]
    @ List.map (fun (k, v) -> (k, Obs.Json.Int v)) jobs)

(* --- GC ------------------------------------------------------------------- *)

type gc_delta = { alloc_mb : float; minor : int; major : int; top_heap_mb : float }

let with_gc (f : unit -> 'a) : 'a * gc_delta =
  let word_mb = float_of_int (Sys.word_size / 8) /. 1e6 in
  let s0 = Gc.quick_stat () in
  let v = f () in
  let s1 = Gc.quick_stat () in
  let alloc (s : Gc.stat) = s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words in
  ( v,
    { alloc_mb = (alloc s1 -. alloc s0) *. word_mb;
      minor = s1.Gc.minor_collections - s0.Gc.minor_collections;
      major = s1.Gc.major_collections - s0.Gc.major_collections;
      top_heap_mb = float_of_int s1.Gc.top_heap_words *. word_mb } )

let counter (name : string) : float =
  Option.value ~default:0.0 (Obs.Metrics.value name)

(* --- metric tables ---------------------------------------------------------- *)

(* End-to-end metrics, reported by every workload (BENCHMARK.json holds
   their bounds). What each means per workload is in README.md. *)
let end_to_end : (string * string) list =
  [ ("setup_s", "s");
    ("peak_rss_mb", "MB");
    ("work_per_s", "1/s");
    ("latency_p50_ms", "ms");
    ("latency_tail_ms", "ms") ]

let oz_passes = Posetrl_passes.Pipelines.unique_passes

(* Per-layer metrics of the traced run, named after the lib/ module; a
   layer a workload does not run reads 0 there. *)
let per_layer : (string * string) list =
  [ ("passes.run_ms", "ms") ]
  @ List.map (fun p -> ("passes." ^ p ^ ".ms", "ms")) oz_passes
  @ [ ("passes.invocations", "count");
      ("passes.insns_in", "count");
      ("passes.changed_frac", "frac");
      ("ir2vec.embed_ms_p50", "ms");
      ("ir2vec.embeds", "count");
      ("mca.throughput_ms", "ms");
      ("mca.evals", "count");
      ("codegen.size_ms", "ms");
      ("interp.run_ms_p50", "ms");
      ("interp.dyn_insns_per_s", "1/s");
      ("rl.train_batch_ms_p50", "ms");
      ("rl.train_batch_ms_p99", "ms");
      ("rl.train_batch_alloc_mb", "MB");
      ("rl.train_batches", "count");
      ("rl.replay_sample_ms", "ms");
      ("rl.sync_target_ms", "ms");
      ("rl.q_values_ms_p50", "ms");
      ("nn.forward_batch_ms", "ms");
      ("core.env_step_ms_p50", "ms");
      ("core.env_step_ms_p99", "ms");
      ("core.oz_ms", "ms");
      ("ir.parse_ms_p50", "ms");
      ("ir.print_ms_p50", "ms");
      ("analysis.sanitize_ms_p50", "ms");
      ("analysis.lint_ms", "ms");
      ("serve.find_raw_ms", "ms");
      ("serve.admit_ms", "ms");
      ("serve.rollout_batch_ms", "ms");
      ("serve.result_json_ms", "ms");
      ("serve.raw_hit_frac", "frac");
      ("serve.cache_hit_frac", "frac");
      ("serve.evictions", "count");
      ("serve.batch_size_mean", "count");
      ("serve.rejected_429", "count");
      ("serve.working_set_ratio", "frac");
      ("obs.json_encode_ms", "ms");
      ("support.pool_busy_frac", "frac");
      ("support.pool_queue_wait_ms", "ms");
      ("gc.alloc_mb", "MB");
      ("gc.minor", "count");
      ("gc.major", "count");
      ("gc.top_heap_mb", "MB");
      ("obs.trace_overhead_pct", "%");
      ("obs.self_time_pct", "%");
      ("rl.mean_reward", "reward");
      ("core.size_vs_oz_pct", "%");
      ("core.cycles_vs_oz_pct", "%");
      ("serve.size_reduction_pct", "%") ]

let ms = ( *. ) 1000.0

(* The span-derived part of the per-layer table. *)
let span_metrics (spans : Trace.span list) : (string * float) list =
  let total name = ms (Trace.total spans name) in
  let p name q = ms (Stats.percentile (Trace.durations spans name) q) in
  let passes =
    List.filter (fun s -> String.starts_with ~prefix:Layers.pass_prefix s.Trace.name) spans
  in
  let n_pass = List.length passes in
  let changed =
    List.length
      (List.filter
         (fun s -> Trace.attr s "insns_before" <> Trace.attr s "insns_after")
         passes)
  in
  let interp = Trace.named spans "interp.run" in
  let interp_s = Trace.total spans "interp.run" in
  let batches = Trace.named spans "rl.train_batch" in
  [ ("passes.run_ms", total "passes.run") ]
  @ List.map (fun p -> ("passes." ^ p ^ ".ms", total (Layers.pass_prefix ^ p))) oz_passes
  @ [ ("passes.invocations", float_of_int n_pass);
      ("passes.insns_in",
       List.fold_left (fun a s -> a +. Trace.attr s "insns_before") 0.0 passes);
      ("passes.changed_frac",
       if n_pass = 0 then 0.0 else float_of_int changed /. float_of_int n_pass);
      ("ir2vec.embed_ms_p50", p "ir2vec.embed" 0.5);
      ("mca.throughput_ms", total "mca.throughput");
      ("codegen.size_ms", total "codegen.size");
      ("interp.run_ms_p50", p "interp.run" 0.5);
      ("interp.dyn_insns_per_s",
       if interp_s <= 0.0 then 0.0
       else List.fold_left (fun a s -> a +. Trace.attr s "dyn_insns") 0.0 interp
            /. interp_s);
      ("rl.train_batch_ms_p50", p "rl.train_batch" 0.5);
      ("rl.train_batch_ms_p99", p "rl.train_batch" 0.99);
      ("rl.train_batch_alloc_mb",
       Stats.mean
         (Array.of_list (List.map (fun s -> Trace.attr s "alloc_b" /. 1e6) batches)));
      ("rl.train_batches", float_of_int (List.length batches));
      ("rl.replay_sample_ms", total "rl.replay_sample");
      ("rl.sync_target_ms", total "rl.sync_target");
      ("rl.q_values_ms_p50", p "rl.q_values" 0.5);
      ("nn.forward_batch_ms", total "nn.forward_batch");
      ("core.env_step_ms_p50", p "core.env_step" 0.5);
      ("core.env_step_ms_p99", p "core.env_step" 0.99);
      ("core.oz_ms", total "core.oz");
      ("ir.parse_ms_p50", p "ir.parse" 0.5);
      ("ir.print_ms_p50", p "ir.print" 0.5);
      ("analysis.sanitize_ms_p50", p "analysis.sanitize" 0.5);
      ("analysis.lint_ms", total "analysis.lint");
      ("serve.find_raw_ms", total "serve.find_raw");
      ("serve.admit_ms", total "serve.admit");
      ("serve.rollout_batch_ms", total "serve.rollout_batch");
      ("serve.result_json_ms", total "serve.result_json");
      ("obs.json_encode_ms", total "obs.json_encode") ]

let gc_metrics (g : gc_delta) : (string * float) list =
  [ ("gc.alloc_mb", g.alloc_mb);
    ("gc.minor", float_of_int g.minor);
    ("gc.major", float_of_int g.major);
    ("gc.top_heap_mb", g.top_heap_mb) ]

(* --- traced runs ------------------------------------------------------------- *)

type 'a traced = {
  value : 'a;  (** what the last traced run returned *)
  spans : Trace.span list;  (** of the last traced run *)
  gc : gc_delta;  (** of the last untraced run *)
  overhead_pct : float;  (** fastest traced over fastest untraced wall *)
  self_pct : float;
  (** self time of the layer spans (all but the root) over the last
      traced run's wall *)
  counters : (string * float) list;  (** library counter deltas, traced run *)
}

(* Run [f] untraced and traced, alternately, [pairs] times under a root
   span named [root]. The overhead compares the fastest run of each kind,
   which keeps bursts of machine noise out of it. *)
let traced_pairs ?(pairs = 3) ~(root : string) (f : Trace.t -> 'a) : 'a traced =
  let best_off = ref infinity and best_on = ref infinity in
  let last = ref None in
  for _ = 1 to pairs do
    let t0 = now () in
    let _, gc = with_gc (fun () -> f (Trace.create ~enabled:false ())) in
    best_off := Float.min !best_off (now () -. t0);
    let tr = Trace.create ~enabled:true () in
    let names = [ "posetrl.ir2vec.embeds"; "posetrl.mca.evals" ] in
    let before = List.map counter names in
    let t0 = now () in
    let v = Trace.with_ tr root (fun () -> f tr) in
    let wall = now () -. t0 in
    best_on := Float.min !best_on wall;
    let counters = List.map2 (fun n b -> (n, counter n -. b)) names before in
    last := Some (v, tr, gc, wall, counters)
  done;
  let v, tr, gc, wall, counters = Option.get !last in
  let spans = Trace.spans tr in
  { value = v;
    spans;
    gc;
    overhead_pct = 100.0 *. ((!best_on /. !best_off) -. 1.0);
    self_pct = 100.0 *. Trace.layer_self spans /. wall;
    counters }

(* The per-layer metrics every traced run derives the same way. *)
let traced_metrics (t : 'a traced) : (string * float) list =
  let c name = List.assoc name t.counters in
  span_metrics t.spans
  @ gc_metrics t.gc
  @ [ ("ir2vec.embeds", c "posetrl.ir2vec.embeds");
      ("mca.evals", c "posetrl.mca.evals");
      ("obs.trace_overhead_pct", t.overhead_pct);
      ("obs.self_time_pct", t.self_pct) ]

(* --- results ------------------------------------------------------------------ *)

type outcome = {
  attempted : int;
  failed : int;
  metrics : (string * float) list;
  (** every metric of the run's table; missing ones read 0 *)
  report : (string * float * string) list;
  (** the workload's own figures, printed by name above the result line *)
  failures : string list;  (** what each failed check found *)
}

let number (v : float) : string =
  if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

let result_line ~(table : (string * string) list) (o : outcome) : string =
  let metric (name, unit) =
    let v = Option.value ~default:0.0 (List.assoc_opt name o.metrics) in
    Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (number v) unit
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (o.failed = 0 && o.failures = [])
    o.attempted o.failed
    (String.concat ", " (List.map metric table))
