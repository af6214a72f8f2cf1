(* The benchmark's entry point:

     bench.exe --workload W --seed N --seconds S --trace 0|1 --posetrl EXE

   Untraced (--trace 0), the workload runs through the library entry
   points for S seconds and reports the end-to-end metrics; traced
   (--trace 1), it drives the same work once through the layers' own
   entry points with a span around each call and reports the per-layer
   metrics. Either way the last line of standard output is the result
   object, the lines above it the workload's own figures by name, the
   environment and any failed check; spans and the full result go to
   .bench_out/. Exits 1 when a correctness check fails. *)

open Common

let workloads = [ "train-fast"; "compile-suite"; "serve-mixed"; "serve-miss" ]

let () =
  let workload = ref "" and seed = ref 42 and seconds = ref 10.0 and trace = ref 0 in
  let exe = ref "_build/default/bin/posetrl.exe" in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "W " ^ String.concat "|" workloads);
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S seconds to measure");
      ("--trace", Arg.Set_int trace, "0|1 untraced end-to-end or traced per-layer run");
      ("--posetrl", Arg.Set_string exe, "EXE the posetrl executable the serve workloads start");
      ("--speed-probe", Arg.Unit Serve.speed_probe, " run as the serve workloads' speed helper") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload W --seed N --seconds S --trace 0|1";
  if not (List.mem !workload workloads) then begin
    prerr_endline ("bench: unknown workload " ^ !workload);
    exit 2
  end;
  let traced = !trace = 1 in
  let jobs =
    match !workload with
    | "compile-suite" -> [ ("jobs", 1); ("jobs_pool", nproc ()) ]
    | "serve-mixed" | "serve-miss" -> [ ("daemon_jobs", 1); ("clients", nproc ()) ]
    | _ -> [ ("jobs", 1) ]
  in
  let env = env_json ~workload:!workload ~seed:!seed ~jobs in
  let outcome, spans =
    match !workload, traced with
    | "train-fast", false -> (Train_fast.run ~seed:!seed ~seconds:!seconds, [])
    | "train-fast", true -> Train_fast.run_traced ~seed:!seed
    | "compile-suite", false -> (Compile_suite.run ~seed:!seed ~seconds:!seconds, [])
    | "compile-suite", true -> Compile_suite.run_traced ~seed:!seed
    | w, false ->
      let mix = if w = "serve-miss" then Serve.miss else Serve.mixed in
      (Serve.run mix ~seed:!seed ~seconds:!seconds ~exe:!exe, [])
    | w, true ->
      let mix = if w = "serve-miss" then Serve.miss else Serve.mixed in
      Serve.run_traced mix ~seed:!seed ~exe:!exe
  in
  let table = if traced then per_layer else end_to_end in
  let line = result_line ~table outcome in
  let name = Printf.sprintf "%s-seed%d-trace%d" !workload !seed !trace in
  (try Sys.mkdir ".bench_out" 0o755 with Sys_error _ -> ());
  if traced then Trace.write spans (Filename.concat ".bench_out" (name ^ ".spans.jsonl"));
  let oc = open_out (Filename.concat ".bench_out" (name ^ ".json")) in
  Printf.fprintf oc "{\"env\": %s, \"result\": %s}\n" (Obs.Json.to_string env) line;
  close_out oc;
  Printf.printf "env %s\n" (Obs.Json.to_string env);
  List.iter (fun (k, v, u) -> Printf.printf "%-36s %14.4f %s\n" k v u) outcome.report;
  if traced then
    List.iter
      (fun (k, s) -> Printf.printf "self %-31s %14.4f s\n" k s)
      (Trace.self_by_name spans);
  List.iter (fun f -> Printf.printf "FAILED %s\n" f) outcome.failures;
  print_endline line;
  if outcome.failed > 0 || outcome.failures <> [] then exit 1
