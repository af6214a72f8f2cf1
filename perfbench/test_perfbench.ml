(* Tests for the benchmark's own arithmetic. *)

let close = Alcotest.float 1e-9

let tail () =
  (* nearest rank: of 1000 samples, 10 lie beyond the p99 *)
  Alcotest.(check int) "beyond p99 of 1000" 10 (Stats.beyond 1000 0.99);
  Alcotest.(check int) "beyond p99 of 999" 9 (Stats.beyond 999 0.99);
  Alcotest.(check int) "p99 needs 1000 samples" 1000 (Stats.min_samples ~p:0.99 ~beyond:10);
  Alcotest.(check int) "p95 needs 200" 200 (Stats.min_samples ~p:0.95 ~beyond:10);
  Alcotest.(check int) "p90 needs 100" 100 (Stats.min_samples ~p:0.9 ~beyond:10);
  Alcotest.(check int) "435 learning steps leave 43 beyond p90" 43 (Stats.beyond 435 0.9)

let percentiles () =
  let xs = Array.init 100 (fun i -> float_of_int (100 - i)) in
  Alcotest.check close "p90 of 1..100" 90.0 (Stats.percentile xs 0.9);
  Alcotest.check close "p99 of 1..100" 99.0 (Stats.percentile xs 0.99);
  Alcotest.check close "median, even count" 50.5 (Stats.median xs);
  Alcotest.check close "median, odd count" 2.0 (Stats.median [| 3.0; 1.0; 2.0 |]);
  Alcotest.check close "empty" 0.0 (Stats.median [||])

let reps () =
  Alcotest.(check (array (float 0.))) "element-wise median over runs" [| 2.0; 2.5; 0.7 |]
    (Stats.median_profile [ [| 3.0; 2.0; 0.5 |]; [| 1.0; 5.0; 0.7 |]; [| 2.0; 2.5; 0.9 |] ]);
  Alcotest.(check int) "at least 3 reps" 3 (Stats.reps_for ~seconds:10.0 ~nominal:8.0);
  Alcotest.(check int) "reps from the seconds alone" 5 (Stats.reps_for ~seconds:25.0 ~nominal:5.0)

let speed_correction () =
  let k = Speed.gemm in
  let r = k.Speed.reference_s in
  (* probes after items 1 and 3 (every 2); the machine ran at half speed
     around the second one, but one slow probe alone moves nothing *)
  let probes = [| r; 2.0 *. r; r |] in
  Alcotest.(check (array (float 1e-12))) "median of three neighbouring probes"
    [| 1.0; 1.0; 1.0; 1.0; 1.0; 1.0 |]
    (Speed.correct k ~every:2 ~probes [| 1.0; 1.0; 1.0; 1.0; 1.0; 1.0 |]);
  Alcotest.(check (array (float 1e-12))) "a slow stretch halves the times in it"
    [| 2.0; 2.0; 1.0; 1.0; 1.0 |]
    (Speed.correct k ~every:1 ~probes:[| 2.0 *. r; 2.0 *. r; r; r; r |]
       [| 4.0; 4.0; 1.0; 1.0; 1.0 |]);
  Alcotest.(check (array (float 1e-12))) "items past the last probe use the last ones"
    [| 0.5; 0.5; 0.5 |]
    (Speed.correct k ~every:1 ~probes:[| 2.0 *. r |] [| 1.0; 1.0; 1.0 |]);
  Alcotest.check_raises "no probes" (Invalid_argument "Speed.correct: no probes") (fun () ->
      ignore (Speed.correct k ~every:1 ~probes:[||] [| 1.0 |]))

let harrell_davis () =
  let xs = Array.init 31 (fun i -> float_of_int (i + 1)) in
  Alcotest.check (Alcotest.float 1e-3) "median of a symmetric sample" 16.0 (Stats.harrell_davis xs 0.5);
  Alcotest.check (Alcotest.float 1e-9) "one sample" 4.0 (Stats.harrell_davis [| 4.0 |] 0.9);
  (* between the nearest-rank neighbours, and moving smoothly: nudging
     the 28th of 31 samples moves the p90 by less than the nudge *)
  let p90 = Stats.harrell_davis xs 0.9 in
  Alcotest.(check bool) "p90 between the 27th and 29th samples" true (p90 > 27.0 && p90 < 29.0);
  let ys = Array.copy xs in
  ys.(27) <- 28.5;
  let moved = Stats.harrell_davis ys 0.9 -. p90 in
  Alcotest.(check bool) "a nudge moves it partly" true (moved > 0.0 && moved < 0.5)

let failed_frac () =
  Alcotest.check close "none failed" 0.0 (Stats.failed_frac ~attempted:40 ~failed:0);
  Alcotest.check close "a quarter" 0.25 (Stats.failed_frac ~attempted:40 ~failed:10);
  Alcotest.check close "nothing attempted counts as failed" 1.0
    (Stats.failed_frac ~attempted:0 ~failed:0)

let span name ~id ~parent t0 t1 =
  { Trace.id; name; group = 0; parent; t0; t1; attrs = [] }

let self_time () =
  (* a 10 s parent with children [1,4], [3,6] (overlapping) and [8,12]
     (running past the parent's end): they cover [1,6] and [8,10] *)
  let spans =
    [ span "root" ~id:0 ~parent:(-1) 0.0 10.0;
      span "a" ~id:1 ~parent:0 1.0 4.0;
      span "b" ~id:2 ~parent:0 3.0 6.0;
      span "c" ~id:3 ~parent:0 8.0 12.0;
      span "a.x" ~id:4 ~parent:1 1.5 2.5 ]
  in
  let self = Trace.self_by_name spans in
  Alcotest.check close "root self" 3.0 (List.assoc "root" self);
  Alcotest.check close "a self" 2.0 (List.assoc "a" self);
  Alcotest.check close "c self" 4.0 (List.assoc "c" self);
  (* a, b, c and a.x, without the root's 3 s that no child covers *)
  Alcotest.check close "layer self leaves the root out" 10.0 (Trace.layer_self spans);
  Alcotest.check close "covered, clipped and merged" 7.0
    (Trace.covered ~lo:0.0 ~hi:10.0 [ (1.0, 4.0); (3.0, 6.0); (8.0, 12.0) ])

let recorder () =
  let t = ref 0.0 in
  let clock () = t := !t +. 1.0; !t in
  let tr = Trace.create ~clock ~enabled:true () in
  Trace.with_ tr "outer" (fun () -> Trace.with_ tr "inner" (fun () -> ()));
  let spans = Trace.spans tr in
  let self = Trace.self_by_name spans in
  (* outer [1,4], inner [2,3] *)
  Alcotest.check close "outer self" 2.0 (List.assoc "outer" self);
  Alcotest.check close "self times sum to the outer span" 3.0
    (List.fold_left (fun a (_, s) -> a +. s) 0.0 self);
  let off = Trace.create ~clock ~enabled:false () in
  Alcotest.(check int) "disabled runs the code" 7 (Trace.with_ off "x" (fun () -> 7));
  Alcotest.(check int) "disabled records nothing" 0 (List.length (Trace.spans off))

let closed_loop () =
  let r sent done_ = { Stats.sent; done_ } in
  (* two clients; client 0 waits 1 s between replies and sends *)
  let l =
    Stats.closed_loop
      [| [ r 0.0 0.5; r 1.5 2.0 ]; [ r 0.25 1.25; r 1.25 1.5; r 1.5 4.0 ] |]
  in
  Alcotest.(check int) "completed" 5 l.Stats.completed;
  Alcotest.(check (array (float 1e-9))) "latency from each request's own send"
    [| 500.0; 1000.0; 250.0; 500.0; 2500.0 |] l.Stats.latencies_ms;
  Alcotest.check close "window, first send to last reply" 4.0 l.Stats.window_s;
  Alcotest.check close "throughput" 1.25 l.Stats.rps;
  Alcotest.check_raises "two requests in flight" (Stats.Not_closed 1) (fun () ->
      ignore (Stats.closed_loop [| []; [ r 0.0 2.0; r 1.0 3.0 ] |]))

let () =
  Alcotest.run "perfbench"
    [ ( "stats",
        [ Alcotest.test_case "tail percentile keeps 10 beyond" `Quick tail;
          Alcotest.test_case "percentiles" `Quick percentiles;
          Alcotest.test_case "repeated runs" `Quick reps;
          Alcotest.test_case "Harrell-Davis quantile" `Quick harrell_davis;
          Alcotest.test_case "failed_frac" `Quick failed_frac;
          Alcotest.test_case "closed-loop latency" `Quick closed_loop ] );
      ("speed", [ Alcotest.test_case "machine-speed correction" `Quick speed_correction ]);
      ( "trace",
        [ Alcotest.test_case "self time, overlapping children" `Quick self_time;
          Alcotest.test_case "recorder" `Quick recorder ] ) ]
