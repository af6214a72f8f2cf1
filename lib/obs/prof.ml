(* Profiling layer over the span/metrics plumbing.

   Three concerns live here (see DESIGN.md §11 "Profiling"):

   - Hotspot attribution: a streaming span collector that folds the
     event stream into per-span-name aggregates (count, total,
     self-time, p50/p99 of per-event self) and renders a ranked hotspot
     table. Self-time is computed online by the span layer (dur minus
     direct children), so the collector never reconstructs the tree for
     the table. The same pass also keeps the per-pass (events with a
     [pass] attribute) and per-action ([posetrl.env.step]) tables that
     [posetrl report] prints.

   - Folded-stack export: the same stream reconstructed into
     flamegraph.pl-compatible "frame;frame;frame <µs>" lines. Events
     arrive in completion order (children strictly before their parent,
     per emitting domain), so reconstruction is a per-tid map from depth
     to pending child stacks: when the parent at depth d completes, it
     prefixes its name onto everything pending at depth d+1.

   - GC/allocation and pool-utilization telemetry: [sample_gc] turns
     [Gc.quick_stat] into posetrl.gc.* gauges on the trainer tick;
     [note_pool_batch] turns a [Pool.map_timed] timing array into
     queue-depth/busy-fraction gauges and a dispatch-latency histogram.

   The collector is only ever fed from the span emit path (already
   serialized by the span layer's emit lock) or from a single-threaded
   trace replay, so it keeps plain mutable state. *)

open Posetrl_support

(* --- growable sample buffer with reservoir fallback ---------------------- *)

(* Per-name self-time samples back the p50/p99 columns. Traces from long
   training runs can carry millions of events for one name, so past
   [sample_cap] the buffer degrades to uniform reservoir sampling (a
   fixed-seed private RNG keeps replay deterministic). *)
let sample_cap = 65536

type buf = { mutable data : float array; mutable len : int }

let buf_create () = { data = Array.make 64 0.0; len = 0 }

let buf_push (rng : Random.State.t) (b : buf) (seen : int) (v : float) =
  if b.len < sample_cap then begin
    if b.len = Array.length b.data then begin
      let d = Array.make (min sample_cap (2 * b.len)) 0.0 in
      Array.blit b.data 0 d 0 b.len;
      b.data <- d
    end;
    b.data.(b.len) <- v;
    b.len <- b.len + 1
  end
  else begin
    let j = Random.State.int rng seen in
    if j < sample_cap then b.data.(j) <- v
  end

(* nearest-rank quantile over a sorted copy *)
let buf_quantile (b : buf) (q : float) : float =
  if b.len = 0 then 0.0
  else begin
    let s = Array.sub b.data 0 b.len in
    Array.sort compare s;
    let rank = int_of_float (ceil (q *. float_of_int b.len)) in
    s.(max 0 (min (b.len - 1) (rank - 1)))
  end

(* --- the streaming collector --------------------------------------------- *)

type agg = {
  mutable a_count : int;
  mutable a_total : float;              (* Σ dur   (seconds) *)
  mutable a_self : float;               (* Σ self  (seconds) *)
  mutable a_alloc : float;              (* Σ self_alloc_b attr (bytes) *)
  a_samples : buf;                      (* per-event self times *)
}

(* per-pass rows (events carrying a "pass" attribute) and per-action
   rows (posetrl.env.step events keyed by their "action" attribute),
   updated in place; the .mli exports them read-only *)
type pass_row = {
  pr_pass : string;
  mutable pr_runs : int;
  mutable pr_total : float;
  mutable pr_self : float;
  mutable pr_d_insns : int;
}

type action_row = {
  ar_action : int;
  mutable ar_passes : string;           (* first non-empty "passes" attr *)
  mutable ar_steps : int;
  mutable ar_total : float;
  mutable ar_d_size : float;
  mutable ar_reward_sum : float;
}

type t = {
  by_name : (string, agg) Hashtbl.t;
  by_pass : (string, pass_row) Hashtbl.t;
  by_action : (int, action_row) Hashtbl.t;
  (* folded-stack reconstruction: tid -> depth -> (frames -> Σ self),
     where frames are root-first paths below (and including) that
     depth. Aggregating by path at insert keeps the collector's memory
     bounded by the number of *distinct* stacks, not by event count. *)
  pending : (int, (int, (string list, float) Hashtbl.t) Hashtbl.t) Hashtbl.t;
  rng : Random.State.t;
  mutable n_events : int;
}

let create () =
  { by_name = Hashtbl.create 64;
    by_pass = Hashtbl.create 64;
    by_action = Hashtbl.create 64;
    pending = Hashtbl.create 4;
    rng = Random.State.make [| 0x9e3779b9 |];
    n_events = 0 }

let find_or_add (tbl : ('k, 'v) Hashtbl.t) (key : 'k) (mk : unit -> 'v) : 'v =
  match Hashtbl.find_opt tbl key with
  | Some v -> v
  | None ->
    let v = mk () in
    Hashtbl.add tbl key v;
    v

let add_pass_row (t : t) (e : Event.t) (pass : string) =
  let p =
    find_or_add t.by_pass pass (fun () ->
        { pr_pass = pass; pr_runs = 0; pr_total = 0.0; pr_self = 0.0;
          pr_d_insns = 0 })
  in
  p.pr_runs <- p.pr_runs + 1;
  p.pr_total <- p.pr_total +. e.Event.dur;
  p.pr_self <- p.pr_self +. e.Event.self;
  p.pr_d_insns <-
    p.pr_d_insns + Option.value ~default:0 (Event.attr_int e "d_insns")

let add_action_row (t : t) (e : Event.t) (action : int) =
  let a =
    find_or_add t.by_action action (fun () ->
        { ar_action = action; ar_passes = ""; ar_steps = 0; ar_total = 0.0;
          ar_d_size = 0.0; ar_reward_sum = 0.0 })
  in
  if a.ar_passes = "" then
    a.ar_passes <- Option.value ~default:"" (Event.attr_string e "passes");
  a.ar_steps <- a.ar_steps + 1;
  a.ar_total <- a.ar_total +. e.Event.dur;
  a.ar_d_size <-
    a.ar_d_size +. Option.value ~default:0.0 (Event.attr_float e "d_size");
  a.ar_reward_sum <-
    a.ar_reward_sum +. Option.value ~default:0.0 (Event.attr_float e "reward")

let add (t : t) (e : Event.t) =
  t.n_events <- t.n_events + 1;
  let a =
    find_or_add t.by_name e.Event.name (fun () ->
        { a_count = 0; a_total = 0.0; a_self = 0.0; a_alloc = 0.0;
          a_samples = buf_create () })
  in
  a.a_count <- a.a_count + 1;
  a.a_total <- a.a_total +. e.Event.dur;
  a.a_self <- a.a_self +. e.Event.self;
  (match Event.attr_float e "self_alloc_b" with
   | Some b -> a.a_alloc <- a.a_alloc +. b
   | None -> ());
  buf_push t.rng a.a_samples a.a_count e.Event.self;
  Option.iter (add_pass_row t e) (Event.attr_string e "pass");
  if e.Event.name = "posetrl.env.step" then
    Option.iter (add_action_row t e) (Event.attr_int e "action");
  (* fold the event into the per-tid stack reconstruction *)
  let per = find_or_add t.pending e.Event.tid (fun () -> Hashtbl.create 8) in
  let mine = find_or_add per e.Event.depth (fun () -> Hashtbl.create 16) in
  let bump frames v =
    let prev =
      match Hashtbl.find_opt mine frames with Some x -> x | None -> 0.0
    in
    Hashtbl.replace mine frames (prev +. v)
  in
  bump [ e.Event.name ] e.Event.self;
  match Hashtbl.find_opt per (e.Event.depth + 1) with
  | Some children ->
    Hashtbl.remove per (e.Event.depth + 1);
    Hashtbl.iter (fun fs v -> bump (e.Event.name :: fs) v) children
  | None -> ()

let sink (t : t) : Sink.t =
  { Sink.emit = (fun e -> add t e); close = ignore }

let of_events (events : Event.t list) : t =
  let t = create () in
  List.iter (add t) events;
  t

(* A line torn by a killed writer fails to parse as JSON; a line that
   parses but is not an event (wrong shape) is dropped the same way. *)
let read_trace (path : string) : Event.t list * int =
  let records, torn = Runlog.read_jsonl path in
  let dropped = ref torn in
  let events =
    List.filter_map
      (fun j ->
        match Event.of_json j with
        | e -> Some e
        | exception Invalid_argument _ -> incr dropped; None)
      records
  in
  (events, !dropped)

(* --- ranked hotspot entries ---------------------------------------------- *)

type entry = {
  e_name : string;
  e_count : int;
  e_total : float;
  e_self : float;
  e_alloc_b : float;
  e_p50 : float;
  e_p99 : float;
}

let events (t : t) = t.n_events

let total_self (t : t) : float =
  Hashtbl.fold (fun _ a acc -> acc +. a.a_self) t.by_name 0.0

let total_alloc (t : t) : float =
  Hashtbl.fold (fun _ a acc -> acc +. a.a_alloc) t.by_name 0.0

let hotspots (t : t) : entry list =
  Hashtbl.fold
    (fun name a acc ->
      { e_name = name;
        e_count = a.a_count;
        e_total = a.a_total;
        e_self = a.a_self;
        e_alloc_b = a.a_alloc;
        e_p50 = buf_quantile a.a_samples 0.5;
        e_p99 = buf_quantile a.a_samples 0.99 }
      :: acc)
    t.by_name []
  |> List.sort (fun a b ->
         match compare b.e_self a.e_self with
         | 0 -> compare a.e_name b.e_name
         | c -> c)

let self_of (t : t) (name : string) : float =
  match Hashtbl.find_opt t.by_name name with Some a -> a.a_self | None -> 0.0

(* ranked by total time descending, key-ordered tie break *)
let by_total_desc total key a b =
  match compare (total b) (total a) with 0 -> compare (key a) (key b) | c -> c

let passes (t : t) : pass_row list =
  Hashtbl.fold (fun _ r acc -> r :: acc) t.by_pass []
  |> List.sort (by_total_desc (fun r -> r.pr_total) (fun r -> r.pr_pass))

let actions (t : t) : action_row list =
  Hashtbl.fold (fun _ r acc -> r :: acc) t.by_action []
  |> List.sort (by_total_desc (fun r -> r.ar_total) (fun r -> r.ar_action))

let mean_reward (r : action_row) : float =
  r.ar_reward_sum /. float_of_int (max 1 r.ar_steps)

(* --- rendering ----------------------------------------------------------- *)

let ms v = Printf.sprintf "%.2f" (v *. 1e3)
let us v = Printf.sprintf "%.0f" (v *. 1e6)
let mb v = Printf.sprintf "%.2f" (v /. 1e6)

let render ?(top = 15) ?(title = "hotspots") (t : t) : string =
  let total = total_self t in
  let entries = hotspots t in
  let shown = List.filteri (fun i _ -> i < top) entries in
  let tbl =
    Table.create ~title
      ~headers:[ "#"; "span"; "n"; "total ms"; "self ms"; "self%"; "cum%";
                 "p50 us"; "p99 us"; "alloc MB" ]
      ~aligns:[ Table.Right; Table.Left; Table.Right; Table.Right; Table.Right;
                Table.Right; Table.Right; Table.Right; Table.Right; Table.Right ]
      ()
  in
  let cum = ref 0.0 in
  List.iteri
    (fun i e ->
      cum := !cum +. e.e_self;
      let pct v = if total > 0.0 then 100.0 *. v /. total else 0.0 in
      Table.add_row tbl
        [ string_of_int (i + 1);
          e.e_name;
          string_of_int e.e_count;
          ms e.e_total;
          ms e.e_self;
          Printf.sprintf "%.1f" (pct e.e_self);
          Printf.sprintf "%.1f" (pct !cum);
          us e.e_p50;
          us e.e_p99;
          (if e.e_alloc_b > 0.0 then mb e.e_alloc_b else "-") ])
    shown;
  let omitted = List.length entries - List.length shown in
  Table.render tbl
  ^ Printf.sprintf "%d events, %d span names%s; total self %s ms%s\n"
      t.n_events (List.length entries)
      (if omitted > 0 then Printf.sprintf " (%d rows omitted)" omitted else "")
      (ms total)
      (let a = total_alloc t in
       if a > 0.0 then Printf.sprintf ", self-alloc %s MB" (mb a) else "")

(* per-pass and per-action tables; empty string when the trace has no
   such events (e.g. a serve trace has no env steps) *)
let render_passes (t : t) : string =
  match passes t with
  | [] -> ""
  | rows ->
    let tbl =
      Table.create ~title:"per-pass time and size delta"
        ~headers:[ "pass"; "runs"; "total ms"; "self ms"; "sum d_insns" ]
        ~aligns:
          [ Table.Left; Table.Right; Table.Right; Table.Right; Table.Right ]
        ()
    in
    List.iter
      (fun r ->
        Table.add_row tbl
          [ r.pr_pass; string_of_int r.pr_runs; ms r.pr_total; ms r.pr_self;
            string_of_int r.pr_d_insns ])
      rows;
    Table.render tbl

let render_actions (t : t) : string =
  match actions t with
  | [] -> ""
  | rows ->
    let tbl =
      Table.create ~title:"per-action (env.step) time, size delta, reward"
        ~headers:
          [ "action"; "sub-sequence"; "steps"; "total ms"; "sum d_size B";
            "mean reward" ]
        ~aligns:
          [ Table.Right; Table.Left; Table.Right; Table.Right; Table.Right;
            Table.Right ]
        ()
    in
    List.iter
      (fun r ->
        Table.add_row tbl
          [ string_of_int r.ar_action; r.ar_passes; string_of_int r.ar_steps;
            ms r.ar_total; Printf.sprintf "%.0f" r.ar_d_size;
            Printf.sprintf "%.3f" (mean_reward r) ])
      rows;
    Table.render tbl

(* jobs-1 vs jobs-N comparison over the union of both runs' top spans *)
let render_compare ?(top = 10) ~(jobs : int) (seq : t) (par : t) : string =
  let tbl =
    Table.create
      ~title:(Printf.sprintf "self-time: jobs=1 vs jobs=%d" jobs)
      ~headers:[ "span"; "self@1 ms"; Printf.sprintf "self@%d ms" jobs; "x" ]
      ~aligns:[ Table.Left; Table.Right; Table.Right; Table.Right ]
      ()
  in
  let names =
    let top_of t = List.filteri (fun i _ -> i < top) (hotspots t) in
    List.sort_uniq compare
      (List.map (fun e -> e.e_name) (top_of seq @ top_of par))
  in
  let ranked =
    List.sort
      (fun a b -> compare (self_of seq b) (self_of seq a))
      names
  in
  List.iter
    (fun name ->
      let s = self_of seq name and p = self_of par name in
      Table.add_row tbl
        [ name; ms s; ms p;
          (if p > 0.0 then Printf.sprintf "%.2f" (s /. p) else "-") ])
    ranked;
  Table.add_row tbl
    [ "(total)"; ms (total_self seq); ms (total_self par);
      (let p = total_self par in
       if p > 0.0 then Printf.sprintf "%.2f" (total_self seq /. p) else "-") ];
  Table.render tbl

(* --- folded-stack (flamegraph.pl) export --------------------------------- *)

let tid_frame tid = if tid = 0 then "main" else Printf.sprintf "domain-%d" tid

let folded (t : t) : string =
  let multi = Hashtbl.length t.pending > 1 in
  let stacks : (string, float) Hashtbl.t = Hashtbl.create 64 in
  Hashtbl.iter
    (fun tid per ->
      Hashtbl.iter
        (fun _depth entries ->
          Hashtbl.iter
            (fun frames self ->
              let frames = if multi then tid_frame tid :: frames else frames in
              let key = String.concat ";" frames in
              let prev =
                match Hashtbl.find_opt stacks key with Some v -> v | None -> 0.0
              in
              Hashtbl.replace stacks key (prev +. self))
            entries)
        per)
    t.pending;
  let lines =
    Hashtbl.fold
      (fun key v acc ->
        let us = int_of_float (Float.round (v *. 1e6)) in
        if us > 0 then Printf.sprintf "%s %d" key us :: acc else acc)
      stacks []
    |> List.sort compare
  in
  String.concat "\n" lines ^ (if lines = [] then "" else "\n")

let write_folded ~(path : string) (t : t) : unit =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (folded t))

(* --- GC / allocation telemetry ------------------------------------------- *)

type gc_mark = {
  gm_time : float;
  gm_stat : Gc.stat;                    (* quick_stat: no heap walk *)
  gm_alloc_b : float;
}

let gc_mark () : gc_mark =
  { gm_time = Clock.now ();
    gm_stat = Gc.quick_stat ();
    gm_alloc_b = Gc.allocated_bytes () }

type gc_delta = {
  d_elapsed_s : float;
  d_alloc_b : float;                    (* bytes allocated on this domain *)
  d_minor : int;                        (* minor collections *)
  d_major : int;                        (* major collections *)
  d_promoted_w : float;                 (* words promoted to the major heap *)
  d_heap_w : int;                       (* major heap words now *)
}

let gc_delta (m : gc_mark) : gc_delta =
  let s = Gc.quick_stat () in
  { d_elapsed_s = Clock.now () -. m.gm_time;
    d_alloc_b = Float.max 0.0 (Gc.allocated_bytes () -. m.gm_alloc_b);
    d_minor = s.Gc.minor_collections - m.gm_stat.Gc.minor_collections;
    d_major = s.Gc.major_collections - m.gm_stat.Gc.major_collections;
    d_promoted_w = s.Gc.promoted_words -. m.gm_stat.Gc.promoted_words;
    d_heap_w = s.Gc.heap_words }

let render_gc (d : gc_delta) : string =
  let rate =
    if d.d_elapsed_s > 0.0 then d.d_alloc_b /. d.d_elapsed_s /. 1e6 else 0.0
  in
  Printf.sprintf
    "GC/alloc: %.2f MB allocated (%.1f MB/s), %d minor / %d major \
     collections, %.2f Mw promoted, major heap %.2f MB\n"
    (d.d_alloc_b /. 1e6) rate d.d_minor d.d_major (d.d_promoted_w /. 1e6)
    (float_of_int d.d_heap_w *. 8.0 /. 1e6)

(* gauge handles + the previous sample, for the allocation-rate gauge;
   [sample_gc] runs on the trainer tick (one domain), so a plain ref is
   enough. Keyed per registry so tests with private registries don't
   inherit the global's rate state. *)
let last_sample : (Metrics.t * float * float) option ref = ref None

type gc_sample = {
  gs_minor : int;
  gs_major : int;
  gs_promoted_w : float;
  gs_heap_w : int;
  gs_alloc_mb_s : float;
}

let sample_gc ?(r = Metrics.global) () : gc_sample =
  let s = Gc.quick_stat () in
  let now = Clock.now () in
  let alloc_b = Gc.allocated_bytes () in
  let rate_b_s =
    match !last_sample with
    | Some (r', t0, b0) when r' == r && now > t0 -> (alloc_b -. b0) /. (now -. t0)
    | _ -> 0.0
  in
  last_sample := Some (r, now, alloc_b);
  Metrics.set (Metrics.gauge ~r "posetrl.gc.minor_collections")
    (float_of_int s.Gc.minor_collections);
  Metrics.set (Metrics.gauge ~r "posetrl.gc.major_collections")
    (float_of_int s.Gc.major_collections);
  Metrics.set (Metrics.gauge ~r "posetrl.gc.promoted_words") s.Gc.promoted_words;
  Metrics.set (Metrics.gauge ~r "posetrl.gc.heap_words")
    (float_of_int s.Gc.heap_words);
  Metrics.set (Metrics.gauge ~r "posetrl.gc.alloc_rate_mb_s") (rate_b_s /. 1e6);
  { gs_minor = s.Gc.minor_collections;
    gs_major = s.Gc.major_collections;
    gs_promoted_w = s.Gc.promoted_words;
    gs_heap_w = s.Gc.heap_words;
    gs_alloc_mb_s = rate_b_s /. 1e6 }

(* --- pool utilization ---------------------------------------------------- *)

type pool_util = {
  pu_jobs : int;
  pu_tasks : int;
  pu_busy_frac : float;         (* Σ task dur / (jobs × batch wall) *)
  pu_queue_mean : float;        (* mean seconds a task waited to start *)
  pu_dispatch_s : float;        (* mean first-wave dispatch latency *)
}

let pool_util ~(jobs : int) ~(t0 : float) ~(t1 : float)
    (timings : Pool.timing array) : pool_util =
  let n = Array.length timings in
  let wall = Float.max (t1 -. t0) 1e-9 in
  let busy = Array.fold_left (fun acc tm -> acc +. tm.Pool.t_dur) 0.0 timings in
  let waits =
    Array.map (fun tm -> Float.max 0.0 (tm.Pool.t_start -. t0)) timings
  in
  let queue_mean =
    if n = 0 then 0.0 else Array.fold_left ( +. ) 0.0 waits /. float_of_int n
  in
  (* dispatch latency: queue wait of the first wave — the min(jobs, n)
     earliest-starting tasks, which waited on dispatch alone rather than
     on a busy worker *)
  let dispatch =
    if n = 0 then 0.0
    else begin
      let sorted = Array.copy waits in
      Array.sort compare sorted;
      let wave = min jobs n in
      let acc = ref 0.0 in
      for i = 0 to wave - 1 do acc := !acc +. sorted.(i) done;
      !acc /. float_of_int wave
    end
  in
  { pu_jobs = jobs;
    pu_tasks = n;
    pu_busy_frac = busy /. (float_of_int (max 1 jobs) *. wall);
    pu_queue_mean = queue_mean;
    pu_dispatch_s = dispatch }

let dispatch_buckets =
  [| 1e-6; 1e-5; 1e-4; 1e-3; 1e-2; 0.1 |]

let note_pool_batch ?(r = Metrics.global) ~(jobs : int) ~(t0 : float)
    ~(t1 : float) (timings : Pool.timing array) : pool_util =
  let u = pool_util ~jobs ~t0 ~t1 timings in
  Metrics.set (Metrics.gauge ~r "posetrl.pool.busy_frac") u.pu_busy_frac;
  Metrics.set (Metrics.gauge ~r "posetrl.pool.queue_wait_mean_s") u.pu_queue_mean;
  let h =
    Metrics.histogram ~r ~buckets:dispatch_buckets "posetrl.pool.dispatch_s"
  in
  Array.iter
    (fun tm -> Metrics.observe h (Float.max 0.0 (tm.Pool.t_start -. t0)))
    timings;
  u

let render_pool (u : pool_util) : string =
  Printf.sprintf
    "pool: jobs=%d tasks=%d busy=%.1f%% mean queue wait %.1f us, first-wave \
     dispatch %.1f us\n"
    u.pu_jobs u.pu_tasks (100.0 *. u.pu_busy_frac) (u.pu_queue_mean *. 1e6)
    (u.pu_dispatch_s *. 1e6)

(* --- profiled workload runner -------------------------------------------- *)

let collect ?(alloc = true) (f : unit -> 'a) : 'a * t =
  let t = create () in
  let prev_alloc = Span.alloc_attrs_enabled () in
  Span.set_alloc_attrs alloc;
  let restore () = Span.set_alloc_attrs prev_alloc in
  match Span.with_sink (sink t) f with
  | v -> restore (); (v, t)
  | exception e -> restore (); raise e
