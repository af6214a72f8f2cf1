(* serve-mixed and serve-miss: nproc closed-loop clients, like build
   workers that each wait for their reply, against the [posetrl serve
   --opt] daemon over loopback. The seeded request stream mixes
   byte-identical repeats (raw-digest hits), whitespace variants
   (canonical hits after parse and sanitize), never-seen generated
   modules (misses: a batched rollout and a cache insert),
   /optimize/batch requests and malformed bodies that must be refused
   with a 400 and lint diagnostics. serve-mixed is mostly hits,
   serve-miss mostly misses. These are the only workloads that run the
   parser, the admission sanitizer, the serve cache, the HTTP server and
   JSON encoding; hits skip the passes and IR2Vec entirely, while misses
   insert into the cache the hits read. *)

open Common
module W = Posetrl_workloads
module Modul = Posetrl_ir.Modul
module Parser = Posetrl_ir.Parser
module Printer = Posetrl_ir.Printer
module Json = Obs.Json
module Engine = Posetrl_serve.Engine
module Cache = Posetrl_serve.Cache
module Sanitize = Posetrl_analysis.Sanitize
module Lint = Posetrl_analysis.Lint
module Nn = Posetrl_nn
module Rng = Posetrl_support.Rng
module Pool = Posetrl_support.Pool

(* --- the request stream ------------------------------------------------------ *)

let variant_count = 3

type item = Hot of int | Variant of int * int | Fresh of int * int
type request = Single of item | Batch of item list | Malformed of int

(* Whitespace and comment variants that parse to the same module. *)
let variant (v : int) (text : string) : string =
  let lines = String.split_on_char '\n' text in
  let map f = String.concat "\n" (List.map f lines) in
  match v with
  | 0 -> String.concat "\n\n" lines
  | 1 -> map (fun l -> if String.contains l '"' then l else "\t" ^ l ^ "   ; v")
  | _ -> map (fun l -> if String.contains l '"' then l else "    " ^ String.trim l ^ " ")

(* A module the parser accepts and the SSA sanitizer refuses: the first
   alloca that the next line uses is moved below that line. *)
let malformed (text : string) : string =
  let lines = Array.of_list (String.split_on_char '\n' text) in
  let tokens l = String.split_on_char ' ' (String.map (fun c -> if c = ',' then ' ' else c) l) in
  let rec find i =
    if i + 1 >= Array.length lines then invalid_arg "malformed: no alloca to move"
    else
      match tokens (String.trim lines.(i)) with
      | name :: "=" :: "alloca" :: _ when List.mem name (tokens lines.(i + 1)) ->
        let a = lines.(i) in
        lines.(i) <- lines.(i + 1);
        lines.(i + 1) <- a;
        String.concat "\n" (Array.to_list lines)
      | _ -> find (i + 1)
  in
  find 0

(* The request kinds of a stream, as the share of each in every block of
   requests. Neither mix is measured traffic; they are the two ends a
   cache change is judged between. *)
type mix = {
  block : int array;
  (** per block, shuffled: 0 repeat, 1 variant, 2 miss, 3 batch of a
      repeat, a variant and a miss, 4 malformed *)
  tail : float;  (** the percentile [latency_tail_ms] reports *)
  traced_requests : int;  (** how much of the stream the traced run replays *)
}

(* per 20: 10 repeats, 5 variants, 2 misses, 2 batches, 1 malformed *)
let mixed =
  { block = [| 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 1; 1; 1; 1; 1; 2; 2; 3; 3; 4 |];
    tail = 0.99;
    traced_requests = 400 }

(* per 10: 8 misses, a repeat and a variant. A miss costs a rollout, so
   a run holds too few requests for a p99 with 10 samples beyond it. *)
let miss = { block = [| 2; 2; 2; 2; 2; 2; 2; 2; 0; 1 |]; tail = 0.9; traced_requests = 100 }

type stream = {
  hot : string array;
  variants : string array array;
  bad : string array;
  pool : (string * string) array;  (** generated modules: header line, rest *)
  seed : int;
  requests : request array;
}

let max_requests = 200_000
let pool_size = 64

(* The hot set is the 31 bundled programs, so the quality figure does not
   depend on the seed. A miss is a module from a fixed pool of 64
   generated ones under a name never sent before, so it is new to the
   cache while the cost of misses keeps one distribution across seeds.
   The seed orders the requests: every block holds the mix exactly,
   shuffled, and programs and pool modules are dealt from reshuffled
   decks, so any stretch of the stream has nearly the same mix. *)
let make_stream (mix : mix) ~seed : stream =
  let hot =
    Array.of_list (List.map (fun (_, m) -> Printer.module_to_string m) (W.Suites.all_programs ()))
  in
  let hot_count = Array.length hot in
  let pool =
    Array.init pool_size (fun k ->
        let text = Printer.module_to_string (W.Genprog.generate ~seed:(k + 1)) in
        let nl = String.index text '\n' in
        (String.sub text 0 nl, String.sub text nl (String.length text - nl)))
  in
  let rng = Rng.create seed in
  let deck n =
    let cards = ref [] in
    fun () ->
      if !cards = [] then begin
        let a = Array.init n Fun.id in
        Rng.shuffle rng a;
        cards := Array.to_list a
      end;
      match !cards with
      | c :: rest ->
        cards := rest;
        c
      | [] -> assert false
  in
  let program = deck hot_count and pool_module = deck pool_size in
  let next_fresh = ref 0 in
  let fresh () =
    incr next_fresh;
    Fresh (!next_fresh, pool_module ())
  in
  let hot_item () = Hot (program ()) in
  let variant_item () = Variant (program (), Rng.int rng variant_count) in
  let block = mix.block in
  let kinds = ref [||] in
  let requests =
    Array.init max_requests (fun i ->
        if i mod Array.length block = 0 then begin
          kinds := Array.copy block;
          Rng.shuffle rng !kinds
        end;
        match !kinds.(i mod Array.length block) with
        | 0 -> Single (hot_item ())
        | 1 -> Single (variant_item ())
        | 2 -> Single (fresh ())
        | 3 -> Batch [ hot_item (); variant_item (); fresh () ]
        | _ -> Malformed (program ()))
  in
  let bad = Array.map malformed hot in
  { hot;
    variants = Array.map (fun t -> Array.init variant_count (fun v -> variant v t)) hot;
    bad;
    pool;
    seed;
    requests }

let item_text (s : stream) = function
  | Hot k -> s.hot.(k)
  | Variant (k, v) -> s.variants.(k).(v)
  | Fresh (j, k) ->
    let header, rest = s.pool.(k) in
    Printf.sprintf "%s.fresh%d_%d%s" header s.seed j rest

(* The module an item names, as the key reference answers are filed under. *)
let item_id = function Hot k | Variant (k, _) -> Hot k | Fresh _ as f -> f

let route_body (s : stream) : request -> string * string = function
  | Single it -> ("/optimize", item_text s it)
  | Batch its -> ("/optimize/batch", Json.to_string (Json.Arr (List.map (fun it -> Json.Str (item_text s it)) its)))
  | Malformed k -> ("/optimize", s.bad.(k))

(* --- HTTP over loopback ----------------------------------------------------------- *)

let http ~(port : int) ~(meth : string) ~(path : string) (body : string) : int * string =
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> try Unix.close sock with Unix.Unix_error _ -> ())
  @@ fun () ->
  match
    Unix.connect sock (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
    let req =
      Printf.sprintf "%s %s HTTP/1.1\r\nHost: localhost\r\nContent-Length: %d\r\n\r\n%s"
        meth path (String.length body) body
    in
    let rec send off =
      if off < String.length req then
        send (off + Unix.write_substring sock req off (String.length req - off))
    in
    send 0;
    let buf = Buffer.create 16384 and chunk = Bytes.create 65536 in
    let rec recv () =
      match Unix.read sock chunk 0 (Bytes.length chunk) with
      | 0 -> ()
      | k ->
        Buffer.add_subbytes buf chunk 0 k;
        recv ()
    in
    recv ();
    Buffer.contents buf
  with
  | exception Unix.Unix_error _ -> (0, "")
  | raw ->
    let status = try Scanf.sscanf raw "HTTP/1.1 %d" Fun.id with _ -> 0 in
    let body =
      let rec find i =
        if i + 4 > String.length raw then String.length raw
        else if String.sub raw i 4 = "\r\n\r\n" then i + 4
        else find (i + 1)
      in
      let b = find 0 in
      String.sub raw b (String.length raw - b)
    in
    (status, body)

(* --- the daemon -------------------------------------------------------------------- *)

type daemon = { pid : int; port : int; out : Unix.file_descr }

let read_line_timeout (fd : Unix.file_descr) ~(timeout : float) : string option =
  let buf = Buffer.create 128 and c = Bytes.create 1 in
  let deadline = now () +. timeout in
  let rec go () =
    let left = deadline -. now () in
    if left <= 0.0 then None
    else
      match Unix.select [ fd ] [] [] left with
      | [], _, _ -> None
      | _ -> (
        match Unix.read fd c 0 1 with
        | 0 -> None
        | _ when Bytes.get c 0 = '\n' -> Some (Buffer.contents buf)
        | _ ->
          Buffer.add_bytes buf c;
          go ())
  in
  go ()

let stop (d : daemon) : unit =
  (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
  (try ignore (Unix.waitpid [] d.pid) with Unix.Unix_error _ -> ());
  try Unix.close d.out with Unix.Unix_error _ -> ()

(* Start [posetrl serve 0 --opt] on the stored policy and wait until it
   answers /healthz. *)
let start ~(exe : string) : daemon =
  let rd, wr = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process exe
      [| exe; "serve"; "0"; "--opt"; "--weights"; policy_path |]
      Unix.stdin wr Unix.stderr
  in
  Unix.close wr;
  let fail msg =
    stop { pid; port = 0; out = rd };
    failwith msg
  in
  let rec port () =
    match read_line_timeout rd ~timeout:60.0 with
    | None -> fail "serve: the daemon never reported its port"
    | Some line -> (
      match Scanf.sscanf line "optimization service on http://127.0.0.1:%d" Fun.id with
      | p -> p
      | exception _ -> port ())
  in
  let port = port () in
  let rec ready tries =
    if tries = 0 then fail "serve: the daemon never answered /healthz"
    else if fst (http ~port ~meth:"GET" ~path:"/healthz" "") <> 200 then begin
      Unix.sleepf 0.001;
      ready (tries - 1)
    end
  in
  ready 10_000;
  { pid; port; out = rd }

(* --- closed-loop clients --------------------------------------------------------------- *)

type answer = { idx : int; status : int; digest : string }

type load = {
  answers : answer list;
  loop : Stats.closed_loop;
  bodies : (string, string) Hashtbl.t;  (** distinct response bodies by digest *)
}

(* Between a reply and its next request a client pauses for a seeded
   uniform time below the daemon's 5 ms poll interval, as a build worker
   does other work between compiles. Without it the clients lock onto
   the daemon's poll phase, and whether most hits wait a whole poll or
   none depends on the request sequence, not on the daemon's speed. *)
let max_think_s = 0.005

(* [clients] threads, each sending request [i] of the stream only after
   its previous reply; they stop taking new requests once [stop issued]
   holds. Bodies are built before the send is timed. *)
let drive (s : stream) ~(seed : int) ~(port : int) ~(clients : int) ~(stop : int -> bool) :
    load =
  let lock = Mutex.create () in
  let next = ref 0 in
  let bodies = Hashtbl.create 1024 in
  let per_client = Array.make clients [] and answers = Array.make clients [] in
  let client c () =
    let think = Rng.create ((seed * 7919) + c) in
    let continue_ = ref true in
    while !continue_ do
      Unix.sleepf (Rng.float think *. max_think_s);
      Mutex.lock lock;
      let i = !next in
      let go = (not (stop i)) && i < Array.length s.requests in
      if go then incr next;
      Mutex.unlock lock;
      if not go then continue_ := false
      else begin
        let path, body = route_body s s.requests.(i) in
        let sent = now () in
        let status, resp = http ~port ~meth:"POST" ~path body in
        let done_ = now () in
        let digest = Digest.string resp in
        Mutex.lock lock;
        if not (Hashtbl.mem bodies digest) then Hashtbl.replace bodies digest resp;
        Mutex.unlock lock;
        per_client.(c) <- { Stats.sent; done_ } :: per_client.(c);
        answers.(c) <- { idx = i; status; digest } :: answers.(c)
      end
    done
  in
  let threads = List.init clients (fun c -> Thread.create (client c) ()) in
  List.iter Thread.join threads;
  { answers = List.concat_map List.rev (Array.to_list answers);
    loop = Stats.closed_loop (Array.map List.rev per_client);
    bodies }

let prime (s : stream) ~(port : int) : (int * string) array =
  Array.map (fun t -> http ~port ~meth:"POST" ~path:"/optimize" t) s.hot

(* --- checking answers ---------------------------------------------------------------- *)

type reference = { schedule : int list; text : string }

(* [Inference.predict] on every module the answers name, parsed from the
   text that was sent, spread over nproc domains. *)
let references (s : stream) (ids : item list) : (item, reference) Hashtbl.t =
  let ids = Array.of_list (List.sort_uniq compare ids) in
  let agent = load_policy () in
  let texts = Array.map (item_text s) ids in
  let refs =
    Pool.with_pool ~jobs:(nproc ()) (fun pool ->
        Pool.map pool
          (fun text ->
            let r = C.Inference.predict ~agent ~actions ~target (Parser.parse_module text) in
            { schedule = r.C.Inference.actions;
              text = Printer.module_to_string r.C.Inference.optimized })
          texts)
  in
  let tbl = Hashtbl.create (Array.length ids) in
  Array.iteri (fun i id -> Hashtbl.replace tbl id refs.(i)) ids;
  tbl

let schedule_of (doc : Json.t) : int list option =
  match Json.member "schedule" doc with
  | Some (Json.Arr xs) ->
    let ints = List.filter_map (function Json.Int i -> Some i | _ -> None) xs in
    if List.length ints = List.length xs then Some ints else None
  | _ -> None

let check_doc refs (it : item) (doc : Json.t) : string option =
  let r = Hashtbl.find refs (item_id it) in
  if schedule_of doc <> Some r.schedule then Some "schedule differs from Inference.predict"
  else if Json.member "optimized_ir" doc <> Some (Json.Str r.text) then
    Some "optimized IR differs from Inference.predict"
  else None

let parse_json body = try Some (Json.of_string body) with _ -> None

let check (refs : (_, reference) Hashtbl.t) (req : request) ~(status : int)
    (body : string) : string option =
  match req, parse_json body with
  | _, None -> Some (Printf.sprintf "status %d with an unreadable body" status)
  | Malformed _, Some doc ->
    if status <> 400 then Some (Printf.sprintf "malformed body answered %d" status)
    else if (match Json.member "diagnostics" doc with Some (Json.Obj _) -> false | _ -> true)
    then Some "400 without the lint report"
    else None
  | _, Some _ when status <> 200 -> Some (Printf.sprintf "status %d" status)
  | Single it, Some doc -> check_doc refs it doc
  | Batch its, Some doc -> (
    match Json.member "results" doc with
    | Some (Json.Arr docs) when List.length docs = List.length its ->
      List.fold_left2
        (fun acc it d -> match acc with Some _ -> acc | None -> check_doc refs it d)
        None its docs
    | _ -> Some "batch answer without one result per module")

let request_ids = function
  | Single it -> [ item_id it ]
  | Batch its -> List.map item_id its
  | Malformed _ -> []

(* Check every answer, memoized on (request, body) — repeats of a hit
   return the same bytes. *)
let check_all (s : stream) (answers : answer list) (bodies : (string, string) Hashtbl.t) :
    int * string list =
  let refs =
    references s
      (List.init (Array.length s.hot) (fun k -> Hot k)
      @ List.concat_map (fun a -> request_ids s.requests.(a.idx)) answers)
  in
  let memo = Hashtbl.create 1024 in
  let failures = ref [] and failed = ref 0 in
  List.iter
    (fun a ->
      let req = s.requests.(a.idx) in
      let key = (req, a.status, a.digest) in
      let verdict =
        match Hashtbl.find_opt memo key with
        | Some v -> v
        | None ->
          let v = check refs req ~status:a.status (Hashtbl.find bodies a.digest) in
          Hashtbl.replace memo key v;
          v
      in
      Option.iter
        (fun msg ->
          incr failed;
          if List.length !failures < 20 then
            failures := Printf.sprintf "serve: request %d: %s" a.idx msg :: !failures)
        verdict)
    answers;
  (!failed, List.rev !failures)

let count p xs = List.length (List.filter p xs)

let json_number : Json.t option -> float = function
  | Some (Json.Float f) -> f
  | Some (Json.Int i) -> float_of_int i
  | _ -> nan

(* Size reduction the daemon reports for the hot set. *)
let hot_quality (primed : (int * string) array) : float =
  Stats.mean
    (Array.map
       (fun (_, body) ->
         json_number
           (Option.bind (Option.bind (parse_json body) (Json.member "deltas"))
              (Json.member "size_reduction_pct")))
       primed)

(* A field of the daemon's GET /serve statistics. *)
let stats_field (port : int) (key : string) : float =
  json_number (Option.bind (parse_json (snd (http ~port ~meth:"GET" ~path:"/serve" ""))) (Json.member key))

(* Bytes the answers would occupy in the cache (every module's document
   under its canonical and raw keys) over the cache bound. *)
let working_set_ratio (load : load) : float =
  let key = 32 in
  let total =
    Hashtbl.fold (fun _ body acc -> acc + (2 * (String.length body + key))) load.bodies 0
  in
  float_of_int total /. float_of_int Cache.default_max_bytes

(* --- machine speed ------------------------------------------------------------------------

   The daemon's work runs in another process, so the kernel of
   [Speed.table] cannot run between its items. A helper process (this
   executable with --speed-probe) runs it every [probe_interval_s]
   for as long as a rep's load lasts and reports each CPU time on a pipe;
   the rep's figures are corrected by the median reading. A reading in
   the client process itself would hold up the client threads. *)

let probe_interval_s = 0.25

(* The helper's reading on the 2-core Xeon container this was developed
   on. It sleeps between runs of the kernel, which then starts on cold
   caches and takes about twice its in-process reference time. *)
let helper_reference_s = 0.005

(* The helper's loop; it ends when the helper is killed. *)
let speed_probe () =
  while true do
    Printf.printf "%.9f\n%!" (Speed.probe Speed.table);
    Unix.sleepf probe_interval_s
  done

type prober = { ppid : int; readings : Unix.file_descr }

let start_prober () : prober =
  let rd, wr = Unix.pipe ~cloexec:true () in
  let exe = Sys.executable_name in
  let ppid = Unix.create_process exe [| exe; "--speed-probe" |] Unix.stdin wr Unix.stderr in
  Unix.close wr;
  { ppid; readings = rd }

(* Stops the helper, waits for it, and returns the median of its
   readings ([helper_reference_s] if it made none). *)
let stop_prober (p : prober) : float =
  (try Unix.kill p.ppid Sys.sigterm with Unix.Unix_error _ -> ());
  (try ignore (Unix.waitpid [] p.ppid) with Unix.Unix_error _ -> ());
  let ic = Unix.in_channel_of_descr p.readings in
  let xs = In_channel.input_all ic |> String.split_on_char '\n' |> List.filter_map float_of_string_opt in
  close_in ic;
  match xs with [] -> helper_reference_s | xs -> Stats.median (Array.of_list xs)

(* [f ()] with the helper running, and its median reading; the helper is
   stopped on every way out. *)
let with_prober (f : unit -> 'a) : 'a * float =
  let p = start_prober () in
  let reading = ref None in
  let stop () =
    match !reading with
    | Some r -> r
    | None ->
      let r = stop_prober p in
      reading := Some r;
      r
  in
  Fun.protect ~finally:(fun () -> ignore (stop ())) (fun () ->
      let v = f () in
      (v, stop ()))

(* --- end to end ------------------------------------------------------------------------ *)

type rep = {
  primed : (int * string) array;
  load : load;
  hit_pct : float;
  evictions : float;
  rss_mb : float;
  starts : float list;  (** wall seconds of the rep's two daemon starts *)
  slow : float;  (** the rep's median reading over [helper_reference_s] *)
}

(* Three reps of the same requests, each against a freshly started daemon
   (an empty cache); the first runs for a third of [seconds] and at
   least enough requests that, over the three reps, 10 latencies lie
   beyond the tail percentile. The percentiles are over every request of
   every rep, each timed by [Stats.closed_loop], and the rate is the
   median rep's. Every rep also starts and stops one daemon more, for
   set-up samples spread over the run. *)
let run (mix : mix) ~seed ~seconds ~exe : outcome =
  let s = make_stream mix ~seed in
  let reps = 3 in
  let min_requests = (Stats.min_samples ~p:mix.tail ~beyond:10 + reps - 1) / reps in
  let start_timed starts =
    let t0 = now () in
    let d = start ~exe in
    starts := (now () -. t0) :: !starts;
    d
  in
  let rep ~until =
    let starts = ref [] in
    stop (start_timed starts);
    let d = start_timed starts in
    Fun.protect ~finally:(fun () -> stop d) @@ fun () ->
    let primed = prime s ~port:d.port in
    let load, reading =
      with_prober (fun () -> drive s ~seed ~port:d.port ~clients:(nproc ()) ~stop:until)
    in
    { primed;
      load;
      starts = !starts;
      slow = reading /. helper_reference_s;
      hit_pct = stats_field d.port "cache_hit_pct";
      evictions = stats_field d.port "cache_evictions";
      rss_mb = peak_rss_mb ~pid:(string_of_int d.pid) () }
  in
  let deadline = now () +. (seconds /. float_of_int reps) in
  let first = rep ~until:(fun issued -> issued >= min_requests && now () >= deadline) in
  let n = List.length first.load.answers in
  let reps = first :: List.init (reps - 1) (fun _ -> rep ~until:(fun issued -> issued >= n)) in
  let answers = List.concat_map (fun r -> r.load.answers) reps in
  let bodies = Hashtbl.create 1024 in
  List.iter (fun r -> Hashtbl.iter (Hashtbl.replace bodies) r.load.bodies) reps;
  let failed, failures = check_all s answers bodies in
  let prime_failures =
    List.concat_map
      (fun r ->
        Array.to_list r.primed
        |> List.filter_map (fun (st, _) ->
               if st = 200 then None else Some (Printf.sprintf "serve: priming answered %d" st)))
      reps
  in
  (* each rep's figures corrected by its reading *)
  let lat =
    Array.concat
      (List.map (fun r -> Array.map (fun l -> l /. r.slow) r.load.loop.Stats.latencies_ms) reps)
  in
  let rps =
    Stats.median (Array.of_list (List.map (fun r -> r.load.loop.Stats.rps *. r.slow) reps))
  in
  let setups = List.concat_map (fun r -> List.map (fun t -> t /. r.slow) r.starts) reps in
  let raw_lat = Array.concat (List.map (fun r -> r.load.loop.Stats.latencies_ms) reps) in
  let raw_rps = Stats.median (Array.of_list (List.map (fun r -> r.load.loop.Stats.rps) reps)) in
  let p50 = Stats.percentile lat 0.5 and tail = Stats.percentile lat mix.tail in
  let tail_name = Printf.sprintf "serve_p%.0f_ms" (100.0 *. mix.tail) in
  let statuses = List.map (fun a -> a.status) answers in
  let attempted = List.length answers + List.fold_left (fun a r -> a + Array.length r.primed) 0 reps in
  let failed = failed + List.length prime_failures in
  let quality = hot_quality first.primed in
  { attempted;
    failed;
    metrics =
      [ ("setup_s", Stats.median (Array.of_list setups));
        ("peak_rss_mb", Stats.median (Array.of_list (List.map (fun r -> r.rss_mb) reps)));
        ("work_per_s", rps);
        ("latency_p50_ms", p50);
        ("latency_tail_ms", tail) ];
    report =
      [ ("serve_rps", rps, "1/s");
        ("serve_p50_ms", p50, "ms");
        (tail_name, tail, "ms");
        ("serve_rps_uncorrected", raw_rps, "1/s");
        ("serve_p50_ms_uncorrected", Stats.percentile raw_lat 0.5, "ms");
        (tail_name ^ "_uncorrected", Stats.percentile raw_lat mix.tail, "ms");
        ("speed_readings_over_reference",
         Stats.median (Array.of_list (List.map (fun r -> r.slow) reps)), "frac");
        ("requests_per_rep", float_of_int n, "count");
        ("latency_samples", float_of_int (Array.length lat), "count");
        ("samples_beyond_tail", float_of_int (Stats.beyond (Array.length lat) mix.tail), "count");
        ("reps", float_of_int (List.length reps), "count");
        ("clients", float_of_int (nproc ()), "count");
        ("cache_hit_frac", first.hit_pct /. 100.0, "frac");
        ("cache_evictions", first.evictions, "count");
        ("working_set_ratio", working_set_ratio first.load, "frac");
        ("rejected_429", float_of_int (count (( = ) 429) statuses), "count");
        ("server_errors_5xx", float_of_int (count (fun st -> st >= 500) statuses), "count");
        ("hot_size_reduction_pct", quality, "%");
        ("failed_frac", Stats.failed_frac ~attempted ~failed, "frac") ];
    failures = prime_failures @ failures }

(* --- traced ---------------------------------------------------------------------------

   The daemon's request handling ([Server.pump] into
   [Engine.optimize_many]) through the engine's public entry points and
   the layers below them, one request at a time in stream order. *)

let salt = String.concat "\x00" [ target.Posetrl_codegen.Target.name;
                                   string_of_int (O.Action_space.n_actions actions);
                                   string_of_int C.Environment.default_max_steps ]

let digest_key parts = Digest.to_hex (Digest.string (String.concat "\x00" parts))

type replica = {
  engine : Engine.t;
  agent : Rl.Dqn.t;
  mutable raw_hits : int;
  mutable raw_lookups : int;
  mutable inserted_bytes : int;
}

let admit (tr : Trace.t) (body : string) : (Engine.admitted, Json.t) result =
  Trace.with_ tr "serve.admit" (fun () ->
      match Trace.with_ tr "ir.parse" (fun () -> Parser.parse_module body) with
      | exception Parser.Parse_error msg ->
        Error (Json.Obj [ ("error", Json.Str "parse error"); ("detail", Json.Str msg);
                          ("diagnostics", Json.Arr []) ])
      | m -> (
        match Trace.with_ tr "analysis.sanitize" (fun () -> Sanitize.check_module Sanitize.Ssa m) with
        | [] ->
          let printed = Trace.with_ tr "ir.print" (fun () -> Printer.module_to_string m) in
          Ok { Engine.key = digest_key [ salt; printed ];
               raw_key = digest_key [ salt; "raw"; body ];
               m }
        | errs ->
          let diag =
            Trace.with_ tr "analysis.lint" (fun () ->
                Lint.to_json ~name:m.Modul.name (Lint.lint_module m))
          in
          Error
            (Json.Obj
               [ ("error", Json.Str "rejected by sanitizer");
                 ("sanitizer",
                  Json.Arr (List.map (fun e -> Json.Str (Posetrl_ir.Verifier.error_to_string e)) errs));
                 ("diagnostics", diag) ])))

type slot = {
  env : Layers.env;
  mutable state : float array;
  mutable taken : int list;  (** newest first *)
  mutable fin : bool;
}

(* [Engine.rollout_batch]: per episode step, one forward over every live
   module, the daemon's admission sanitizer re-checking every pass. *)
let rollout_batch (tr : Trace.t) (r : replica) (ms : Modul.t list) : (int list * Modul.t) list =
  Trace.with_ tr "serve.rollout_batch" (fun () ->
      let slots =
        List.map
          (fun m ->
            let env = Layers.env ~sanitize:Sanitize.Ssa ~target ~actions m in
            { env; state = Layers.reset tr env m; taken = []; fin = false })
          ms
      in
      let rec loop () =
        match Array.of_list (List.filter (fun sl -> not sl.fin) slots) with
        | [||] -> ()
        | live ->
          let q =
            Trace.with_ tr "nn.forward_batch" (fun () ->
                Nn.Mlp.forward_batch r.agent.Rl.Dqn.online
                  (Nn.Matrix.of_rows (Array.map (fun sl -> sl.state) live)))
          in
          Array.iteri
            (fun k sl ->
              let a = Posetrl_support.Vecf.argmax (Nn.Matrix.row q k) in
              sl.taken <- a :: sl.taken;
              let st = Layers.step tr sl.env a in
              sl.state <- st.Layers.state;
              sl.fin <- st.Layers.terminal)
            live;
          loop ()
      in
      loop ();
      List.map (fun sl -> (List.rev sl.taken, sl.env.Layers.current)) slots)

let encode (tr : Trace.t) (doc : Json.t) : string =
  Trace.with_ tr "obs.json_encode" (fun () -> Json.to_string doc)

(* [Engine.optimize_many]: canonical-key hits are free, misses share one
   rollout, and fresh answers are cached under both keys. *)
let optimize_many (tr : Trace.t) (r : replica) (adms : Engine.admitted list) : Json.t list =
  let cache = Engine.cache r.engine in
  let found = List.map (fun (a : Engine.admitted) -> Cache.find cache a.Engine.key) adms in
  let misses =
    List.fold_left2
      (fun acc (a : Engine.admitted) f ->
        if f = None && not (List.mem_assoc a.Engine.key acc) then acc @ [ (a.Engine.key, a.Engine.m) ]
        else acc)
      [] adms found
  in
  let computed = Hashtbl.create 8 in
  if misses <> [] then
    List.iter2
      (fun (key, input) (schedule, optimized) ->
        let doc =
          Trace.with_ tr "serve.result_json" (fun () ->
              Engine.result_json r.engine ~input ~schedule ~optimized)
        in
        let bytes = String.length (encode tr doc) + String.length key in
        Cache.add cache ~key ~bytes doc;
        r.inserted_bytes <- r.inserted_bytes + bytes;
        Hashtbl.replace computed key (doc, bytes))
      misses
      (rollout_batch tr r (List.map snd misses));
  List.map2
    (fun (a : Engine.admitted) f ->
      match f with
      | Some doc -> doc
      | None ->
        let doc, bytes = Hashtbl.find computed a.Engine.key in
        Cache.add cache ~key:a.Engine.raw_key ~bytes doc;
        r.inserted_bytes <- r.inserted_bytes + bytes;
        doc)
    adms found

(* One request as the daemon answers it: (status, document). *)
let handle (tr : Trace.t) (r : replica) (path, body) : int * Json.t =
  if path = "/optimize" then begin
    r.raw_lookups <- r.raw_lookups + 1;
    match Trace.with_ tr "serve.find_raw" (fun () -> Engine.find_raw r.engine body) with
    | Some doc ->
      r.raw_hits <- r.raw_hits + 1;
      (200, doc)
    | None -> (
      match admit tr body with
      | Error diag -> (400, diag)
      | Ok adm -> (200, List.hd (optimize_many tr r [ adm ])))
  end
  else
    match Json.of_string body with
    | Json.Arr items ->
      let adms =
        List.map (function Json.Str t -> admit tr t | _ -> invalid_arg "batch item") items
      in
      let docs =
        ref (optimize_many tr r (List.filter_map (function Ok a -> Some a | Error _ -> None) adms))
      in
      let results =
        List.map
          (function
            | Ok _ ->
              let d = List.hd !docs in
              docs := List.tl !docs;
              d
            | Error diag -> diag)
          adms
      in
      (200, Json.Obj [ ("kind", Json.Str "optimize-batch-result"); ("results", Json.Arr results) ])
    | _ -> (400, Json.Null)

(* Priming plus the first [traced_requests] of the stream, answered in
   order; returns each answer's status and encoded document. *)
let replay (tr : Trace.t) ~traced_requests (s : stream) (agent : Rl.Dqn.t) =
  let r =
    { engine = Engine.create ~agent ~actions ~target ();
      agent; raw_hits = 0; raw_lookups = 0; inserted_bytes = 0 }
  in
  let answer g req =
    Trace.in_group tr g (fun () ->
        Trace.with_ tr "serve.request" (fun () ->
            let status, doc = handle tr r req in
            (status, encode tr doc)))
  in
  let primed = Array.mapi (fun k t -> answer (-1 - k) ("/optimize", t)) s.hot in
  let answers = Array.init traced_requests (fun i -> answer i (route_body s s.requests.(i))) in
  (r, primed, answers)

let run_traced (mix : mix) ~seed ~exe : outcome * Trace.span list =
  let traced_requests = mix.traced_requests in
  let s = make_stream mix ~seed in
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun m -> failures := m :: !failures) fmt in
  (* the daemon on the same requests, for the answers and its counters *)
  let load, hit_pct, evictions, batch_mean, quality =
    let d = start ~exe in
    Fun.protect ~finally:(fun () -> stop d) @@ fun () ->
    let primed = prime s ~port:d.port in
    let load =
      drive s ~seed ~port:d.port ~clients:(nproc ()) ~stop:(fun issued -> issued >= traced_requests)
    in
    let exposition = snd (http ~port:d.port ~meth:"GET" ~path:"/metrics" "") in
    let metric name =
      List.find_map
        (fun l -> try Scanf.sscanf l (name ^^ " %f") Option.some with _ -> None)
        (String.split_on_char '\n' exposition)
      |> Option.value ~default:0.0
    in
    ( load,
      stats_field d.port "cache_hit_pct",
      stats_field d.port "cache_evictions",
      metric "posetrl_serve_batch_size_sum" /. Float.max 1.0 (metric "posetrl_serve_batch_size_count"),
      hot_quality primed )
  in
  let agent = load_policy () in
  let t = traced_pairs ~root:"serve" (fun tr -> replay tr ~traced_requests s agent) in
  let r, _, answers = t.value in
  (* the replica's key formulas must be the engine's *)
  let m0 = Parser.parse_module s.hot.(0) in
  if Engine.key_of r.engine m0 <> digest_key [ salt; Printer.module_to_string m0 ] then
    fail "serve: replica cache key differs from Engine.key_of";
  if Engine.find_raw r.engine s.hot.(0) = None then
    fail "serve: replica raw key differs from Engine.find_raw's";
  (* same schedules and optimized modules as the daemon, request by request *)
  List.iter
    (fun (a : answer) ->
      let status, text = answers.(a.idx) in
      let daemon = Hashtbl.find load.bodies a.digest in
      let modules body =
        match parse_json body with
        | Some doc -> (
          match Json.member "results" doc with
          | Some (Json.Arr ds) -> List.map (fun d -> (schedule_of d, Json.member "optimized_ir" d)) ds
          | _ -> [ (schedule_of doc, Json.member "optimized_ir" doc) ])
        | None -> []
      in
      if status <> a.status then fail "serve: request %d: replica %d, daemon %d" a.idx status a.status
      else if modules text <> modules daemon then
        fail "serve: request %d: replica schedule or module differs from the daemon's" a.idx)
    load.answers;
  let n_failed, check_failures = check_all s load.answers load.bodies in
  let statuses = List.map (fun a -> a.status) load.answers in
  ( { attempted = traced_requests;
      failed = n_failed + List.length !failures;
      metrics =
        traced_metrics t
        @ [ ("serve.raw_hit_frac", float_of_int r.raw_hits /. float_of_int (max 1 r.raw_lookups));
            ("serve.cache_hit_frac", hit_pct /. 100.0);
            ("serve.evictions", evictions);
            ("serve.batch_size_mean", batch_mean);
            ("serve.rejected_429", float_of_int (count (( = ) 429) statuses));
            ("serve.working_set_ratio",
             float_of_int r.inserted_bytes /. float_of_int Cache.default_max_bytes);
            ("serve.size_reduction_pct", quality) ];
      report = [ ("requests", float_of_int traced_requests, "count") ];
      failures = List.rev !failures @ check_failures },
    t.spans )
