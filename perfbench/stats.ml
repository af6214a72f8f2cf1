(* The benchmark's own arithmetic: order statistics, the tail percentile a
   sample can support, failure fractions and closed-loop latency
   accounting. Kept free of any dependency on the system under test so
   the test suite next to it can pin every formula. *)

let sorted (xs : float array) : float array =
  let a = Array.copy xs in
  Array.sort compare a;
  a

(* Median with the usual midpoint for an even count; 0 on no samples. *)
let median (xs : float array) : float =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then 0.0
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Nearest-rank percentile ([p] in [0, 1]): the smallest sample with at
   least [p * n] samples at or below it. *)
let rank (n : int) (p : float) : int =
  max 1 (min n (int_of_float (Float.ceil ((p *. float_of_int n) -. 1e-9))))

let percentile (xs : float array) (p : float) : float =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then 0.0 else a.(rank n p - 1)

(* Harrell-Davis estimate of the [p] quantile: a weighted mean of all the
   order statistics, the weight of the i-th (of n) being the mass of a
   Beta(p (n + 1), (1 - p) (n + 1)) distribution on [(i - 1)/n, i/n]. It
   moves smoothly where the nearest-rank percentile of a few samples
   jumps from one sample to the next. The masses are integrated
   numerically (midpoint rule) and normalized to sum to 1. *)
let harrell_davis (xs : float array) (p : float) : float =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then 0.0
  else if n = 1 then a.(0)
  else begin
    let alpha = p *. float_of_int (n + 1) and beta = (1.0 -. p) *. float_of_int (n + 1) in
    let log_density x = ((alpha -. 1.0) *. log x) +. ((beta -. 1.0) *. log (1.0 -. x)) in
    let mode = Float.min 0.999 (Float.max 0.001 ((alpha -. 1.0) /. (alpha +. beta -. 2.0))) in
    let top = log_density mode in
    let steps = 64 in
    let w =
      Array.init n (fun i ->
          let lo = float_of_int i /. float_of_int n and h = 1.0 /. float_of_int (n * steps) in
          let acc = ref 0.0 in
          for k = 0 to steps - 1 do
            acc := !acc +. exp (log_density (lo +. ((float_of_int k +. 0.5) *. h)) -. top)
          done;
          !acc)
    in
    let total = Array.fold_left ( +. ) 0.0 w in
    let est = ref 0.0 in
    Array.iteri (fun i wi -> est := !est +. (wi *. a.(i))) w;
    !est /. total
  end

(* Samples strictly beyond the nearest-rank [p] percentile of [n]. *)
let beyond (n : int) (p : float) : int = if n = 0 then 0 else n - rank n p

(* The fewest samples that leave [beyond] of them past the [p]
   percentile, so a reported tail is never set by a handful of samples. *)
let min_samples ~(p : float) ~(beyond : int) : int =
  let rec go n = if n - rank n p >= beyond then n else go (n + 1) in
  go (max 1 beyond)

(* Element-wise median of equally long profiles: the per-segment times
   of repeated runs of identical work. A disturbance that hit one run at
   one segment drops out. *)
let median_profile (runs : float array list) : float array =
  match runs with
  | [] -> [||]
  | r :: _ ->
    let runs = Array.of_list runs in
    Array.init (Array.length r) (fun i -> median (Array.map (fun run -> run.(i)) runs))

(* How many repetitions of a unit of work that nominally takes [nominal]
   seconds fit in [seconds], and at least 3: fixed by the arguments, so
   it stays the same when the code gets faster or slower. *)
let reps_for ~(seconds : float) ~(nominal : float) : int =
  max 3 (int_of_float (seconds /. nominal))

let mean (xs : float array) : float =
  let n = Array.length xs in
  if n = 0 then 0.0 else Array.fold_left ( +. ) 0.0 xs /. float_of_int n

(* Failed over attempted operations; a run that attempted nothing has
   failed outright. *)
let failed_frac ~(attempted : int) ~(failed : int) : float =
  if attempted <= 0 then 1.0 else float_of_int failed /. float_of_int attempted

(* --- closed-loop clients ---------------------------------------------------

   Each client sends its next request only after the previous reply, so
   a request's latency runs from its own send to its own reply; the
   pause a client takes between requests is not latency. Throughput is
   replies over the window from the first send to the last reply. *)

type request = { sent : float; done_ : float }

type closed_loop = {
  completed : int;
  latencies_ms : float array;  (** per request, all clients, send order *)
  window_s : float;
  rps : float;
}

exception Not_closed of int

(* [clients.(c)] lists client [c]'s requests in the order it sent them.
   @raise Not_closed [c] if client [c] ever had two requests in flight. *)
let closed_loop (clients : request list array) : closed_loop =
  let first = ref infinity and last = ref neg_infinity in
  let lats = ref [] in
  Array.iteri
    (fun c reqs ->
      ignore
        (List.fold_left
           (fun prev_done r ->
             if r.sent < prev_done || r.done_ < r.sent then raise (Not_closed c);
             first := Float.min !first r.sent;
             last := Float.max !last r.done_;
             lats := (r.sent, 1000.0 *. (r.done_ -. r.sent)) :: !lats;
             r.done_)
           neg_infinity reqs))
    clients;
  let lats = List.sort compare !lats |> List.map snd |> Array.of_list in
  let n = Array.length lats in
  let window_s = if n = 0 then 0.0 else !last -. !first in
  { completed = n;
    latencies_ms = lats;
    window_s;
    rps = (if window_s > 0.0 then float_of_int n /. window_s else 0.0) }
