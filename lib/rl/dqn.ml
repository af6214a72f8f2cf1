(* Deep Q-Network agent with the Double-DQN target (paper §II-B).

   Two networks: the online network selects actions and is trained every
   step-batch; the target network scores the action the online network
   picked for the next state — the van Hasselt fix for Q-value
   overestimation. Plain DQN (target network both selects and scores) is
   kept for the ablation bench. *)

open Posetrl_support
open Posetrl_nn
module Obs = Posetrl_obs

let m_forwards = Obs.Metrics.counter "posetrl.dqn.forwards"
let m_batches = Obs.Metrics.counter "posetrl.dqn.train_batches"
let m_syncs = Obs.Metrics.counter "posetrl.dqn.target_syncs"

(* Q-value drift diagnostics, refreshed on every online forward (the
   fold is ~n_actions float ops — noise next to the MLP itself). A
   runaway q_max under a falling loss is the classic overestimation
   signature these exist to surface live (`/metrics`). *)
let m_q_mean = Obs.Metrics.gauge "posetrl.dqn.q_mean"
let m_q_max = Obs.Metrics.gauge "posetrl.dqn.q_max"

type t = {
  online : Mlp.t;
  target : Mlp.t;
  optim : Optim.t;
  gamma : float;
  n_actions : int;
  double : bool;
  pool : Pool.t option;
  (* when set, the batch dimension of the gemm kernels is split across
     the pool's domains; row partitioning keeps the arithmetic
     byte-identical to the serial path *)
  mutable train_steps : int;
}

let create ?(gamma = 0.99) ?(lr = 1e-4) ?(double = true) ?pool (rng : Rng.t)
    ~(state_dim : int) ~(hidden : int list) ~(n_actions : int) : t =
  let dims = (state_dim :: hidden) @ [ n_actions ] in
  let online = Mlp.create rng dims in
  let target = Mlp.create rng dims in
  Mlp.copy_params ~src:online ~dst:target;
  { online;
    target;
    optim = Optim.create ~lr ();
    gamma;
    n_actions;
    double;
    pool;
    train_steps = 0 }

let q_values (t : t) (state : float array) : float array =
  Obs.Metrics.inc m_forwards;
  let q = Mlp.forward t.online state in
  if Array.length q > 0 then begin
    let sum = ref 0.0 and mx = ref neg_infinity in
    Array.iter
      (fun v ->
        sum := !sum +. v;
        if v > !mx then mx := v)
      q;
    Obs.Metrics.set m_q_mean (!sum /. float_of_int (Array.length q));
    Obs.Metrics.set m_q_max !mx
  end;
  q

let greedy_action (t : t) (state : float array) : int =
  Vecf.argmax (q_values t state)

let select_action (t : t) (rng : Rng.t) ~(epsilon : float) (state : float array) : int =
  if Rng.float rng < epsilon then Rng.int rng t.n_actions
  else greedy_action t state

(* First index of a maximal element of row [k] — [Vecf.argmax] of that
   row, read in place. *)
let row_argmax (m : Matrix.t) (k : int) : int =
  let base = k * m.Matrix.cols and d = m.Matrix.data in
  let best = ref 0 in
  for j = 1 to m.Matrix.cols - 1 do
    if d.(base + j) > d.(base + !best) then best := j
  done;
  !best

(* TD targets for a whole batch: gather the non-terminal next states
   into one matrix and run the target (and, for double DQN, the online)
   network once — two gemm sweeps replace 2n matvec chains. *)
let td_targets (t : t) (batch : Replay.transition array) : float array =
  let n = Array.length batch in
  let targets = Array.make n 0.0 in
  (* the k-th live transition is batch.(idx.(k)), its next state rows.(k) *)
  let idx = Array.make n 0 and rows = Array.make n [||] and live = ref 0 in
  Array.iteri
    (fun i tr ->
      targets.(i) <- tr.Replay.reward;
      match tr.Replay.next_state with
      | Some s' ->
        idx.(!live) <- i;
        rows.(!live) <- s';
        incr live
      | None -> ())
    batch;
  if !live > 0 then begin
    let s' = Matrix.of_rows (Array.sub rows 0 !live) in
    let q_tgt = Mlp.forward_batch ?pool:t.pool t.target s' in
    let q_onl = if t.double then Mlp.forward_batch ?pool:t.pool t.online s' else q_tgt in
    for k = 0 to !live - 1 do
      (* double: the online net picks a', the target net scores it *)
      let future = Matrix.get q_tgt k (row_argmax q_onl k) in
      targets.(idx.(k)) <- targets.(idx.(k)) +. (t.gamma *. future)
    done
  end;
  targets

(* One gradient step over a sampled batch; returns mean Huber loss.
   True minibatch: one batched forward/backward (a handful of gemms)
   instead of n per-sample matvec chains. *)
let train_batch (t : t) (batch : Replay.transition array) : float =
  let n = Array.length batch in
  if n = 0 then 0.0
  else
    Obs.Span.with_ "posetrl.dqn.train_batch"
      ~attrs:[ ("batch", Obs.Event.I n) ]
      (fun sp ->
        Obs.Metrics.inc m_batches;
        Mlp.zero_grad t.online;
        let targets = td_targets t batch in
        let x = Matrix.of_rows (Array.map (fun tr -> tr.Replay.state) batch) in
        let q, caches = Mlp.forward_batch_cached ?pool:t.pool t.online x in
        let total = ref 0.0 in
        let dout = Matrix.create n t.n_actions in
        for i = 0 to n - 1 do
          let a = batch.(i).Replay.action in
          let loss, dpred =
            Loss.huber ~pred:(Matrix.get q i a) ~target:targets.(i) ()
          in
          total := !total +. loss;
          Matrix.set dout i a (dpred /. float_of_int n)
        done;
        Mlp.backward_batch ?pool:t.pool t.online caches dout;
        Optim.step t.optim t.online;
        t.train_steps <- t.train_steps + 1;
        let mean = !total /. float_of_int n in
        Obs.Span.set_attr sp "loss" (Obs.Event.F mean);
        mean)

(* NaN/Inf scan of the online network's parameters — the watchdog's
   weight-health vital sign. O(params), cheap at tick cadence. *)
let weights_finite (t : t) : bool =
  Array.for_all
    (fun (l : Layer.t) ->
      Array.for_all Float.is_finite l.Layer.w.Matrix.data
      && Array.for_all Float.is_finite l.Layer.b)
    t.online.Mlp.layers

let sync_target (t : t) =
  Obs.Metrics.inc m_syncs;
  Obs.Span.with_ "posetrl.dqn.sync" (fun _ ->
      Mlp.copy_params ~src:t.online ~dst:t.target)

(* --- persistence ---------------------------------------------------------

   Weights serialize to a plain text format so trained models can be
   saved from the CLI and reloaded by the bench. *)

let save_weights (t : t) (path : string) : unit =
  let oc = open_out path in
  let net = t.online in
  Printf.fprintf oc "posetrl-dqn %d\n" (Array.length net.Mlp.dims);
  Array.iter (fun d -> Printf.fprintf oc "%d " d) net.Mlp.dims;
  output_char oc '\n';
  Array.iter
    (fun (l : Layer.t) ->
      Array.iter (fun w -> Printf.fprintf oc "%h " w) l.Layer.w.Matrix.data;
      output_char oc '\n';
      Array.iter (fun b -> Printf.fprintf oc "%h " b) l.Layer.b;
      output_char oc '\n')
    net.Mlp.layers;
  close_out oc

let load_weights (t : t) (path : string) : unit =
  let ic = open_in path in
  let header = input_line ic in
  if not (String.length header > 11 && String.sub header 0 11 = "posetrl-dqn") then
    failwith "Dqn.load_weights: bad header";
  let dims_line = input_line ic in
  let dims =
    String.split_on_char ' ' (String.trim dims_line) |> List.map int_of_string
  in
  if dims <> Array.to_list t.online.Mlp.dims then
    failwith "Dqn.load_weights: architecture mismatch";
  Array.iter
    (fun (l : Layer.t) ->
      let wline = input_line ic in
      let ws = String.split_on_char ' ' (String.trim wline) in
      List.iteri
        (fun i s -> if i < Array.length l.Layer.w.Matrix.data then
            l.Layer.w.Matrix.data.(i) <- float_of_string s)
        ws;
      let bline = input_line ic in
      let bs = String.split_on_char ' ' (String.trim bline) in
      List.iteri
        (fun i s -> if i < Array.length l.Layer.b then l.Layer.b.(i) <- float_of_string s)
        bs)
    t.online.Mlp.layers;
  close_in ic;
  sync_target t
