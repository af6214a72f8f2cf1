(* The per-sample reference path for the neural-network tests: one
   matvec chain forward and one outer-product accumulate backward per
   sample, samples in ascending order. The library trains only through
   the batched gemm path ([Mlp.forward_batch_cached]/[backward_batch]);
   this is the arithmetic that path must reproduce float for float. *)

open Posetrl_support
open Posetrl_nn
module Rl = Posetrl_rl

(* y = Mᵀ x, skipping rows where x is zero *)
let matvec_t (m : Matrix.t) (x : float array) : float array =
  if Array.length x <> m.Matrix.rows then invalid_arg "matvec_t: dimension mismatch";
  let y = Array.make m.Matrix.cols 0.0 in
  for i = 0 to m.Matrix.rows - 1 do
    let base = i * m.Matrix.cols in
    let xi = x.(i) in
    if xi <> 0.0 then
      for j = 0 to m.Matrix.cols - 1 do
        y.(j) <- y.(j) +. (m.Matrix.data.(base + j) *. xi)
      done
  done;
  y

(* M <- M + k * (a ⊗ b), skipping rows where k * a is zero *)
let outer_add (m : Matrix.t) ~(k : float) (a : float array) (b : float array) =
  if Array.length a <> m.Matrix.rows || Array.length b <> m.Matrix.cols then
    invalid_arg "outer_add: dimension mismatch";
  for i = 0 to m.Matrix.rows - 1 do
    let base = i * m.Matrix.cols in
    let ai = k *. a.(i) in
    if ai <> 0.0 then
      for j = 0 to m.Matrix.cols - 1 do
        m.Matrix.data.(base + j) <- m.Matrix.data.(base + j) +. (ai *. b.(j))
      done
  done

type cache = {
  input : float array;
  pre : float array; (* pre-activation *)
}

let layer_forward (l : Layer.t) (x : float array) : float array * cache =
  let pre = Matrix.matvec l.Layer.w x in
  Array.iteri (fun i b -> pre.(i) <- pre.(i) +. b) l.Layer.b;
  let out =
    if l.Layer.relu then Array.map (fun v -> if v > 0.0 then v else 0.0) pre
    else Array.copy pre
  in
  (out, { input = x; pre })

(* Accumulates gradients; returns dL/dinput. *)
let layer_backward (l : Layer.t) (c : cache) (dout : float array) : float array =
  let dpre =
    if l.Layer.relu then Array.mapi (fun i d -> if c.pre.(i) > 0.0 then d else 0.0) dout
    else dout
  in
  outer_add l.Layer.gw ~k:1.0 dpre c.input;
  Array.iteri (fun i d -> l.Layer.gb.(i) <- l.Layer.gb.(i) +. d) dpre;
  matvec_t l.Layer.w dpre

let forward_cached (net : Mlp.t) (x : float array) : float array * cache array =
  let caches = Array.make (Array.length net.Mlp.layers) { input = x; pre = x } in
  let out = ref x in
  Array.iteri
    (fun k l ->
      let o, c = layer_forward l !out in
      caches.(k) <- c;
      out := o)
    net.Mlp.layers;
  (!out, caches)

(* Backpropagate dL/doutput, accumulating parameter gradients. *)
let backward (net : Mlp.t) (caches : cache array) (dout : float array) : unit =
  let d = ref dout in
  for k = Array.length net.Mlp.layers - 1 downto 0 do
    d := layer_backward net.Mlp.layers.(k) caches.(k) !d
  done

(* --- a per-sample DQN train step ------------------------------------------ *)

(* TD target of one transition (double DQN: online picks, target scores) *)
let td_target (agent : Rl.Dqn.t) (tr : Rl.Replay.transition) : float =
  match tr.Rl.Replay.next_state with
  | None -> tr.Rl.Replay.reward
  | Some s' ->
    let future =
      if agent.Rl.Dqn.double then
        let a' = Vecf.argmax (Mlp.forward agent.Rl.Dqn.online s') in
        (Mlp.forward agent.Rl.Dqn.target s').(a')
      else Vecf.max_elt (Mlp.forward agent.Rl.Dqn.target s')
    in
    tr.Rl.Replay.reward +. (agent.Rl.Dqn.gamma *. future)

(* What [Dqn.train_batch] computes, one sample at a time: targets, then
   per-sample forward/backward of the mean Huber loss, then one Adam
   step. Returns the mean loss. *)
let train_step (agent : Rl.Dqn.t) (batch : Rl.Replay.transition array) : float =
  let n = Array.length batch in
  let targets = Array.map (td_target agent) batch in
  let net = agent.Rl.Dqn.online in
  Mlp.zero_grad net;
  let total = ref 0.0 in
  Array.iteri
    (fun i tr ->
      let q, caches = forward_cached net tr.Rl.Replay.state in
      let a = tr.Rl.Replay.action in
      let loss, dpred = Loss.huber ~pred:q.(a) ~target:targets.(i) () in
      total := !total +. loss;
      let dout = Array.make (Array.length q) 0.0 in
      dout.(a) <- dpred /. float_of_int n;
      backward net caches dout)
    batch;
  Optim.step agent.Rl.Dqn.optim net;
  !total /. float_of_int n
