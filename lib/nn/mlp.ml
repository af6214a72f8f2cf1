(* Multi-layer perceptron: the DQN's Q-function approximator. *)

open Posetrl_support

type t = {
  layers : Layer.t array;
  dims : int array; (* in_dim :: hidden... :: out_dim *)
}

(* [create rng [300;128;64;34]] builds ReLU hidden layers and a linear
   output layer. *)
let create (rng : Rng.t) (dims : int list) : t =
  let dims = Array.of_list dims in
  if Array.length dims < 2 then invalid_arg "Mlp.create: need at least 2 dims";
  let n = Array.length dims - 1 in
  let layers =
    Array.init n (fun k ->
        Layer.create rng ~in_dim:dims.(k) ~out_dim:dims.(k + 1) ~relu:(k < n - 1))
  in
  { layers; dims }

let forward (net : t) (x : float array) : float array =
  Array.fold_left (fun x l -> Layer.forward l x) x net.layers

(* --- minibatch path: one gemm per layer over the whole batch ------------- *)

type bcaches = Layer.bcache array

let forward_batch_cached ?pool (net : t) (x : Matrix.t) : Matrix.t * bcaches =
  let n = Array.length net.layers in
  let caches = Array.make n { Layer.binput = x; Layer.bpre = x } in
  let out = ref x in
  Array.iteri
    (fun k l ->
      let o, c = Layer.forward_batch ?pool l !out in
      caches.(k) <- c;
      out := o)
    net.layers;
  (!out, caches)

let forward_batch ?pool (net : t) (x : Matrix.t) : Matrix.t =
  fst (forward_batch_cached ?pool net x)

(* Backpropagate per-row dL/doutput, accumulating parameter gradients
   over the whole batch. Below each layer but the first, the next
   layer's dL/doutput is this one's dL/dinput = dpre · w; the network's
   own input needs no gradient, so layer 0 skips that product. *)
let backward_batch ?pool (net : t) (caches : bcaches) (dout : Matrix.t) : unit =
  let rec back k d =
    let l = net.layers.(k) in
    let dpre = Layer.param_grads_batch l caches.(k) d in
    if k > 0 then back (k - 1) (Matrix.gemm ?pool dpre l.Layer.w)
  in
  back (Array.length net.layers - 1) dout

let zero_grad (net : t) = Array.iter Layer.zero_grad net.layers

let copy_params ~(src : t) ~(dst : t) =
  Array.iteri (fun k l -> Layer.copy_params ~src:l ~dst:dst.layers.(k)) src.layers

(* parameter count, for reporting *)
let param_count (net : t) : int =
  Array.fold_left
    (fun acc (l : Layer.t) ->
      acc + Array.length l.Layer.w.Matrix.data + Array.length l.Layer.b)
    0 net.layers
