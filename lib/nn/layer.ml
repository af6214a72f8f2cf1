(* A fully-connected layer with Adam state and optional ReLU. *)

open Posetrl_support

type t = {
  w : Matrix.t;
  b : float array;
  relu : bool;
  (* gradient accumulators *)
  gw : Matrix.t;
  gb : float array;
  (* Adam moments *)
  mw : Matrix.t;
  vw : Matrix.t;
  mb : float array;
  vb : float array;
}

(* He initialization for ReLU layers, Xavier otherwise. *)
let create (rng : Rng.t) ~in_dim ~out_dim ~relu =
  let scale =
    if relu then sqrt (2.0 /. float_of_int in_dim)
    else sqrt (1.0 /. float_of_int in_dim)
  in
  { w = Matrix.init out_dim in_dim (fun _ _ -> Rng.normal rng *. scale);
    b = Array.make out_dim 0.0;
    relu;
    gw = Matrix.create out_dim in_dim;
    gb = Array.make out_dim 0.0;
    mw = Matrix.create out_dim in_dim;
    vw = Matrix.create out_dim in_dim;
    mb = Array.make out_dim 0.0;
    vb = Array.make out_dim 0.0 }

(* One sample: [relu (w x + b)], the inference path ([Dqn.q_values]).
   Here and in the batched path ReLU is [v > 0.0 ? v : 0.0], so NaN and
   -0.0 map to +0.0, written as loops over the float arrays: [Array.map]
   would box every element. *)
let forward (l : t) (x : float array) : float array =
  let y = Matrix.matvec l.w x in
  for i = 0 to Array.length y - 1 do
    let v = y.(i) +. l.b.(i) in
    y.(i) <- (if l.relu && not (v > 0.0) then 0.0 else v)
  done;
  y

(* --- minibatch path --------------------------------------------------------

   One gemm per layer instead of one matvec per sample: rows are batch
   elements. Term order per output element matches the per-sample loop
   (ascending input index forward, ascending sample index into the
   gradients), so switching batch sizes or enabling the pool never
   changes the arithmetic — see DESIGN.md §9. *)

type bcache = {
  binput : Matrix.t; (* batch x in_dim *)
  bpre : Matrix.t;   (* batch x out_dim, pre-activation *)
}

let forward_batch ?pool (l : t) (x : Matrix.t) : Matrix.t * bcache =
  if x.Matrix.cols <> l.w.Matrix.cols then
    invalid_arg "Layer.forward_batch: dimension mismatch";
  let pre = Matrix.gemm_nt ?pool x l.w in
  let out_dim = l.w.Matrix.rows in
  let pd = pre.Matrix.data in
  for i = 0 to pre.Matrix.rows - 1 do
    let base = i * out_dim in
    for j = 0 to out_dim - 1 do
      pd.(base + j) <- pd.(base + j) +. l.b.(j)
    done
  done;
  let out =
    if l.relu then begin
      let o = Matrix.create pre.Matrix.rows out_dim in
      for i = 0 to Array.length pd - 1 do
        let v = pd.(i) in
        if v > 0.0 then o.Matrix.data.(i) <- v
      done;
      o
    end
    else Matrix.copy pre
  in
  (out, { binput = x; bpre = pre })

(* The parameter-gradient half of the backward pass: accumulates the
   batch's weight and bias gradients from per-row dL/doutput and returns
   dL/dpre (dout through the ReLU mask). The other half, dL/dinput, is
   [dpre · w] ([Mlp.backward_batch]). *)
let param_grads_batch (l : t) (c : bcache) (dout : Matrix.t) : Matrix.t =
  let dpre =
    if l.relu then begin
      let m = Matrix.create dout.Matrix.rows dout.Matrix.cols in
      let pd = c.bpre.Matrix.data and dd = dout.Matrix.data in
      for i = 0 to Array.length dd - 1 do
        if pd.(i) > 0.0 then m.Matrix.data.(i) <- dd.(i)
      done;
      m
    end
    else dout
  in
  Matrix.gemm_tn_acc l.gw dpre c.binput;
  let out_dim = dpre.Matrix.cols in
  for i = 0 to dpre.Matrix.rows - 1 do
    let base = i * out_dim in
    for j = 0 to out_dim - 1 do
      l.gb.(j) <- l.gb.(j) +. dpre.Matrix.data.(base + j)
    done
  done;
  dpre

let zero_grad (l : t) =
  Matrix.fill_zero l.gw;
  Array.fill l.gb 0 (Array.length l.gb) 0.0

(* Copy parameters from [src] (used for target-network sync). *)
let copy_params ~(src : t) ~(dst : t) =
  Array.blit src.w.Matrix.data 0 dst.w.Matrix.data 0 (Array.length src.w.Matrix.data);
  Array.blit src.b 0 dst.b 0 (Array.length src.b)
