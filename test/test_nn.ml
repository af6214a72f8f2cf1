(* Tests for the neural-network substrate: matrices, layers (gradient
   check against finite differences), MLP training, Adam. *)

open Posetrl_support
open Posetrl_nn

let check_float = Alcotest.(check (float 1e-6))

let test_matvec () =
  let m = Matrix.init 2 3 (fun i j -> float_of_int ((i * 3) + j + 1)) in
  (* [[1 2 3];[4 5 6]] * [1;1;1] = [6;15] *)
  let y = Matrix.matvec m [| 1.0; 1.0; 1.0 |] in
  check_float "y0" 6.0 y.(0);
  check_float "y1" 15.0 y.(1)

let test_matvec_t () =
  let m = Matrix.init 2 3 (fun i j -> float_of_int ((i * 3) + j + 1)) in
  let y = Nn_oracle.matvec_t m [| 1.0; 1.0 |] in
  check_float "col sums" 5.0 y.(0);
  check_float "col sums" 7.0 y.(1);
  check_float "col sums" 9.0 y.(2)

let test_outer_add () =
  let m = Matrix.create 2 2 in
  Nn_oracle.outer_add m ~k:2.0 [| 1.0; 3.0 |] [| 4.0; 5.0 |];
  check_float "m00" 8.0 (Matrix.get m 0 0);
  check_float "m11" 30.0 (Matrix.get m 1 1)

let test_layer_forward_relu () =
  let rng = Rng.create 1 in
  let l = Layer.create rng ~in_dim:2 ~out_dim:2 ~relu:true in
  (* force known weights *)
  Matrix.set l.Layer.w 0 0 1.0;
  Matrix.set l.Layer.w 0 1 0.0;
  Matrix.set l.Layer.w 1 0 0.0;
  Matrix.set l.Layer.w 1 1 (-1.0);
  l.Layer.b.(0) <- 0.5;
  l.Layer.b.(1) <- 0.0;
  let out = Layer.forward l [| 1.0; 2.0 |] in
  check_float "relu passes positive" 1.5 out.(0);
  check_float "relu clamps negative" 0.0 out.(1)

(* numerical gradient check of a 2-layer MLP on a scalar loss *)
let test_gradient_check () =
  let rng = Rng.create 13 in
  let net = Mlp.create rng [ 3; 4; 2 ] in
  let x = [| 0.3; -0.8; 0.5 |] in
  let target = 1 in
  let loss_of () =
    let out = Mlp.forward net x in
    let l, _ = Loss.huber ~pred:out.(target) ~target:2.0 () in
    l
  in
  (* analytical gradients *)
  Mlp.zero_grad net;
  let out, caches = Nn_oracle.forward_cached net x in
  let _, dpred = Loss.huber ~pred:out.(target) ~target:2.0 () in
  let dout = Array.make 2 0.0 in
  dout.(target) <- dpred;
  Nn_oracle.backward net caches dout;
  (* compare against central differences on a few weights *)
  let eps = 1e-5 in
  let layer = net.Mlp.layers.(0) in
  for idx = 0 to 5 do
    let orig = layer.Layer.w.Matrix.data.(idx) in
    layer.Layer.w.Matrix.data.(idx) <- orig +. eps;
    let lp = loss_of () in
    layer.Layer.w.Matrix.data.(idx) <- orig -. eps;
    let lm = loss_of () in
    layer.Layer.w.Matrix.data.(idx) <- orig;
    let numeric = (lp -. lm) /. (2.0 *. eps) in
    let analytic = layer.Layer.gw.Matrix.data.(idx) in
    Alcotest.(check bool)
      (Printf.sprintf "grad[%d] %.6f vs %.6f" idx analytic numeric)
      true
      (Float.abs (analytic -. numeric) < 1e-3)
  done

let test_mlp_learns_xor () =
  let rng = Rng.create 5 in
  let net = Mlp.create rng [ 2; 8; 1 ] in
  let optim = Optim.create ~lr:0.02 ~grad_clip:0.0 () in
  let data =
    [| ([| 0.0; 0.0 |], 0.0); ([| 0.0; 1.0 |], 1.0);
       ([| 1.0; 0.0 |], 1.0); ([| 1.0; 1.0 |], 0.0) |]
  in
  for _epoch = 1 to 3000 do
    Mlp.zero_grad net;
    Array.iter
      (fun (x, y) ->
        let out, caches = Nn_oracle.forward_cached net x in
        let _, d = Loss.mse ~pred:out.(0) ~target:y () in
        Nn_oracle.backward net caches [| d /. 4.0 |])
      data;
    Optim.step optim net
  done;
  Array.iter
    (fun (x, y) ->
      let out = Mlp.forward net x in
      Alcotest.(check bool)
        (Printf.sprintf "xor(%g,%g)=%g got %g" x.(0) x.(1) y out.(0))
        true
        (Float.abs (out.(0) -. y) < 0.25))
    data

let test_adam_decreases_loss () =
  let rng = Rng.create 7 in
  let net = Mlp.create rng [ 4; 8; 1 ] in
  let optim = Optim.create ~lr:0.01 () in
  let inputs = Array.init 16 (fun k -> Array.init 4 (fun j -> float_of_int ((k + j) mod 5) /. 5.0)) in
  let target x = (2.0 *. x.(0)) -. x.(2) +. 0.5 in
  let epoch_loss () =
    Array.fold_left
      (fun acc x ->
        let out = Mlp.forward net x in
        let l, _ = Loss.mse ~pred:out.(0) ~target:(target x) () in
        acc +. l)
      0.0 inputs
  in
  let before = epoch_loss () in
  for _ = 1 to 500 do
    Mlp.zero_grad net;
    Array.iter
      (fun x ->
        let out, caches = Nn_oracle.forward_cached net x in
        let _, d = Loss.mse ~pred:out.(0) ~target:(target x) () in
        Nn_oracle.backward net caches [| d /. 16.0 |])
      inputs;
    Optim.step optim net
  done;
  let after = epoch_loss () in
  Alcotest.(check bool)
    (Printf.sprintf "loss %.4f -> %.4f" before after)
    true (after < before /. 5.0)

let test_copy_params () =
  let rng = Rng.create 3 in
  let a = Mlp.create rng [ 2; 3; 2 ] in
  let b = Mlp.create rng [ 2; 3; 2 ] in
  Mlp.copy_params ~src:a ~dst:b;
  let x = [| 0.5; -0.5 |] in
  Alcotest.(check bool) "identical outputs" true (Mlp.forward a x = Mlp.forward b x)

let test_param_count () =
  let rng = Rng.create 3 in
  let net = Mlp.create rng [ 300; 128; 64; 34 ] in
  Alcotest.(check int) "param count"
    ((300 * 128) + 128 + (128 * 64) + 64 + (64 * 34) + 34)
    (Mlp.param_count net)

let test_huber_regions () =
  let l1, d1 = Loss.huber ~pred:0.5 ~target:0.0 () in
  check_float "quadratic" 0.125 l1;
  check_float "grad" 0.5 d1;
  let l2, d2 = Loss.huber ~pred:3.0 ~target:0.0 () in
  check_float "linear" 2.5 l2;
  check_float "clipped grad" 1.0 d2

let test_grad_clip () =
  let rng = Rng.create 4 in
  let net = Mlp.create rng [ 2; 2 ] in
  Mlp.zero_grad net;
  (* inject a huge gradient *)
  net.Mlp.layers.(0).Layer.gw.Matrix.data.(0) <- 1e9;
  let optim = Optim.create ~lr:0.1 ~grad_clip:1.0 () in
  let before = net.Mlp.layers.(0).Layer.w.Matrix.data.(0) in
  Optim.step optim net;
  let after = net.Mlp.layers.(0).Layer.w.Matrix.data.(0) in
  Alcotest.(check bool) "clipped step bounded" true (Float.abs (after -. before) < 1.0)

(* --- batched gemm kernels ---------------------------------------------------

   The determinism contract (DESIGN.md §9): every gemm gives each output
   element the arithmetic of the naive per-element loop (same start
   value, ascending k, the same zero-A terms skipped), so the
   register-blocked, the pool-parallel and the naive loop all produce
   *equal floats*, not merely close ones. The properties compare bit
   patterns, so NaN payloads and the sign of zero count too. Shapes are
   ragged (1 row, odd row counts, column counts that are not multiples
   of 2 or 4) so every block edge runs. Entries include exact 0.0 and
   -0.0 (ReLU-masked operands) and, in the operand a skipped term
   multiplies, infinities: a kernel that added a skipped [0.0 *. inf]
   term would produce NaN there. *)

let random_matrix rng rows cols =
  Matrix.init rows cols (fun _ _ -> Rng.normal rng)

let bits_equal (x : float array) (y : float array) =
  Array.length x = Array.length y
  && Array.for_all2
       (fun u v -> Int64.equal (Int64.bits_of_float u) (Int64.bits_of_float v))
       x y

(* [zeros] of the entries are exact zeros, half of them -0.0; [infs] of
   the rest are +/-infinity *)
let special_matrix ?(infs = 0.0) rng rows cols ~zeros =
  Matrix.init rows cols (fun _ _ ->
      let u = Rng.float rng in
      if u < zeros /. 2.0 then 0.0
      else if u < zeros then -0.0
      else if Rng.float rng < infs then (if Rng.bool rng then infinity else neg_infinity)
      else Rng.normal rng)

(* (rows, inner, cols, (zero fraction, seed)) *)
let shape_gen =
  QCheck2.Gen.(
    quad
      (oneof [ pure 1; int_range 1 20; map (fun r -> (2 * r) + 1) (int_range 0 9) ])
      (int_range 1 90) (int_range 1 90)
      (pair (oneofl [ 0.0; 0.5; 0.9 ]) (int_range 0 10_000)))

(* c.(i,j) = 0.0 + sum over ascending k of a.(i,k) * b.(k,j), a = 0 skipped *)
let ref_gemm (a : Matrix.t) (b : Matrix.t) : Matrix.t =
  Matrix.init a.Matrix.rows b.Matrix.cols (fun i j ->
      let acc = ref 0.0 in
      for k = 0 to a.Matrix.cols - 1 do
        let aik = Matrix.get a i k in
        if aik <> 0.0 then acc := !acc +. (aik *. Matrix.get b k j)
      done;
      !acc)

let ref_gemm_nt (a : Matrix.t) (b : Matrix.t) : Matrix.t =
  Matrix.init a.Matrix.rows b.Matrix.rows (fun i j ->
      let acc = ref 0.0 in
      for k = 0 to a.Matrix.cols - 1 do
        acc := !acc +. (Matrix.get a i k *. Matrix.get b j k)
      done;
      !acc)

(* c.(i,j) + sum over ascending k of a.(k,i) * b.(k,j), a = 0 skipped *)
let ref_gemm_tn_acc (c : Matrix.t) (a : Matrix.t) (b : Matrix.t) : Matrix.t =
  Matrix.init c.Matrix.rows c.Matrix.cols (fun i j ->
      let acc = ref (Matrix.get c i j) in
      for k = 0 to a.Matrix.rows - 1 do
        let aki = Matrix.get a k i in
        if aki <> 0.0 then acc := !acc +. (aki *. Matrix.get b k j)
      done;
      !acc)

let prop_gemm_matches_naive =
  QCheck2.Test.make ~count:100 ~name:"gemm = naive matmul (exact floats)" shape_gen
    (fun (m, k, n, (zeros, seed)) ->
      let rng = Rng.create seed in
      let a = special_matrix rng m k ~zeros in
      let b = special_matrix rng k n ~zeros:0.2 ~infs:0.05 in
      bits_equal (Matrix.gemm a b).Matrix.data (ref_gemm a b).Matrix.data)

let prop_gemm_pool_matches_serial =
  QCheck2.Test.make ~count:20 ~name:"gemm ~pool = gemm (exact floats)"
    QCheck2.Gen.(
      quad (int_range 1 20) (int_range 1 90) (int_range 1 90) (int_range 0 10_000))
    (fun (m, k, n, seed) ->
      let rng = Rng.create seed in
      let a = random_matrix rng m k in
      let b = random_matrix rng k n in
      Pool.with_pool ~jobs:3 (fun pool ->
          (Matrix.gemm ~pool a b).Matrix.data = (Matrix.gemm a b).Matrix.data))

let prop_gemm_nt_matches_naive =
  QCheck2.Test.make ~count:100 ~name:"gemm_nt = a * b^T (exact floats)" shape_gen
    (fun (m, k, n, (zeros, seed)) ->
      let rng = Rng.create seed in
      let a = special_matrix rng m k ~zeros in
      let b = special_matrix rng n k ~zeros:0.2 in
      bits_equal (Matrix.gemm_nt a b).Matrix.data (ref_gemm_nt a b).Matrix.data)

let prop_gemm_nt_pool =
  QCheck2.Test.make ~count:15 ~name:"gemm_nt ~pool = gemm_nt (exact floats)"
    shape_gen
    (fun (m, k, n, (zeros, seed)) ->
      let rng = Rng.create seed in
      let a = special_matrix rng m k ~zeros in
      let b = special_matrix rng n k ~zeros:0.2 in
      Pool.with_pool ~jobs:3 (fun pool ->
          bits_equal (Matrix.gemm_nt ~pool a b).Matrix.data (Matrix.gemm_nt a b).Matrix.data))

let test_gemm_tn_acc () =
  (* c += a^T b, accumulating sample-major (ascending row of a/b) — the
     weight-gradient kernel. Must equal the per-sample outer_add loop
     exactly, including on a non-zero initial c. *)
  let rng = Rng.create 99 in
  let samples = 17 and d_out = 5 and d_in = 9 in
  let a = random_matrix rng samples d_out in
  let b = random_matrix rng samples d_in in
  let c_gemm = random_matrix rng d_out d_in in
  let c_ref = Matrix.copy c_gemm in
  Matrix.gemm_tn_acc c_gemm a b;
  for s = 0 to samples - 1 do
    Nn_oracle.outer_add c_ref ~k:1.0 (Matrix.row a s) (Matrix.row b s)
  done;
  Alcotest.(check bool) "gemm_tn_acc = outer_add loop" true
    (c_gemm.Matrix.data = c_ref.Matrix.data)

let prop_gemm_tn_acc_blocked =
  QCheck2.Test.make ~count:100 ~name:"gemm_tn_acc = naive loop (exact floats)"
    shape_gen
    (fun (samples, p, n, (zeros, seed)) ->
      let rng = Rng.create seed in
      let a = special_matrix rng samples p ~zeros in
      let b = special_matrix rng samples n ~zeros:0.2 ~infs:0.05 in
      (* a -0.0 start stays -0.0 only if every term is skipped *)
      let c = special_matrix rng p n ~zeros:0.5 in
      let expect = ref_gemm_tn_acc c a b in
      Matrix.gemm_tn_acc c a b;
      bits_equal c.Matrix.data expect.Matrix.data)

let test_batch_forward_matches_per_sample () =
  let rng = Rng.create 21 in
  let net = Mlp.create rng [ 6; 11; 4 ] in
  let xs = Array.init 9 (fun _ -> Array.init 6 (fun _ -> Rng.normal rng)) in
  let q = Mlp.forward_batch net (Matrix.of_rows xs) in
  Array.iteri
    (fun i x ->
      Alcotest.(check bool)
        (Printf.sprintf "row %d equals per-sample forward" i)
        true
        (Matrix.row q i = Mlp.forward net x))
    xs

let test_batch_backward_matches_per_sample () =
  let rng = Rng.create 22 in
  let net_b = Mlp.create rng [ 6; 11; 4 ] in
  let net_s = Mlp.create rng [ 6; 11; 4 ] in
  Mlp.copy_params ~src:net_b ~dst:net_s;
  let xs = Array.init 9 (fun _ -> Array.init 6 (fun _ -> Rng.normal rng)) in
  let douts = Array.init 9 (fun _ -> Array.init 4 (fun _ -> Rng.normal rng)) in
  (* batched *)
  Mlp.zero_grad net_b;
  let _, caches = Mlp.forward_batch_cached net_b (Matrix.of_rows xs) in
  Mlp.backward_batch net_b caches (Matrix.of_rows douts);
  (* per-sample reference, samples ascending *)
  Mlp.zero_grad net_s;
  Array.iteri
    (fun i x ->
      let _, caches = Nn_oracle.forward_cached net_s x in
      Nn_oracle.backward net_s caches douts.(i))
    xs;
  Array.iteri
    (fun k (lb : Layer.t) ->
      let ls = net_s.Mlp.layers.(k) in
      Alcotest.(check bool)
        (Printf.sprintf "layer %d weight grads exact" k)
        true
        (lb.Layer.gw.Matrix.data = ls.Layer.gw.Matrix.data);
      Alcotest.(check bool)
        (Printf.sprintf "layer %d bias grads exact" k)
        true (lb.Layer.gb = ls.Layer.gb))
    net_b.Mlp.layers

(* The batched backward skips the first layer's input gradient; its
   parameter gradients must still be the per-sample oracle's. *)
let prop_layer0_grads =
  QCheck2.Test.make ~count:40 ~name:"backward_batch layer-0 grads = per-sample"
    QCheck2.Gen.(
      quad (int_range 1 9) (int_range 1 37) (int_range 1 13) (pair (int_range 1 7) (int_range 0 10_000)))
    (fun (batch, d_in, hidden, (d_out, seed)) ->
      let rng = Rng.create seed in
      let net_b = Mlp.create rng [ d_in; hidden; d_out ] in
      let net_s = Mlp.create rng [ d_in; hidden; d_out ] in
      Mlp.copy_params ~src:net_b ~dst:net_s;
      let x = special_matrix rng batch d_in ~zeros:0.3 in
      (* an all-zero input row puts the hidden pre-activations exactly on
         the ReLU's 0.0 boundary (biases start at 0.0) *)
      for i = 0 to batch - 1 do
        if Rng.float rng < 0.3 then Array.fill x.Matrix.data (i * d_in) d_in 0.0
      done;
      let dout = special_matrix rng batch d_out ~zeros:0.3 in
      Mlp.zero_grad net_b;
      let _, caches = Mlp.forward_batch_cached net_b x in
      Mlp.backward_batch net_b caches dout;
      Mlp.zero_grad net_s;
      for i = 0 to batch - 1 do
        let _, caches = Nn_oracle.forward_cached net_s (Matrix.row x i) in
        Nn_oracle.backward net_s caches (Matrix.row dout i)
      done;
      let lb = net_b.Mlp.layers.(0) and ls = net_s.Mlp.layers.(0) in
      bits_equal lb.Layer.gw.Matrix.data ls.Layer.gw.Matrix.data
      && bits_equal lb.Layer.gb ls.Layer.gb)

(* K consecutive [Dqn.train_batch] steps against the per-sample oracle
   step on the same sampled batches: losses and every weight and bias,
   bit for bit, with a target sync half-way. *)
let check_train_matches_oracle ~double ~state_dim ~hidden ~n_actions ~batch ~steps =
  let module Rl = Posetrl_rl in
  let rng = Rng.create (if double then 61 else 62) in
  let mk () = Rl.Dqn.create ~gamma:0.9 ~lr:0.01 ~double rng ~state_dim ~hidden ~n_actions in
  let agent = mk () and oracle = mk () in
  Mlp.copy_params ~src:agent.Rl.Dqn.online ~dst:oracle.Rl.Dqn.online;
  Mlp.copy_params ~src:agent.Rl.Dqn.target ~dst:oracle.Rl.Dqn.target;
  let buf = Rl.Replay.create 64 in
  (* every fifth state is all zeros: a ReLU boundary case while the
     biases are still near 0.0 *)
  let state () =
    if Rng.int rng 5 = 0 then Array.make state_dim 0.0
    else Array.init state_dim (fun _ -> if Rng.float rng < 0.3 then 0.0 else Rng.normal rng)
  in
  for k = 0 to 47 do
    Rl.Replay.push buf
      { Rl.Replay.state = state ();
        action = Rng.int rng n_actions;
        reward = Rng.normal rng;
        next_state = (if k mod 4 = 0 then None else Some (state ())) }
  done;
  for step = 1 to steps do
    let b = Rl.Replay.sample rng buf batch in
    let loss = Rl.Dqn.train_batch agent b in
    let loss_ref = Nn_oracle.train_step oracle b in
    Alcotest.(check bool) (Printf.sprintf "step %d loss" step) true
      (bits_equal [| loss |] [| loss_ref |]);
    Array.iteri
      (fun k (l : Layer.t) ->
        let r = oracle.Rl.Dqn.online.Mlp.layers.(k) in
        Alcotest.(check bool) (Printf.sprintf "step %d layer %d weights" step k) true
          (bits_equal l.Layer.w.Matrix.data r.Layer.w.Matrix.data
           && bits_equal l.Layer.b r.Layer.b))
      agent.Rl.Dqn.online.Mlp.layers;
    if step = steps / 2 then begin
      Rl.Dqn.sync_target agent;
      Rl.Dqn.sync_target oracle
    end
  done

let test_train_batch_matches_oracle () =
  List.iter
    (fun double ->
      check_train_matches_oracle ~double ~state_dim:13 ~hidden:[ 9; 6 ] ~n_actions:5
        ~batch:7 ~steps:6)
    [ true; false ]

let test_train_batch_matches_oracle_paper_shape () =
  check_train_matches_oracle ~double:true ~state_dim:300 ~hidden:[ 128; 64 ] ~n_actions:34
    ~batch:32 ~steps:3

let suite =
  [ Alcotest.test_case "matvec" `Quick test_matvec;
    Alcotest.test_case "matvec transpose" `Quick test_matvec_t;
    Alcotest.test_case "outer add" `Quick test_outer_add;
    Alcotest.test_case "layer relu" `Quick test_layer_forward_relu;
    Alcotest.test_case "gradient check" `Quick test_gradient_check;
    Alcotest.test_case "mlp learns xor" `Quick test_mlp_learns_xor;
    Alcotest.test_case "adam decreases loss" `Quick test_adam_decreases_loss;
    Alcotest.test_case "copy params" `Quick test_copy_params;
    Alcotest.test_case "param count" `Quick test_param_count;
    Alcotest.test_case "huber regions" `Quick test_huber_regions;
    Alcotest.test_case "grad clip" `Quick test_grad_clip;
    QCheck_alcotest.to_alcotest prop_gemm_matches_naive;
    QCheck_alcotest.to_alcotest prop_gemm_pool_matches_serial;
    QCheck_alcotest.to_alcotest prop_gemm_nt_matches_naive;
    Alcotest.test_case "gemm_tn_acc accumulates" `Quick test_gemm_tn_acc;
    Alcotest.test_case "batch forward = per-sample" `Quick
      test_batch_forward_matches_per_sample;
    Alcotest.test_case "batch backward = per-sample" `Quick
      test_batch_backward_matches_per_sample;
    QCheck_alcotest.to_alcotest prop_gemm_nt_pool;
    QCheck_alcotest.to_alcotest prop_gemm_tn_acc_blocked;
    QCheck_alcotest.to_alcotest prop_layer0_grads;
    Alcotest.test_case "train_batch = per-sample oracle" `Quick
      test_train_batch_matches_oracle;
    Alcotest.test_case "train_batch = per-sample oracle (300-128-64-34)" `Quick
      test_train_batch_matches_oracle_paper_shape ]
