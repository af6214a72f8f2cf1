(* Adam optimizer over a network's accumulated gradients. *)

type t = {
  lr : float;
  beta1 : float;
  beta2 : float;
  eps : float;
  grad_clip : float; (* global-norm clip; 0 disables *)
  mutable step_count : int;
}

let create ?(lr = 1e-4) ?(beta1 = 0.9) ?(beta2 = 0.999) ?(eps = 1e-8)
    ?(grad_clip = 10.0) () =
  { lr; beta1; beta2; eps; grad_clip; step_count = 0 }

(* Global L2 norm of the accumulated gradients. The sum is a local of
   plain loops (no closure captures it), so it stays an unboxed float. *)
let grad_norm (net : Mlp.t) : float =
  let acc = ref 0.0 in
  for k = 0 to Array.length net.Mlp.layers - 1 do
    let l = net.Mlp.layers.(k) in
    let gw = l.Layer.gw.Matrix.data and gb = l.Layer.gb in
    for i = 0 to Array.length gw - 1 do
      acc := !acc +. (gw.(i) *. gw.(i))
    done;
    for i = 0 to Array.length gb - 1 do
      acc := !acc +. (gb.(i) *. gb.(i))
    done
  done;
  sqrt !acc

let step (o : t) (net : Mlp.t) : unit =
  o.step_count <- o.step_count + 1;
  let t = float_of_int o.step_count in
  let bc1 = 1.0 -. (o.beta1 ** t) in
  let bc2 = 1.0 -. (o.beta2 ** t) in
  let clip_scale =
    if o.grad_clip > 0.0 then begin
      let n = grad_norm net in
      if n > o.grad_clip then o.grad_clip /. n else 1.0
    end
    else 1.0
  in
  Array.iter
    (fun (l : Layer.t) ->
      let wd = l.Layer.w.Matrix.data
      and gd = l.Layer.gw.Matrix.data
      and md = l.Layer.mw.Matrix.data
      and vd = l.Layer.vw.Matrix.data in
      for i = 0 to Array.length wd - 1 do
        let g = gd.(i) *. clip_scale in
        md.(i) <- (o.beta1 *. md.(i)) +. ((1.0 -. o.beta1) *. g);
        vd.(i) <- (o.beta2 *. vd.(i)) +. ((1.0 -. o.beta2) *. g *. g);
        let mhat = md.(i) /. bc1 and vhat = vd.(i) /. bc2 in
        wd.(i) <- wd.(i) -. (o.lr *. mhat /. (sqrt vhat +. o.eps))
      done;
      for i = 0 to Array.length l.Layer.b - 1 do
        let g = l.Layer.gb.(i) *. clip_scale in
        l.Layer.mb.(i) <- (o.beta1 *. l.Layer.mb.(i)) +. ((1.0 -. o.beta1) *. g);
        l.Layer.vb.(i) <- (o.beta2 *. l.Layer.vb.(i)) +. ((1.0 -. o.beta2) *. g *. g);
        let mhat = l.Layer.mb.(i) /. bc1 and vhat = l.Layer.vb.(i) /. bc2 in
        l.Layer.b.(i) <- l.Layer.b.(i) -. (o.lr *. mhat /. (sqrt vhat +. o.eps))
      done)
    net.Mlp.layers
