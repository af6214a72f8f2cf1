(* Dense row-major matrices; just enough linear algebra for the MLPs. *)

type t = {
  rows : int;
  cols : int;
  data : float array; (* length rows*cols, row-major *)
}

let create rows cols = { rows; cols; data = Array.make (rows * cols) 0.0 }

let init rows cols f =
  { rows; cols; data = Array.init (rows * cols) (fun i -> f (i / cols) (i mod cols)) }

let copy m = { m with data = Array.copy m.data }

let get m i j = m.data.((i * m.cols) + j)

let set m i j v = m.data.((i * m.cols) + j) <- v

let fill_zero m = Array.fill m.data 0 (Array.length m.data) 0.0

(* y = M x *)
let matvec (m : t) (x : float array) : float array =
  if Array.length x <> m.cols then invalid_arg "Matrix.matvec: dimension mismatch";
  let y = Array.make m.rows 0.0 in
  for i = 0 to m.rows - 1 do
    let base = i * m.cols in
    let acc = ref 0.0 in
    for j = 0 to m.cols - 1 do
      acc := !acc +. (m.data.(base + j) *. x.(j))
    done;
    y.(i) <- !acc
  done;
  y

(* --- batched kernels (gemm family) ----------------------------------------

   Minibatch training multiplies (batch x dim) activation matrices
   against layer weights; these kernels are the hot path of
   [Dqn.train_batch]. Each one is register-blocked: it keeps a small
   block of output elements in local float accumulators (which the
   native compiler holds unboxed in registers) and runs the k loop
   innermost over that block, so an output element is loaded and stored
   once instead of once per k term.

   - [gemm] (C = A B): blocks of 4 output columns of one row; per
     (i, k) it skips the whole block's terms when [A.(i,k) = 0.0].
   - [gemm_nt] (C = A Bᵀ): 2x2 blocks, four dot products sharing each
     load of two A rows and two B rows.
   - [gemm_tn_acc] (C += Aᵀ B): blocks of 4 columns of one C row, loaded
     from C, accumulated over the samples k, stored back; per (k, i) it
     skips the block's terms when [A.(k,i) = 0.0].

   Determinism: every output element still starts from the same value
   (0.0, or C's own for [gemm_tn_acc]), adds its k terms in ascending-k
   order and skips exactly the zero-A terms the per-element loop skips,
   so the result is bit-for-bit that of the naive triple loop whatever
   the blocking or the pool's row partition. The batched forward and
   backward are therefore term-order identical to a per-sample
   [matvec]/outer-product loop (DESIGN.md §9). *)

let row_slice rows jobs w =
  (* chunk [0, rows) into at most [jobs] contiguous (start, stop) spans *)
  let jobs = max 1 (min jobs rows) in
  let per = (rows + jobs - 1) / jobs in
  List.init jobs (fun k -> (k * per, min rows ((k + 1) * per)))
  |> List.filter (fun (i0, i1) -> i0 < i1)
  |> List.map w

let parallel_rows ?pool rows (body : int -> int -> unit) : unit =
  match pool with
  | Some p when Posetrl_support.Pool.jobs p > 1 && rows >= 2 ->
    ignore
      (Posetrl_support.Pool.map p
         (fun (i0, i1) -> body i0 i1)
         (Array.of_list (row_slice rows (Posetrl_support.Pool.jobs p) Fun.id)))
  | _ -> body 0 rows

(* C = A B — the input gradient ([dpre · w]) *)
let gemm ?pool (a : t) (b : t) : t =
  if a.cols <> b.rows then invalid_arg "Matrix.gemm: dimension mismatch";
  let c = create a.rows b.cols in
  let n = b.cols and kdim = a.cols in
  let ad = a.data and bd = b.data and cd = c.data in
  parallel_rows ?pool a.rows (fun i0 i1 ->
      for i = i0 to i1 - 1 do
        let abase = i * kdim and cbase = i * n in
        let j = ref 0 in
        while !j + 3 < n do
          let j0 = !j in
          let c0 = ref 0.0 and c1 = ref 0.0 and c2 = ref 0.0 and c3 = ref 0.0 in
          for k = 0 to kdim - 1 do
            let aik = ad.(abase + k) in
            if aik <> 0.0 then begin
              let bb = (k * n) + j0 in
              c0 := !c0 +. (aik *. bd.(bb));
              c1 := !c1 +. (aik *. bd.(bb + 1));
              c2 := !c2 +. (aik *. bd.(bb + 2));
              c3 := !c3 +. (aik *. bd.(bb + 3))
            end
          done;
          cd.(cbase + j0) <- !c0;
          cd.(cbase + j0 + 1) <- !c1;
          cd.(cbase + j0 + 2) <- !c2;
          cd.(cbase + j0 + 3) <- !c3;
          j := j0 + 4
        done;
        for j = !j to n - 1 do
          let acc = ref 0.0 in
          for k = 0 to kdim - 1 do
            let aik = ad.(abase + k) in
            if aik <> 0.0 then acc := !acc +. (aik *. bd.((k * n) + j))
          done;
          cd.(cbase + j) <- !acc
        done
      done);
  c

(* C = A Bᵀ — the minibatch forward ([x · wᵀ]): both operands are read
   row-wise, so each output element is one contiguous dot product. *)
let gemm_nt ?pool (a : t) (b : t) : t =
  if a.cols <> b.cols then invalid_arg "Matrix.gemm_nt: dimension mismatch";
  let c = create a.rows b.rows in
  let kdim = a.cols and m = b.rows in
  let ad = a.data and bd = b.data and cd = c.data in
  (* the ragged edge: one unblocked dot product *)
  let dot i j =
    let abase = i * kdim and bbase = j * kdim in
    let acc = ref 0.0 in
    for k = 0 to kdim - 1 do
      acc := !acc +. (ad.(abase + k) *. bd.(bbase + k))
    done;
    cd.((i * m) + j) <- !acc
  in
  parallel_rows ?pool a.rows (fun i0 i1 ->
      let i = ref i0 in
      while !i + 1 < i1 do
        let r = !i in
        let a0 = r * kdim in
        let a1 = a0 + kdim in
        let j = ref 0 in
        while !j + 1 < m do
          let s = !j in
          let b0 = s * kdim in
          let b1 = b0 + kdim in
          let c00 = ref 0.0 and c01 = ref 0.0 and c10 = ref 0.0 and c11 = ref 0.0 in
          for k = 0 to kdim - 1 do
            let x0 = ad.(a0 + k) and x1 = ad.(a1 + k) in
            let y0 = bd.(b0 + k) and y1 = bd.(b1 + k) in
            c00 := !c00 +. (x0 *. y0);
            c01 := !c01 +. (x0 *. y1);
            c10 := !c10 +. (x1 *. y0);
            c11 := !c11 +. (x1 *. y1)
          done;
          let cb = (r * m) + s in
          cd.(cb) <- !c00;
          cd.(cb + 1) <- !c01;
          cd.(cb + m) <- !c10;
          cd.(cb + m + 1) <- !c11;
          j := s + 2
        done;
        if !j < m then begin
          dot r !j;
          dot (r + 1) !j
        end;
        i := r + 2
      done;
      if !i < i1 then
        for j = 0 to m - 1 do
          dot !i j
        done);
  c

(* C <- C + Aᵀ B — the weight-gradient accumulate ([gw += dpreᵀ · x]).
   Runs serial: gradient matrices are small (out x in) and the k loop
   must stay sample-ascending per element for term-order determinism. *)
let gemm_tn_acc (c : t) (a : t) (b : t) : unit =
  if a.rows <> b.rows || c.rows <> a.cols || c.cols <> b.cols then
    invalid_arg "Matrix.gemm_tn_acc: dimension mismatch";
  let n = b.cols and p = a.cols and samples = a.rows in
  let ad = a.data and bd = b.data and cd = c.data in
  for i = 0 to p - 1 do
    let cbase = i * n in
    let j = ref 0 in
    while !j + 3 < n do
      let j0 = !j in
      let cb = cbase + j0 in
      let c0 = ref cd.(cb) and c1 = ref cd.(cb + 1)
      and c2 = ref cd.(cb + 2) and c3 = ref cd.(cb + 3) in
      for k = 0 to samples - 1 do
        let aki = ad.((k * p) + i) in
        if aki <> 0.0 then begin
          let bb = (k * n) + j0 in
          c0 := !c0 +. (aki *. bd.(bb));
          c1 := !c1 +. (aki *. bd.(bb + 1));
          c2 := !c2 +. (aki *. bd.(bb + 2));
          c3 := !c3 +. (aki *. bd.(bb + 3))
        end
      done;
      cd.(cb) <- !c0;
      cd.(cb + 1) <- !c1;
      cd.(cb + 2) <- !c2;
      cd.(cb + 3) <- !c3;
      j := j0 + 4
    done;
    for j = !j to n - 1 do
      let acc = ref cd.(cbase + j) in
      for k = 0 to samples - 1 do
        let aki = ad.((k * p) + i) in
        if aki <> 0.0 then acc := !acc +. (aki *. bd.((k * n) + j))
      done;
      cd.(cbase + j) <- !acc
    done
  done

(* rows of [m] as freshly allocated arrays / a matrix from row vectors *)
let of_rows (rows : float array array) : t =
  let r = Array.length rows in
  if r = 0 then invalid_arg "Matrix.of_rows: empty";
  let c = Array.length rows.(0) in
  let m = create r c in
  Array.iteri
    (fun i row ->
      if Array.length row <> c then invalid_arg "Matrix.of_rows: ragged rows";
      Array.blit row 0 m.data (i * c) c)
    rows;
  m

let row (m : t) (i : int) : float array = Array.sub m.data (i * m.cols) m.cols
