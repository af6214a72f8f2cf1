(* Correction for the speed of the machine while a timing was taken.

   The hosts this runs on share their cores and their memory system
   with other machines. Identical work, timed in CPU time, then takes
   anything from 1x to 2x as long, in stretches of a few seconds to
   minutes, so a raw timing mostly measures the neighbours. The
   train-fast and compile-suite workloads therefore run a fixed
   reference kernel of the benchmark's own next to their work (every 50
   training steps, after every program) and scale each item's time by
   the kernel's reference time over its time there; the serve workloads
   run it in a helper process during each rep (serve.ml). Each workload
   uses the kernel whose work is most like its own. The kernels are this
   file's code, which no change to the system under test touches, so the
   correction cancels in a comparison of two commits. The corrected
   figures read in seconds of a machine on which the kernel takes its
   reference time. *)

(* CPU seconds this process has run, user and system. On Linux this
   leaves out the time the host gives to other machines (accounted as
   steal) and the time other processes hold the cores. *)
let cpu_now () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

type kernel = {
  reference_s : float;
  (** CPU time of one run on a calm 2-core Xeon container at 2.1 GHz:
      about the 5th percentile of its readings there *)
  run : unit -> unit;
}

(* A naive 32x300 by 300x128 matrix product, the shape of the first layer
   of the policy network's train batch. It tracks the training steps,
   most of whose time is the train batch. *)
let gemm : kernel =
  let rows = 32 and inner = 300 and cols = 128 in
  let a = Array.init (rows * inner) (fun i -> float_of_int (i mod 7) *. 0.25) in
  let b = Array.init (inner * cols) (fun i -> float_of_int (i mod 5) *. 0.5) in
  let c = Array.make (rows * cols) 0.0 in
  let run () =
    for i = 0 to rows - 1 do
      for j = 0 to cols - 1 do
        let s = ref 0.0 in
        for k = 0 to inner - 1 do
          s := !s +. (a.((i * inner) + k) *. b.((k * cols) + j))
        done;
        c.((i * cols) + j) <- !s
      done
    done
  in
  { reference_s = 0.002; run }

(* A register file in a hash table of boxed values and a byte memory,
   read and written in a data-dependent walk: the interpreter's own mix
   of work, in the benchmark's code. It tracks the compiler passes and
   the interpreter far better than the matrix product does (over six
   seeds of compile-suite on a contended host, the spread of the
   corrected figures was 5% against 9-12% with the matrix product or a
   random walk over 32 MiB, and 22-30% uncorrected). *)
type value = I of int

let table : kernel =
  let regs = Hashtbl.create 64 in
  let mem = Bytes.make (1 lsl 20) '\000' in
  let run () =
    Hashtbl.reset regs;
    for r = 0 to 63 do
      Hashtbl.replace regs r (I r)
    done;
    let addr = ref 0 in
    for k = 1 to 30_000 do
      let r = k land 63 in
      let x = match Hashtbl.find_opt regs r with Some (I x) -> x | None -> 0 in
      addr := (!addr + (x * 8) + 64) land (Bytes.length mem - 8);
      let y = Int64.to_int (Bytes.get_int64_le mem !addr) in
      Bytes.set_int64_le mem !addr (Int64.of_int ((x + y) land 0xffff));
      Hashtbl.replace regs (((r * 7) + 1) land 63) (I ((x + y + 1) land 0xffff))
    done
  in
  { reference_s = 0.0025; run }

(* One run of [k]; returns its CPU seconds. A minor collection before
   and after it keeps the kernel's short-lived allocations apart from the
   program measured: none of the program's young data is promoted early
   by a collection the kernel set off, and the program goes on with an
   empty minor heap. *)
let probe (k : kernel) : float =
  Gc.minor ();
  let t0 = cpu_now () in
  k.run ();
  let t = cpu_now () -. t0 in
  Gc.minor ();
  t

(* [correct k ~every ~probes times]: each [times.(i)] scaled by the
   kernel's reference time over its local time. Probe [j] ran right
   after item [(j + 1) * every - 1]; the local time of item [i] is the
   median of the probe after its block and the probes either side of
   that one, so one disturbed probe does not move it. Items past the
   last probe use the last probes. *)
let correct (k : kernel) ~(every : int) ~(probes : float array) (times : float array) :
    float array =
  let n = Array.length probes in
  if n = 0 then invalid_arg "Speed.correct: no probes";
  let at j = probes.(max 0 (min (n - 1) j)) in
  Array.mapi
    (fun i t ->
      let j = min (n - 1) (i / every) in
      t *. k.reference_s /. Stats.median [| at (j - 1); at j; at (j + 1) |])
    times
