(* Host-speed calibration. The benchmark runs on a few vCPUs of a shared
   host whose speed drifts by +-25% over seconds to minutes, identically
   in wall and CPU time, so raw wall times of two runs of the same code
   differ by that much. A pure-arithmetic loop hardly drifts: the drift
   is the neighbours' use of shared caches and memory. Between ops the
   benchmark times a fixed reference kernel that uses nothing from lib/;
   an op's time is then rescaled to the reference speed, the speed at
   which the kernel takes [nominal_ns]:

     scaled = wall * nominal_ns / kernel time around the op

   A change to lib/ moves the scaled time as it moves the wall time; a
   change of host speed moves the wall time and the kernel time alike.
   The kernel mixes what the workloads do: random reads over an array
   larger than L2, hash-table probes, allocation and polymorphic compare. *)

let nominal_ns = 1_700_000

let words = 1 lsl 18 (* 2 MiB of ints *)
let chase = Array.init words (fun i -> (i * 40503) land (words - 1))
let tbl : (int, int * int) Hashtbl.t = Hashtbl.create 4096
let pairs = Array.make 1024 (0, 0)

(* about 1.7 ms (nominal_ns) on the 2-vCPU host it was tuned on: random
   reads, table probes and inserts, and a polymorphic-compare sort of
   freshly allocated pairs *)
let kernel () =
  let acc = ref 0 and j = ref 0 in
  for i = 0 to 2_999 do
    j := chase.((!j + i) land (words - 1));
    acc := !acc + (!j lxor i)
  done;
  Hashtbl.reset tbl;
  for i = 0 to 5_999 do
    let k = (i * 40503) land 4095 in
    match Hashtbl.find_opt tbl k with
    | Some (a, _) -> acc := !acc + a
    | None -> Hashtbl.replace tbl k (i, !acc)
  done;
  for i = 0 to Array.length pairs - 1 do
    pairs.(i) <- ((i * 40503) land 65535, i)
  done;
  Array.stable_sort compare pairs;
  ignore (Sys.opaque_identity (!acc, pairs))

(* every reading of the run, for the per-layer report *)
let readings : int list ref = ref []

(* one reading: the median of five kernel runs, in ns *)
let read () =
  let a =
    Array.init 5 (fun _ ->
        let t0 = Span.now_ns () in
        kernel ();
        Span.now_ns () - t0)
  in
  Array.sort compare a;
  readings := a.(2) :: !readings;
  a.(2)

(* [scale wall ~before ~after] is [wall] at the reference speed, given
   the readings taken just before and just after it *)
let scale wall ~before ~after = float wall *. float (2 * nominal_ns) /. float (before + after)
