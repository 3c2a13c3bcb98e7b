(* How fast the host runs the benchmark at the moment.

   On a host that is a few cores of a shared machine, the speed the
   benchmark gets moves by up to 2x within seconds as other tenants
   come and go: on a 2-vCPU Xeon VM, a fixed integer loop took 31 ms or
   57 ms from one second to the next. Process CPU time moves with wall
   time, so timing CPU instead of wall time does not remove it.

   [probe] times a fixed kernel that shares no code with the program
   under test: it builds a 40 000-entry balanced map of fresh strings,
   so it allocates, collects and chases pointers as the server does.
   The benchmark probes before every slice of its measured window, and
   divides each time it reports by [slowness] (multiplies each rate by
   it), the run's mean probe over [nominal_s]. Its time metrics thus
   read as they would on a host that runs the kernel in [nominal_s]
   seconds: a change to the program moves them, a change in the
   neighbours' load much less. The raw figures are reported next to
   them. *)

let nominal_s = 0.035

module Int_map = Map.Make (Int)

let kernel () =
  let m = ref Int_map.empty in
  for i = 0 to 40_000 do
    m := Int_map.add (i * 7919 land 0xfffff) (string_of_int i) !m
  done;
  Int_map.fold (fun k v acc -> acc + k + String.length v) !m 0

(* Seconds one run of the kernel takes. *)
let probe () =
  let started = Unix.gettimeofday () in
  ignore (Sys.opaque_identity (kernel ()));
  Unix.gettimeofday () -. started

(* The host's slowness over a stretch of work, from the probes taken
   across it: 1.0 on the nominal host, 2.0 on one that runs the kernel
   at half that speed. *)
let slowness probes =
  List.fold_left ( +. ) 0. probes /. float_of_int (max 1 (List.length probes)) /. nominal_s
