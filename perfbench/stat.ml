(* Percentiles that say how many samples they rest on.  A percentile is
   refused unless at least [min_beyond] samples lie above it, so a p99
   needs 1000 samples and a median 20. *)

let min_beyond = 10

type pct = { value : float; samples : int }

(* nearest rank: the k-th smallest sample, k = ceil (p * n) *)
let percentile p xs =
  let n = Array.length xs in
  let k = int_of_float (Float.ceil (p *. float_of_int n)) in
  let k = max 1 k in
  if n - k < min_beyond then
    Error
      (Printf.sprintf "p%g of %d samples has %d beyond it (need %d)" (p *. 100.) n (max 0 (n - k))
         min_beyond)
  else begin
    let sorted = Array.copy xs in
    Array.sort Float.compare sorted;
    Ok { value = sorted.(k - 1); samples = n }
  end

let mean xs =
  let n = Array.length xs in
  if n = 0 then 0. else Array.fold_left ( +. ) 0. xs /. float_of_int n
