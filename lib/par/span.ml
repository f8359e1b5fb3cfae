(* Runs are stored flat: span [k] is [b.(2k), b.(2k+1)).  Every
   constructor leaves the runs sorted, disjoint, non-empty and
   non-negative, so [bound] alone decides containment in [0, n). *)
type t = { b : int array; card : int }

let empty = { b = [||]; card = 0 }

let range lo hi =
  if lo < 0 || hi < lo then
    invalid_arg (Printf.sprintf "Span.range: [%d, %d) is not a range" lo hi);
  if lo = hi then empty else { b = [| lo; hi |]; card = hi - lo }

let full n = range 0 n

let of_spans runs =
  let b = Array.make (2 * Array.length runs) 0 in
  let card = ref 0 and prev = ref 0 in
  Array.iteri
    (fun k (lo, hi) ->
      if lo < 0 then
        invalid_arg (Printf.sprintf "Span.of_spans: negative bound %d" lo);
      if hi <= lo then
        invalid_arg (Printf.sprintf "Span.of_spans: empty span [%d, %d)" lo hi);
      if lo < !prev then
        invalid_arg
          (Printf.sprintf
             "Span.of_spans: span [%d, %d) starts before the previous one \
              ends at %d"
             lo hi !prev);
      b.(2 * k) <- lo;
      b.((2 * k) + 1) <- hi;
      card := !card + (hi - lo);
      prev := hi)
    runs;
  { b; card = !card }

(* Maximal runs of the increasing indices [f] hands to [add]; the
   empty run [0, 0) extends to [0, 1) when 0 comes first. *)
let build f =
  let runs = ref [] and lo = ref 0 and hi = ref 0 in
  let add i =
    if i = !hi then incr hi
    else begin
      if !hi > !lo then runs := (!lo, !hi) :: !runs;
      lo := i;
      hi := i + 1
    end
  in
  f add;
  if !hi > !lo then runs := (!lo, !hi) :: !runs;
  of_spans (Array.of_list (List.rev !runs))

let of_sorted idx =
  Array.iteri
    (fun k i ->
      if i < 0 || (k > 0 && i <= idx.(k - 1)) then
        invalid_arg
          (Printf.sprintf
             "Span.of_sorted: entry %d at position %d is negative or not \
              increasing"
             i k))
    idx;
  build (fun add -> Array.iter add idx)

let of_pred n p =
  build (fun add ->
      for i = 0 to n - 1 do
        if p i then add i
      done)

let spans s = Array.length s.b / 2
let lo s k = s.b.(2 * k)
let hi s k = s.b.((2 * k) + 1)
let cardinal s = s.card
let bound s = match Array.length s.b with 0 -> 0 | l -> s.b.(l - 1)

let within who s n =
  if bound s > n then
    invalid_arg
      (Printf.sprintf "%s: span set reaches index %d, outside [0, %d)" who
         (bound s - 1) n)

let iter_runs body s =
  for k = 0 to spans s - 1 do
    body ~lo:(lo s k) ~hi:(hi s k)
  done

let iter f s =
  iter_runs
    (fun ~lo ~hi ->
      for i = lo to hi - 1 do
        f i
      done)
    s

let filter p s = build (fun add -> iter (fun i -> if p i then add i) s)

(* The index runs covering positions [plo, phi) of the set's increasing
   enumeration: how a pool chunk of positions maps back to indices. *)
let iter_slice s ~lo:plo ~hi:phi body =
  let pos = ref 0 in
  for k = 0 to spans s - 1 do
    let l = lo s k and h = hi s k in
    let p0 = !pos and p1 = !pos + (h - l) in
    let a = Int.max plo p0 and z = Int.min phi p1 in
    if a < z then body ~lo:(l + (a - p0)) ~hi:(l + (z - p0));
    pos := p1
  done

let runs ?chunk pool s body =
  match pool with
  | None -> iter_runs body s
  | Some p ->
      Pool.parallel_for_chunks ?chunk p ~lo:0 ~hi:s.card (fun ~lo ~hi ->
          iter_slice s ~lo ~hi body)

let to_array s =
  let a = Array.make s.card 0 and j = ref 0 in
  iter
    (fun i ->
      a.(!j) <- i;
      incr j)
    s;
  a
