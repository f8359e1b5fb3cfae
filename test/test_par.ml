open Mpas_par

let test_sequential_pool () =
  Pool.with_pool ~n_domains:1 (fun p ->
      Alcotest.(check int) "size" 1 (Pool.size p);
      let a = Array.make 100 0 in
      Pool.parallel_for p ~lo:0 ~hi:100 (fun i -> a.(i) <- i);
      Alcotest.(check int) "last" 99 a.(99))

let test_parallel_for_covers_range () =
  Pool.with_pool ~n_domains:4 (fun p ->
      let n = 10_000 in
      let a = Array.make n 0 in
      Pool.parallel_for p ~lo:0 ~hi:n (fun i -> a.(i) <- a.(i) + 1);
      Alcotest.(check bool)
        "each index exactly once" true
        (Array.for_all (fun x -> x = 1) a))

let test_parallel_for_partial_range () =
  Pool.with_pool ~n_domains:3 (fun p ->
      let a = Array.make 100 0 in
      Pool.parallel_for p ~lo:10 ~hi:20 (fun i -> a.(i) <- 1);
      Alcotest.(check int) "only [10,20) touched" 10
        (Array.fold_left ( + ) 0 a);
      Alcotest.(check int) "untouched below" 0 a.(9);
      Alcotest.(check int) "untouched above" 0 a.(20))

let test_parallel_for_empty_range () =
  Pool.with_pool ~n_domains:2 (fun p ->
      let hit = ref false in
      Pool.parallel_for p ~lo:5 ~hi:5 (fun _ -> hit := true);
      Pool.parallel_for p ~lo:5 ~hi:3 (fun _ -> hit := true);
      Alcotest.(check bool) "no iteration" false !hit)

let test_parallel_for_chunks () =
  Pool.with_pool ~n_domains:4 (fun p ->
      let n = 1000 in
      let a = Array.make n 0 in
      Pool.parallel_for_chunks p ~lo:0 ~hi:n (fun ~lo ~hi ->
          for i = lo to hi - 1 do
            a.(i) <- a.(i) + 1
          done);
      Alcotest.(check bool)
        "chunks tile the range" true
        (Array.for_all (fun x -> x = 1) a))

let test_parallel_sum_deterministic () =
  Pool.with_pool ~n_domains:4 (fun p ->
      let f i = sin (float_of_int i) /. 7.3 in
      let s1 = Pool.parallel_sum p ~lo:0 ~hi:100_000 f in
      let s2 = Pool.parallel_sum p ~lo:0 ~hi:100_000 f in
      (* Determinism must be exact, not approximate. *)
      Alcotest.(check bool) "bitwise equal" true (Float.equal s1 s2))

let test_parallel_sum_matches_sequential () =
  let f i = float_of_int (i * i) in
  let seq = ref 0. in
  for i = 0 to 999 do
    seq := !seq +. f i
  done;
  Pool.with_pool ~n_domains:4 (fun p ->
      let par = Pool.parallel_sum p ~lo:0 ~hi:1000 f in
      Alcotest.(check (float 1e-6)) "same sum" !seq par)

let test_reuse_many_times () =
  (* Exercises the generation protocol: many small loops in a row. *)
  Pool.with_pool ~n_domains:4 (fun p ->
      let acc = Atomic.make 0 in
      for _ = 1 to 200 do
        Pool.parallel_for p ~lo:0 ~hi:64 (fun _ -> Atomic.incr acc)
      done;
      Alcotest.(check int) "all iterations ran" (200 * 64) (Atomic.get acc))

let test_create_rejects_zero () =
  Alcotest.(check bool)
    "n_domains 0 raises" true
    (match Pool.create ~n_domains:0 with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_with_pool_shuts_down_on_exn () =
  (* with_pool must not leak domains when the body raises. *)
  Alcotest.(check bool)
    "exception propagates" true
    (match Pool.with_pool ~n_domains:3 (fun _ -> failwith "boom") with
    | _ -> false
    | exception Failure _ -> true)

let prop_sum_equals_closed_form =
  QCheck.Test.make ~name:"parallel_sum of identity" ~count:20
    QCheck.(pair (int_range 1 4) (int_range 0 5000))
    (fun (domains, n) ->
      Pool.with_pool ~n_domains:domains (fun p ->
          let s = Pool.parallel_sum p ~lo:0 ~hi:n float_of_int in
          Float.abs (s -. (float_of_int (n * (n - 1)) /. 2.)) < 1e-6))

(* --- work-stealing deque ------------------------------------------------ *)

let test_deque_lifo_fifo () =
  let d = Deque.create () in
  Alcotest.(check (option int)) "empty pop" None (Deque.pop_bottom d);
  Alcotest.(check (option int)) "empty steal" None (Deque.steal_top d);
  List.iter (Deque.push_bottom d) [ 1; 2; 3; 4 ];
  Alcotest.(check int) "size" 4 (Deque.size d);
  (* Owner pops the youngest... *)
  Alcotest.(check (option int)) "owner LIFO" (Some 4) (Deque.pop_bottom d);
  (* ...thieves take the oldest. *)
  Alcotest.(check (option int)) "thief FIFO" (Some 1) (Deque.steal_top d);
  Alcotest.(check (option int)) "thief FIFO again" (Some 2) (Deque.steal_top d);
  Alcotest.(check (option int)) "owner gets the rest" (Some 3)
    (Deque.pop_bottom d);
  Alcotest.(check (option int)) "drained" None (Deque.pop_bottom d);
  (* Growth past the initial capacity keeps order. *)
  for i = 0 to 99 do Deque.push_bottom d i done;
  Alcotest.(check (option int)) "oldest after growth" (Some 0)
    (Deque.steal_top d);
  Alcotest.(check (option int)) "youngest after growth" (Some 99)
    (Deque.pop_bottom d);
  Alcotest.(check int) "size after growth" 98 (Deque.size d)

let test_deque_concurrent_steal () =
  (* One owner domain pushing and popping, three thieves stealing: every
     pushed element must be taken exactly once, none invented. *)
  Pool.with_pool ~n_domains:4 (fun p ->
      let n = 20_000 in
      let d = Deque.create () in
      let taken = Array.make n (Atomic.make 0) in
      Array.iteri (fun i _ -> taken.(i) <- Atomic.make 0) taken;
      let pushed = Atomic.make 0 in
      Pool.run_team p (fun ~lane ->
          if lane = 0 then begin
            for i = 0 to n - 1 do
              Deque.push_bottom d i;
              Atomic.incr pushed;
              if i land 3 = 0 then
                match Deque.pop_bottom d with
                | Some x -> Atomic.incr taken.(x)
                | None -> ()
            done
          end
          else begin
            (* Thieves keep stealing until the owner is done and the
               deque is dry. *)
            let rec go () =
              match Deque.steal_top d with
              | Some x ->
                  Atomic.incr taken.(x);
                  go ()
              | None -> if Atomic.get pushed < n then go ()
            in
            go ()
          end);
      (* Drain what survived the race between "pushed = n" and the last
         steal. *)
      let rec drain () =
        match Deque.pop_bottom d with
        | Some x ->
            Atomic.incr taken.(x);
            drain ()
        | None -> ()
      in
      drain ();
      Alcotest.(check bool)
        "each element taken exactly once" true
        (Array.for_all (fun a -> Atomic.get a = 1) taken);
      Alcotest.(check int) "deque empty" 0 (Deque.size d))

let prop_disjoint_writes_race_free =
  QCheck.Test.make ~name:"disjoint writes are race-free" ~count:10
    QCheck.(int_range 1 4)
    (fun domains ->
      Pool.with_pool ~n_domains:domains (fun p ->
          let n = 5000 in
          let a = Array.make n 0 in
          Pool.parallel_for p ~lo:0 ~hi:n (fun i -> a.(i) <- 3 * i);
          Array.for_all Fun.id (Array.init n (fun i -> a.(i) = 3 * i))))

(* --- span sets --------------------------------------------------------- *)

let rejects name f =
  Alcotest.(check bool) (name ^ " raises Invalid_argument") true
    (match f () with _ -> false | exception Invalid_argument _ -> true)

let test_span_validation () =
  rejects "unsorted" (fun () -> Span.of_spans [| (5, 7); (0, 2) |]);
  rejects "overlapping" (fun () -> Span.of_spans [| (0, 4); (3, 6) |]);
  rejects "empty span" (fun () -> Span.of_spans [| (0, 2); (4, 4) |]);
  rejects "inverted span" (fun () -> Span.of_spans [| (3, 1) |]);
  rejects "negative" (fun () -> Span.of_spans [| (-1, 2) |]);
  rejects "range below zero" (fun () -> Span.range (-2) 3);
  rejects "inverted range" (fun () -> Span.range 4 3);
  rejects "unsorted indices" (fun () -> Span.of_sorted [| 0; 3; 2 |]);
  rejects "repeated index" (fun () -> Span.of_sorted [| 1; 1 |]);
  rejects "negative index" (fun () -> Span.of_sorted [| -1; 0 |]);
  rejects "past the space" (fun () -> Span.within "test" (Span.range 0 11) 10);
  Span.within "test" (Span.range 0 10) 10;
  let s = Span.of_spans [| (0, 2); (2, 3); (7, 9) |] in
  Alcotest.(check int) "adjacent runs kept" 3 (Span.spans s);
  Alcotest.(check int) "cardinal" 5 (Span.cardinal s);
  Alcotest.(check int) "bound" 9 (Span.bound s);
  Alcotest.(check (array int)) "same indices as merged runs"
    [| 0; 1; 2; 7; 8 |] (Span.to_array s);
  Alcotest.(check int) "of_sorted merges runs" 2
    (Span.spans (Span.of_sorted [| 0; 1; 2; 7; 8 |]));
  Alcotest.(check int) "empty range" 0 (Span.spans (Span.range 3 3));
  Alcotest.(check (array int)) "filter" [| 1; 7 |]
    (Span.to_array (Span.filter (fun i -> i mod 2 = 1 || i = 7) s))

(* A random span set, as runs of random length and gap (gap 0 gives
   adjacent runs). *)
let random_spans r n =
  let runs = ref [] and i = ref (Random.State.int r 5) in
  while !i < n do
    let hi = Int.min n (!i + 1 + Random.State.int r 9) in
    runs := (!i, hi) :: !runs;
    i := hi + Random.State.int r 6
  done;
  Span.of_spans (Array.of_list (List.rev !runs))

(* Walked span by span or in pool chunks of positions, a set hands out
   each of its indices exactly once and nothing else. *)
let prop_span_runs_cover_set =
  QCheck.Test.make ~name:"span runs cover the set exactly once" ~count:50
    QCheck.(pair (int_range 0 10_000) (int_range 1 7))
    (fun (seed, chunk) ->
      let r = Random.State.make [| seed |] in
      let n = 1 + Random.State.int r 300 in
      let s = random_spans r n in
      let expected = Array.make (n + 16) 0 in
      Span.iter (fun i -> expected.(i) <- 1) s;
      let count pool =
        let hits = Array.init (n + 16) (fun _ -> Atomic.make 0) in
        Span.runs ~chunk pool s (fun ~lo ~hi ->
            for i = lo to hi - 1 do
              Atomic.incr hits.(i)
            done);
        Array.map Atomic.get hits
      in
      count None = expected
      && Pool.with_pool ~n_domains:2 (fun p -> count (Some p)) = expected
      && Array.length (Span.to_array s) = Span.cardinal s)

let () =
  Alcotest.run "par"
    [
      ( "pool",
        [
          Alcotest.test_case "sequential" `Quick test_sequential_pool;
          Alcotest.test_case "covers range" `Quick
            test_parallel_for_covers_range;
          Alcotest.test_case "partial range" `Quick
            test_parallel_for_partial_range;
          Alcotest.test_case "empty range" `Quick test_parallel_for_empty_range;
          Alcotest.test_case "chunks" `Quick test_parallel_for_chunks;
          Alcotest.test_case "sum deterministic" `Quick
            test_parallel_sum_deterministic;
          Alcotest.test_case "sum correct" `Quick
            test_parallel_sum_matches_sequential;
          Alcotest.test_case "reuse" `Quick test_reuse_many_times;
          Alcotest.test_case "bad size" `Quick test_create_rejects_zero;
          Alcotest.test_case "exn safety" `Quick
            test_with_pool_shuts_down_on_exn;
        ] );
      ( "span",
        [ Alcotest.test_case "validation" `Quick test_span_validation ] );
      ( "deque",
        [
          Alcotest.test_case "owner LIFO, thief FIFO" `Quick
            test_deque_lifo_fifo;
          Alcotest.test_case "concurrent steal" `Quick
            test_deque_concurrent_steal;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_sum_equals_closed_form;
            prop_disjoint_writes_race_free;
            prop_span_runs_cover_set;
          ] );
    ]
