(* The repository benchmark: four closed-loop workloads driven from outside
   the program, through the layers' public functions.

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   --trace 0 prints the end-to-end metrics: wall-clock throughput of the
   timed phase scaled to a reference machine speed, set-up time, live heap,
   the fraction of operations that succeeded, and the simulated-time
   latencies and throughput an application developer would see. --trace 1
   prints the per-layer metrics: counts read from the cluster's metrics
   registry, events counted by stepping the simulator here, GC statistics,
   timed calls into single layers, a layer ladder and spans recorded around
   every call this file makes into a layer.

   Simulated-time metrics and counts are a pure function of the seed. Every
   run checks the program's outputs; the last line of standard output is one
   JSON object, and a failed check makes the process exit with status 1. *)

module Crdb = Crdb_core.Crdb
module Cluster = Crdb.Cluster
module Engine = Crdb.Engine
module Txn = Crdb.Txn
module Value = Crdb.Value
module Ddl = Crdb.Ddl
module Metrics = Crdb.Metrics
module Obs = Crdb.Obs
module Topology = Crdb.Topology
module Latency = Crdb.Latency
module Timeseries = Crdb.Timeseries
module Zoneconfig = Crdb.Zoneconfig
module Sim = Crdb_sim.Sim
module Proc = Crdb_sim.Proc
module Rng = Crdb_stdx.Rng
module Hist = Crdb_stats.Hist
module Keycodec = Crdb_sql.Keycodec
module Mvcc = Crdb_storage.Mvcc
module Ycsb = Crdb_workload.Ycsb
module Tpcc = Crdb_workload.Tpcc

let now_s () = Unix.gettimeofday ()

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.0
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b
let ms micros = float_of_int micros /. 1000.0

(* Simulated latencies in whole microseconds. *)
module Samples = struct
  type t = { mutable a : int array; mutable n : int }

  let create () = { a = Array.make 1024 0; n = 0 }

  let add t v =
    if t.n = Array.length t.a then begin
      let b = Array.make (2 * t.n) 0 in
      Array.blit t.a 0 b 0 t.n;
      t.a <- b
    end;
    t.a.(t.n) <- v;
    t.n <- t.n + 1

  let count t = t.n

  let sorted t =
    let s = Array.sub t.a 0 t.n in
    Array.sort Int.compare s;
    s

  (* Nearest-rank percentile, and the number of samples beyond it. *)
  let percentile t p =
    let rank = int_of_float (ceil (p /. 100.0 *. float_of_int t.n)) in
    let v = if t.n = 0 then 0 else (sorted t).(max 0 (min (t.n - 1) (rank - 1))) in
    (v, t.n - rank)

  (* Harrell-Davis estimate of quantile [q]: the order statistics weighted
     by a Beta((n+1)q, (n+1)(1-q)) density, here in its normal
     approximation. Latencies are whole, often tightly clustered
     microseconds, so the plain sample median can repeat exactly from seed
     to seed; this estimate averages the order statistics around it. *)
  let harrell_davis t q =
    let n = t.n in
    if n = 0 then 0.0
    else begin
      let s = sorted t in
      let sd = sqrt (q *. (1.0 -. q) /. float_of_int (n + 2)) in
      let cdf x = 0.5 *. (1.0 +. Float.erf ((x -. q) /. (sd *. sqrt 2.0))) in
      let lo = max 1 (int_of_float (float_of_int n *. (q -. (8.0 *. sd)))) in
      let hi = min n (1 + int_of_float (ceil (float_of_int n *. (q +. (8.0 *. sd))))) in
      let sum = ref 0.0 and wsum = ref 0.0 in
      for i = lo to hi do
        let w = cdf (float_of_int i /. float_of_int n) -. cdf (float_of_int (i - 1) /. float_of_int n) in
        sum := !sum +. (w *. float_of_int s.(i - 1));
        wsum := !wsum +. w
      done;
      !sum /. !wsum
    end
end

(* ------------------------------------------------------------------ *)
(* Spans around the benchmark's calls into the layers                  *)

module Span = struct
  type t = {
    id : int;
    parent : int;  (** 0 for a root span *)
    req : int;  (** shared by the spans of one client operation *)
    layer : string;
    fn : string;
    sim0 : int;
    mutable sim1 : int;
    wall0 : float;
    mutable wall1 : float;
  }

  let enabled = ref false
  let recorded : t list ref = ref []
  let next_id = ref 0
  let clock = ref (fun () -> 0)

  (* [record ~req ~parent layer fn f] runs [f id], where [id] names the new
     span as the parent of nested calls. With tracing off it only runs [f]:
     spans read the clocks and never touch the simulation. *)
  let record ?(parent = 0) ~req layer fn f =
    if not !enabled then f 0
    else begin
      incr next_id;
      let s =
        {
          id = !next_id;
          parent;
          req;
          layer;
          fn;
          sim0 = !clock ();
          sim1 = 0;
          wall0 = now_s ();
          wall1 = 0.0;
        }
      in
      let finish () =
        s.sim1 <- !clock ();
        s.wall1 <- now_s ();
        recorded := s :: !recorded
      in
      match f s.id with
      | v ->
          finish ();
          v
      | exception e ->
          finish ();
          raise e
    end

  (* Simulated self time per layer: each span's duration minus the part of
     it its children cover. *)
  let self_sim_by_layer spans =
    let children = Hashtbl.create 1024 in
    List.iter (fun s -> Hashtbl.add children s.parent s) spans;
    let acc = Hashtbl.create 8 in
    List.iter
      (fun s ->
        let kids =
          Hashtbl.find_all children s.id
          |> List.map (fun c -> (c.sim0, c.sim1))
          |> List.sort compare
        in
        let covered, _ =
          List.fold_left
            (fun (sum, reach) (a, b) ->
              let a = max a reach in
              if b > a then (sum + (b - a), b) else (sum, reach))
            (0, s.sim0) kids
        in
        let self = s.sim1 - s.sim0 - covered in
        let prev = Option.value ~default:0 (Hashtbl.find_opt acc s.layer) in
        Hashtbl.replace acc s.layer (prev + self))
      spans;
    acc

  let write_jsonl path spans =
    let oc = open_out path in
    List.iter
      (fun s ->
        Printf.fprintf oc
          "{\"id\":%d,\"parent\":%d,\"req\":%d,\"layer\":%S,\"fn\":%S,\"sim_start_us\":%d,\"sim_end_us\":%d,\"wall_start_s\":%.6f,\"wall_end_s\":%.6f}\n"
          s.id s.parent s.req s.layer s.fn s.sim0 s.sim1 s.wall0 s.wall1)
      (List.rev spans);
    close_out oc
end

(* ------------------------------------------------------------------ *)
(* Client-side results of one episode                                  *)

type stats = {
  reads : Samples.t;  (** simulated µs: reads / read-only transactions *)
  writes : Samples.t;  (** simulated µs: writes / read-write transactions *)
  mutable attempted : int;
  mutable done_ops : int;  (** operations completed so far *)
  mutable failed : int;
  mutable stmts : int;  (** SQL statements issued *)
  mutable committed_writes : int;  (** the tpmc numerator *)
  mutable window_us : int;  (** simulated measurement window *)
  mutable problems : string list;  (** failed correctness checks *)
}

let new_stats () =
  {
    reads = Samples.create ();
    writes = Samples.create ();
    attempted = 0;
    done_ops = 0;
    failed = 0;
    stmts = 0;
    committed_writes = 0;
    window_us = 0;
    problems = [];
  }

let problem st fmt = Printf.ksprintf (fun s -> st.problems <- s :: st.problems) fmt

type env = { t : Crdb.t; cl : Cluster.t; sim : Sim.t; db : Engine.db option }

let env_of t db =
  let cl = Crdb.cluster t in
  Span.clock := (fun () -> Sim.now (Cluster.sim cl));
  { t; cl; sim = Cluster.sim cl; db }

let db_of env = Option.get env.db

(* Move every range's lease to the first node of its leaseholder's region
   and wait until all have moved. Which node of a region wins a lease is
   otherwise a lottery of the seed, and with it how many of a client's
   statements are served on its own gateway; pinning makes that layout the
   same for every seed. *)
let pin_leases env =
  let topo = Crdb.topology env.t in
  let target rid =
    match Cluster.leaseholder_region env.cl rid with
    | Some region -> Some (List.hd (Topology.nodes_in_region topo region)).Topology.id
    | None -> None
  in
  let misplaced () =
    List.filter (fun rid -> Cluster.leaseholder env.cl rid <> target rid) (Cluster.ranges env.cl)
  in
  let rec go tries =
    match misplaced () with
    | [] -> ()
    | _ when tries = 0 -> failwith "pin_leases: leases did not move"
    | rids ->
        List.iter
          (fun rid -> Option.iter (fun node -> Cluster.transfer_lease env.cl rid ~target:node) (target rid))
          rids;
        Cluster.run_for env.cl 500_000;
        go (tries - 1)
  in
  go 20;
  env

(* Simulated length of the idle window that follows every set-up. *)
let idle_us = 2_000_000

(* Machine-speed probe. The shared host this benchmark was sized on changes
   speed by itself: within an hour the same episode ran at 5,600, 12,000 and
   15,800 ops/s, with no CPU time stolen. The probe times a fixed kernel that
   stays in cache and allocates nothing: rounds of xorshift fills and
   insertion sorts of 64 ints. It never touches the program, so the
   program's own speed never moves it. [factor] is its time as a multiple of
   what it took on the reference machine (a 2-vCPU VM, OCaml 5.1.1) at the
   fastest that ran. Kernels tried alongside it, over the same runs: pointer
   chases over 256 KB and 32 MB, and two that allocate (map and hash-table
   updates; a small discrete-event loop). When the host slowed the program
   by 1.85x (ycsb-a-rbr) and 2.6x (hotkey-epoch), the chases slowed by
   1.4-1.7x, the sort by 1.9x and the allocating kernels by 1.9-2.0x; over
   50 runs through a milder 1.26-1.5x change the sort's time and the
   program's throughput correlated at -0.98. *)
module Probe = struct
  let keys = Array.make 64 0

  let sort_rounds rounds =
    let t0 = now_s () in
    let x = ref 88172645463325252 in
    for _ = 1 to rounds do
      for i = 0 to 63 do
        x := !x lxor (!x lsl 13);
        x := !x lxor (!x lsr 7);
        x := !x lxor (!x lsl 17);
        Array.unsafe_set keys i (!x land 0xffff)
      done;
      for i = 1 to 63 do
        let v = Array.unsafe_get keys i in
        let j = ref (i - 1) in
        while !j >= 0 && Array.unsafe_get keys !j > v do
          Array.unsafe_set keys (!j + 1) (Array.unsafe_get keys !j);
          decr j
        done;
        Array.unsafe_set keys (!j + 1) v
      done
    done;
    now_s () -. t0

  (* The kernel's time on the reference machine at the fastest it ran. *)
  let ref_s = 0.014

  let factor () = sort_rounds 12_000 /. ref_s
end

(* Run closed-loop client processes to completion by stepping the simulator
   here, counting events and the queue's high-water mark; then drain the
   post-acknowledgement background work the clients left behind. With
   [~probe], the wall time of the clients is cut into chunks of about
   [chunk_s], each with the operations completed in it and the probe's
   factor taken right after it; probe time is left out of every figure. *)
let chunk_s = 0.5

type chunk = { ops : int; wall : float; factor : float }

let drive ?(probe = false) env st clients =
  let left = ref (List.length clients) in
  List.iter
    (fun f ->
      Proc.spawn env.sim (fun () ->
          f ();
          decr left))
    clients;
  let events = ref 0 and peak = ref 0 and chunks = ref [] and probe_s = ref 0.0 in
  let t0 = ref (now_s ()) and ops0 = ref st.done_ops in
  let cut t =
    let factor = Probe.factor () in
    chunks := { ops = st.done_ops - !ops0; wall = t -. !t0; factor } :: !chunks;
    let t1 = now_s () in
    probe_s := !probe_s +. (t1 -. t);
    t0 := t1;
    ops0 := st.done_ops
  in
  while !left > 0 && Sim.step env.sim do
    incr events;
    let p = Sim.pending env.sim in
    if p > !peak then peak := p;
    if probe && !events land 1023 = 0 then begin
      let t = now_s () in
      if t -. !t0 >= chunk_s then cut t
    end
  done;
  if !left > 0 then failwith "event queue drained before the clients finished";
  if probe then cut (now_s ());
  Cluster.run env.cl ignore;
  (!events, !peak, !chunks, !probe_s)

(* A closed-loop client stops after a number of operations or at the end of
   a simulated measurement window; in a window, only operations completing
   inside it count toward latencies and simulated throughput. *)
type stop = Ops of int | Window of { from : int; until : int }

let window env st ~warmup ~length =
  let start = Sim.now env.sim in
  st.window_us <- length;
  Window { from = start + warmup; until = start + warmup + length }

let running env stop n =
  match stop with Ops k -> n < k | Window w -> Sim.now env.sim < w.until

let counted stop t =
  match stop with Ops _ -> true | Window w -> t >= w.from && t < w.until

(* ------------------------------------------------------------------ *)
(* YCSB: ycsb-a-rbr and ycsb-b-global                                  *)

module Ycsb_w = struct
  let regions = Latency.table1_regions
  let nregions = List.length regions
  let max_clients_per_region = 12
  let slice = 40
  let keyspace = nregions * nregions * max_clients_per_region * slice
  let locality = 0.95
  let table = Ycsb.table_name
  let table_id = 1 (* the only table of a fresh database *)

  type op = Read of int | Write of int * string

  let setup ~seed variant =
    let config = { Cluster.default with Cluster.seed } in
    let t = Crdb.start ~config ~regions () in
    Crdb.exec t
      (Ddl.N_create_database
         { db = "ycsb"; primary = List.hd regions; regions = List.tl regions });
    Crdb.exec_all t (Ycsb.ddl variant ~db:"ycsb" ~regions);
    let db = Crdb.database t "ycsb" in
    Engine.set_locality_optimized_search db true;
    Ycsb.load t db variant ~keyspace;
    pin_leases (env_of t (Some db))

  let home i = Ycsb.home_region ~regions i
  let initial_value i = Printf.sprintf "value-%d" i

  (* The op stream of client [c] in region [ri]: a pure function of the
     seed, so every rung of the ladder replays the same operations. The j-th
     key homed in region r is r + j * nregions; a key is in the client's
     region with probability [locality]. With [shared], keys are Zipfian
     over all of a region's keys, so clients contend on the hot ones.
     Otherwise they are Zipfian within slices of the keyspace no other
     client touches (the disjoint key sets of §7.2.1): one slice of the
     client's own region's keys and, per remote region, one slice reserved
     for it there. *)
  let streams ~seed ~shared ~clients_per_region ~write_ratio =
    let master = Rng.create ~seed in
    let zipf = Rng.Zipf.create ~n:(if shared then keyspace / nregions else slice) () in
    List.concat_map
      (fun ri ->
        List.init clients_per_region (fun c ->
            let rng = Rng.split master in
            let n = ref 0 in
            let next () =
              let r =
                if Rng.bernoulli rng locality then ri
                else (ri + 1 + Rng.int rng (nregions - 1)) mod nregions
              in
              let s = (max_clients_per_region * ((ri - r + nregions) mod nregions)) + c in
              let z = Rng.Zipf.scrambled_sample zipf rng in
              let j = if shared then z else (s * slice) + z in
              incr n;
              if Rng.bernoulli rng write_ratio then
                Write (r + (j * nregions), Printf.sprintf "c%d.%d-%d" ri c !n)
              else Read (r + (j * nregions))
            in
            (List.nth regions ri, c, next)))
      (List.init nregions Fun.id)

  let field0 row =
    match List.assoc_opt "field0" row with
    | Some (Value.V_string s) -> s
    | _ -> "<no field0>"

  (* Writes per key as (start, end, value), for the final-state check. *)
  type history = (int, (int * int * string) list) Hashtbl.t

  let sql_op ~blind env st ~req ~gateway op =
    let db = db_of env in
    st.stmts <- st.stmts + 1;
    match op with
    | Read key -> (
        match
          Span.record ~req "sql" "Engine.select_by_pk" (fun _ ->
              Engine.select_by_pk db ~gateway ~table [ Ycsb.key_of key ])
        with
        | Ok (Some _) -> true
        | Ok None ->
            problem st "read of loaded key %d found no row" key;
            true
        | Error _ -> false)
    | Write (key, v) ->
        let row = [ ("ycsb_key", Ycsb.key_of key); ("field0", Value.V_string v) ] in
        if blind then
          Span.record ~req "sql" "Engine.upsert" (fun _ ->
              Result.is_ok (Engine.upsert db ~gateway ~table row))
        else begin
          match
            Span.record ~req "sql" "Engine.update_by_pk" (fun _ ->
                Engine.update_by_pk db ~gateway ~table [ Ycsb.key_of key ]
                  ~set:[ ("field0", Value.V_string v) ])
          with
          | Ok true -> true
          | Ok false ->
              problem st "update of loaded key %d found no row" key;
              true
          | Error _ -> false
        end

  let kv_key ~blind key =
    let partition = if blind then None else Some (home key) in
    Keycodec.row_key ~table_id ~index_no:Keycodec.primary_index ~partition
      [ Ycsb.key_of key ]

  let txn_op ~blind env ~gateway op =
    let mgr = Engine.txn_manager (Crdb.engine env.t) in
    match op with
    | Read key ->
        Result.is_ok (Txn.run mgr ~gateway (fun t -> Txn.get t (kv_key ~blind key)))
    | Write (key, v) ->
        Result.is_ok (Txn.run mgr ~gateway (fun t -> Txn.put t (kv_key ~blind key) v))

  let raw_txn_ids = ref 1_000_000_000

  let kv_op ~blind env ~gateway op =
    let ts = Cluster.now_ts env.cl gateway in
    match op with
    | Read key -> (
        match
          Cluster.read env.cl ~gateway ~txn:None ~key:(kv_key ~blind key) ~ts
            ~max_ts:ts ()
        with
        | Cluster.Read_value _ -> true
        | _ -> false)
    | Write (key, v) ->
        incr raw_txn_ids;
        Result.is_ok
          (Cluster.write_and_commit env.cl ~gateway ~txn:!raw_txn_ids
             ~key:(kv_key ~blind key) ~value:(Some v) ~ts ())

  (* Closed-loop clients, one per (region, index), running [exec] over
     their op streams until [stop]. *)
  let clients env st streams ~exec ~(history : history option) ~stop =
    List.map
      (fun (region, c, next) () ->
        let gateway = Crdb.gateway env.t ~region ~index:c () in
        let n = ref 0 in
        while running env stop !n do
          incr n;
          let op = next () in
          st.attempted <- st.attempted + 1;
          let req = st.attempted in
          let t0 = Sim.now env.sim in
          let ok =
            Span.record ~req "client" "ycsb.op" (fun _ -> exec env st ~req ~gateway op)
          in
          let t1 = Sim.now env.sim in
          st.done_ops <- st.done_ops + 1;
          if not ok then st.failed <- st.failed + 1
          else
            match op with
            | Read _ -> if counted stop t1 then Samples.add st.reads (t1 - t0)
            | Write (key, v) -> (
                if counted stop t1 then begin
                  Samples.add st.writes (t1 - t0);
                  st.committed_writes <- st.committed_writes + 1
                end;
                match history with
                | Some h ->
                    let prev = Option.value ~default:[] (Hashtbl.find_opt h key) in
                    Hashtbl.replace h key ((t0, t1, v) :: prev)
                | None -> ())
        done)
      streams

  (* Read back a seeded sample of keys and compare each with its last
     acknowledged write: the value must come from a write that no other
     write to the key followed in real (simulated) time, or be the loaded
     value if nothing was written. *)
  let check env st ~seed (history : history) =
    let db = db_of env in
    let rng = Rng.create ~seed:(seed + 7919) in
    let written = Hashtbl.fold (fun k _ acc -> k :: acc) history [] |> List.sort compare in
    let written = Array.of_list written in
    let sample =
      List.init 150 (fun _ -> written.(Rng.int rng (Array.length written)))
      @ List.init 50 (fun _ -> Rng.int rng keyspace)
      |> List.sort_uniq compare
    in
    Crdb.run env.t (fun () ->
        List.iter
          (fun key ->
            let gateway = Crdb.gateway env.t ~region:(home key) () in
            let allowed =
              match Hashtbl.find_opt history key with
              | None -> [ initial_value key ]
              | Some ws ->
                  List.filter_map
                    (fun (_, e, v) ->
                      if List.exists (fun (s', _, _) -> s' > e) ws then None
                      else Some v)
                    ws
            in
            match Engine.select_by_pk db ~gateway ~table [ Ycsb.key_of key ] with
            | Ok (Some row) ->
                let got = field0 row in
                if not (List.mem got allowed) then
                  problem st "key %d reads %S, expected one of [%s]" key got
                    (String.concat "; " allowed)
            | Ok None -> problem st "key %d lost its row" key
            | Error e ->
                problem st "read-back of key %d failed: %s" key
                  (Format.asprintf "%a" Engine.pp_exec_error e))
          sample)

  let probe_keys ~blind ~shared ~seed ~clients_per_region n =
    let streams = streams ~seed ~shared ~clients_per_region ~write_ratio:0.0 |> Array.of_list in
    List.init n (fun i ->
        let _, _, next = streams.(i mod Array.length streams) in
        match next () with Read key | Write (key, _) -> kv_key ~blind key)
end

(* ------------------------------------------------------------------ *)
(* TPC-C over 26 regions: tpcc-26r                                     *)

module Tpcc_w = struct
  let regions = List.filteri (fun i _ -> i < 26) Latency.gcp_region_names
  let terminals = 10
  let districts = 10
  let customers = 20
  let items = 100
  let warmup = 1_000_000
  let window_us = 6_000_000
  let table_ids = List.mapi (fun i n -> (n, i + 1)) Tpcc.table_names

  let vint i = Value.V_int i
  let vstr s = Value.V_string s

  (* [Tpcc.load]'s population plus [preloaded] undelivered orders of five
     lines per district: TPC-C's initial population has orders, and without
     them Order-Status and Stock-Level find nothing to read early in a
     short run. *)
  let preloaded = 3

  let load t db =
    Engine.bulk_insert db ~table:"item"
      (List.init items (fun i ->
           [ ("i_id", vint i); ("i_name", vstr (Printf.sprintf "item%d" i)); ("i_price", vint (100 + i)) ]));
    List.iteri
      (fun w region ->
        let insert table rows = Engine.bulk_insert db ~table ~region rows in
        let ds = List.init districts Fun.id in
        let orders = List.concat_map (fun d -> List.init preloaded (fun o -> (d, o + 1))) ds in
        insert "warehouse"
          [ [ ("w_id", vint w); ("w_name", vstr (Printf.sprintf "wh%d" w)); ("w_ytd", vint 0) ] ];
        insert "district"
          (List.map
             (fun d ->
               [ ("w_id", vint w); ("d_id", vint d); ("d_next_o_id", vint (preloaded + 1));
                 ("d_ytd", vint 0) ])
             ds);
        insert "customer"
          (List.concat_map
             (fun d ->
               List.init customers (fun c ->
                   [ ("w_id", vint w); ("d_id", vint d); ("c_id", vint c);
                     ("c_balance", vint 0); ("c_data", vstr "customer") ]))
             ds);
        insert "stock"
          (List.init items (fun i -> [ ("w_id", vint w); ("i_id", vint i); ("s_quantity", vint 1000) ]));
        insert "orders"
          (List.map
             (fun (d, o) ->
               [ ("w_id", vint w); ("d_id", vint d); ("o_id", vint o); ("c_id", vint (o mod customers));
                 ("ol_cnt", vint 5); ("delivered", vint 0) ])
             orders);
        insert "neworder"
          (List.map (fun (d, o) -> [ ("w_id", vint w); ("d_id", vint d); ("o_id", vint o) ]) orders);
        insert "orderline"
          (List.concat_map
             (fun (d, o) ->
               List.init 5 (fun n ->
                   [ ("w_id", vint w); ("d_id", vint d); ("o_id", vint o); ("ol_number", vint n);
                     ("i_id", vint (((7 * o) + (13 * n) + d) mod items)); ("qty", vint 5) ]))
             orders))
      regions;
    Crdb.settle t

  let setup ~seed =
    let config = { Cluster.default with Cluster.seed } in
    let t = Crdb.start ~config ~regions () in
    Crdb.exec_all t (Tpcc.ddl ~db:"tpcc" ~regions ~warehouses_per_region:1);
    let db = Crdb.database t "tpcc" in
    load t db;
    pin_leases (env_of t (Some db))

  let get_int row col =
    match List.assoc_opt col row with
    | Some (Value.V_int i) -> i
    | _ -> raise (Engine.Sql_error ("missing int column " ^ col))

  let some what = function
    | Some row -> row
    | None -> raise (Engine.Sql_error ("missing " ^ what))

  type kind = New_order | Payment | Order_status | Delivery | Stock_level

  (* The 45/43/4/4/4 mix dealt from a shuffled 100-card deck per terminal
     (TPC-C 5.2.4.2's deck method), so short runs keep the mix. *)
  let deck rng =
    let d =
      Array.concat
        [
          Array.make 45 New_order; Array.make 43 Payment;
          Array.make 4 Order_status; Array.make 4 Delivery;
          Array.make 4 Stock_level;
        ]
    in
    Rng.shuffle rng d;
    d

  (* Spec keying + think times divided by [Tpcc.time_scale]; think times
     are exponential, truncated at ten times their mean. *)
  let pause rng kind =
    let keying, think =
      match kind with
      | New_order -> (18_000_000, 12_000_000)
      | Payment -> (3_000_000, 12_000_000)
      | Order_status -> (2_000_000, 10_000_000)
      | Delivery | Stock_level -> (2_000_000, 5_000_000)
    in
    let sampled = int_of_float (Rng.exponential rng ~mean:(float_of_int think)) in
    (keying + min sampled (10 * think)) / Tpcc.time_scale

  (* Where a terminal of a long-running system stands at time 0: inside a
     pause drawn in proportion to its length (rejection sampling), at a
     uniform point of it. Starting every terminal at the top of a cycle
     would crowd the first seconds. *)
  let residual_pause rng cards =
    let longest = (18_000_000 + (10 * 12_000_000)) / Tpcc.time_scale in
    let rec draw () =
      let p = pause rng (Rng.pick rng cards) in
      if Rng.int rng longest < p then Rng.int rng (p + 1) else draw ()
    in
    draw ()

  let kind_name = function
    | New_order -> "new_order"
    | Payment -> "payment"
    | Order_status -> "order_status"
    | Delivery -> "delivery"
    | Stock_level -> "stock_level"

  (* One transaction through [Engine.in_txn]; every statement is counted
     and gets a span under the transaction's. *)
  let run_txn db st ~req ~gateway ~rng ~w kind =
    let total_w = List.length regions in
    let d = Rng.int rng districts and c = Rng.int rng customers in
    let lines =
      if kind <> New_order then []
      else
        List.init (5 + Rng.int rng 11) (fun n ->
            let supply_w =
              if Rng.int rng 100 = 0 then (w + 1 + Rng.int rng (total_w - 1)) mod total_w
              else w
            in
            (n, Rng.int rng items, supply_w, 1 + Rng.int rng 10))
        (* Deterministic stock lock order across concurrent new-orders. *)
        |> List.sort (fun (_, i1, w1, _) (_, i2, w2, _) -> compare (w1, i1) (w2, i2))
    in
    let amount = 1 + Rng.int rng 5000 in
    Span.record ~req "sql" ("Engine.in_txn:" ^ kind_name kind) (fun parent ->
        Engine.in_txn db ~gateway (fun tc ->
            let stmt fn f =
              st.stmts <- st.stmts + 1;
              Span.record ~parent ~req "sql" fn (fun _ -> f ())
            in
            let select table key =
              stmt "Engine.t_select_by_pk" (fun () ->
                  Engine.t_select_by_pk tc ~table key)
            in
            let update table key set =
              ignore
                (stmt "Engine.t_update_by_pk" (fun () ->
                     Engine.t_update_by_pk tc ~table key ~set))
            in
            let insert table row =
              stmt "Engine.t_insert" (fun () -> Engine.t_insert tc ~table row)
            in
            let prefix ?limit table p =
              stmt "Engine.t_select_prefix" (fun () ->
                  Engine.t_select_prefix tc ~table ~prefix:p ?limit ())
            in
            let wd = [ vint w; vint d ] in
            match kind with
            | New_order ->
                ignore (some "warehouse" (select "warehouse" [ vint w ]));
                ignore (some "customer" (select "customer" (wd @ [ vint c ])));
                let o_id = get_int (some "district" (select "district" wd)) "d_next_o_id" in
                update "district" wd [ ("d_next_o_id", vint (o_id + 1)) ];
                insert "orders"
                  [ ("w_id", vint w); ("d_id", vint d); ("o_id", vint o_id);
                    ("c_id", vint c); ("ol_cnt", vint (List.length lines));
                    ("delivered", vint 0) ];
                insert "neworder" [ ("w_id", vint w); ("d_id", vint d); ("o_id", vint o_id) ];
                List.iter
                  (fun (n, i, sw, qty) ->
                    ignore (some "item" (select "item" [ vint i ]));
                    let s = get_int (some "stock" (select "stock" [ vint sw; vint i ])) "s_quantity" in
                    let s' = if s - qty > 10 then s - qty else s - qty + 91 in
                    update "stock" [ vint sw; vint i ] [ ("s_quantity", vint s') ];
                    insert "orderline"
                      [ ("w_id", vint w); ("d_id", vint d); ("o_id", vint o_id);
                        ("ol_number", vint n); ("i_id", vint i); ("qty", vint qty) ])
                  lines
            | Payment ->
                let wh = some "warehouse" (select "warehouse" [ vint w ]) in
                update "warehouse" [ vint w ] [ ("w_ytd", vint (get_int wh "w_ytd" + amount)) ];
                let dist = some "district" (select "district" wd) in
                update "district" wd [ ("d_ytd", vint (get_int dist "d_ytd" + amount)) ];
                let cust = some "customer" (select "customer" (wd @ [ vint c ])) in
                update "customer" (wd @ [ vint c ])
                  [ ("c_balance", vint (get_int cust "c_balance" - amount)) ];
                insert "history"
                  [ ("w_id", vint w); ("d_id", vint d); ("c_id", vint c);
                    ("h_amount", vint amount) ]
            | Order_status ->
                ignore (some "customer" (select "customer" (wd @ [ vint c ])));
                let last = get_int (some "district" (select "district" wd)) "d_next_o_id" - 1 in
                if last >= 1 then begin
                  ignore (select "orders" (wd @ [ vint last ]));
                  ignore (prefix "orderline" (wd @ [ vint last ]))
                end
            | Delivery -> (
                match prefix ~limit:1 "neworder" wd with
                | [] -> ()
                | row :: _ ->
                    let o_id = get_int row "o_id" in
                    update "orders" (wd @ [ vint o_id ]) [ ("delivered", vint 1) ];
                    let total =
                      List.fold_left
                        (fun acc l -> acc + get_int l "qty")
                        0
                        (prefix "orderline" (wd @ [ vint o_id ]))
                    in
                    let order = some "order" (select "orders" (wd @ [ vint o_id ])) in
                    let oc = get_int order "c_id" in
                    let cust = some "customer" (select "customer" (wd @ [ vint oc ])) in
                    update "customer" (wd @ [ vint oc ])
                      [ ("c_balance", vint (get_int cust "c_balance" + total)) ])
            | Stock_level ->
                let last = get_int (some "district" (select "district" wd)) "d_next_o_id" - 1 in
                if last >= 1 then
                  prefix "orderline" (wd @ [ vint last ])
                  |> List.map (fun l -> get_int l "i_id")
                  |> List.sort_uniq compare
                  |> List.filteri (fun i _ -> i < 5)
                  |> List.iter (fun i -> ignore (select "stock" [ vint w; vint i ]))))

  (* Paced terminals; latencies and new-orders count inside
     [warmup, warmup + window). Each terminal starts part-way through a
     pause, as if the run had been going for a while. *)
  let clients env st ~seed ~new_orders =
    let db = db_of env in
    let master = Rng.create ~seed in
    let start = Sim.now env.sim in
    let stop = window env st ~warmup ~length:window_us in
    let until = start + warmup + window_us in
    List.concat_map
      (fun (w, region) ->
        List.init terminals (fun term ->
            let rng = Rng.split master in
            (* Round-robin from the second node: 3 of the 10 terminals share
               a node with the region's pinned leases. With 4 of 10, close
               to half, the Order-Status median sat on the gap between
               local and remote transactions. *)
            let gateway = Crdb.gateway env.t ~region ~index:(term + 1) () in
            fun () ->
              let cards = ref (deck rng) and next = ref 0 in
              Proc.sleep env.sim (min (until - start) (residual_pause rng !cards));
              while running env stop 0 do
                if !next = Array.length !cards then begin
                  cards := deck rng;
                  next := 0
                end;
                let kind = !cards.(!next) in
                incr next;
                st.attempted <- st.attempted + 1;
                let req = st.attempted in
                let t0 = Sim.now env.sim in
                let r =
                  Span.record ~req "client" "tpcc.txn" (fun _ ->
                      run_txn db st ~req ~gateway ~rng ~w kind)
                in
                let t1 = Sim.now env.sim in
                st.done_ops <- st.done_ops + 1;
                (match r with
                | Error _ -> st.failed <- st.failed + 1
                | Ok () ->
                    if kind = New_order then incr new_orders;
                    if counted stop t1 then begin
                      (match kind with
                      | Order_status -> Samples.add st.reads (t1 - t0)
                      | Stock_level -> ()
                      | New_order | Payment | Delivery -> Samples.add st.writes (t1 - t0));
                      if kind = New_order then
                        st.committed_writes <- st.committed_writes + 1
                    end);
                let p = pause rng kind in
                let now = Sim.now env.sim in
                Proc.sleep env.sim (if now + p < until then p else until - now)
              done))
      (List.mapi (fun w r -> (w, r)) regions)

  (* TPC-C consistency condition 1-style: each district's next_o_id - 1 is
     its highest order id, and the districts together hold exactly the
     acknowledged new-orders. *)
  let check env st ~new_orders =
    let db = db_of env in
    let total = ref 0 in
    Crdb.run env.t (fun () ->
        List.mapi
          (fun w region ->
            Proc.async env.sim (fun () ->
                let gateway = Crdb.gateway env.t ~region () in
                for d = 0 to districts - 1 do
                  let wd = [ vint w; vint d ] in
                  match
                    ( Engine.select_by_pk db ~gateway ~table:"district" wd,
                      Engine.select_prefix db ~gateway ~table:"orders" ~prefix:wd () )
                  with
                  | Ok (Some dist), Ok orders ->
                      let next = get_int dist "d_next_o_id" in
                      let top = List.fold_left (fun m o -> max m (get_int o "o_id")) 0 orders in
                      total := !total + (next - 1);
                      if next - 1 <> top then
                        problem st "district (%d,%d): next_o_id %d but top order %d" w d next top
                  | _ -> problem st "district (%d,%d) unreadable" w d
                done))
          regions
        |> List.iter Proc.await);
    let expected = new_orders + (preloaded * districts * List.length regions) in
    if st.failed = 0 && !total <> expected then
      problem st "districts hold %d orders, %d new-orders acknowledged plus %d loaded" !total
        new_orders (expected - new_orders)

  let probe_keys ~seed n =
    let rng = Rng.create ~seed:(seed + 104729) in
    let stock = List.assoc "stock" table_ids in
    List.init n (fun _ ->
        let w = Rng.int rng (List.length regions) in
        Keycodec.row_key ~table_id:stock ~index_no:Keycodec.primary_index
          ~partition:(Some (List.nth regions w))
          [ vint w; vint (Rng.int rng items) ])
end

(* ------------------------------------------------------------------ *)
(* Hot keys under epoch-OCC: hotkey-epoch                              *)

module Hot_w = struct
  let regions = [ "us-east1"; "europe-west2"; "asia-northeast1" ]
  let clients = 16
  let hot = 64
  let warmup = 500_000
  let window_us = 10_000_000
  let read_ratio = 0.25
  let max_attempts = 1_000
  let key i = Printf.sprintf "hot%02d" i

  let setup ~seed =
    let config = { Cluster.default with Cluster.seed; cc_mode = `Epoch_occ } in
    let t = Crdb.start ~config ~regions () in
    let cl = Crdb.cluster t in
    let zone =
      Zoneconfig.derive ~regions ~home:(List.hd regions) ~survival:Zoneconfig.Zone
        ~placement:Zoneconfig.Default
    in
    ignore (Cluster.add_range cl ~span:("hot", "hot~") ~zone ~policy:(Cluster.Lag 3_000_000));
    Cluster.settle cl;
    pin_leases (env_of t None)

  let int_of = function None -> 0 | Some s -> int_of_string s

  (* Two-key read-modify-write transfers (+1 / -1) and two-key read-only
     transactions, retried by [Txn.run] until they commit. *)
  let clients env st ~seed ~expected =
    let mgr = Engine.txn_manager (Crdb.engine env.t) in
    let master = Rng.create ~seed in
    let home = Topology.nodes_in_region (Crdb.topology env.t) (List.hd regions) in
    let stop = window env st ~warmup ~length:window_us in
    List.init clients (fun c ->
        let rng = Rng.split master in
        let gateway = (List.nth home (c mod List.length home)).Topology.id in
        fun () ->
          while running env stop 0 do
            let a = Rng.int rng hot in
            let b = (a + 1 + Rng.int rng (hot - 1)) mod hot in
            let read_only = Rng.bernoulli rng read_ratio in
            st.attempted <- st.attempted + 1;
            let req = st.attempted in
            let t0 = Sim.now env.sim in
            let r =
              Span.record ~req "client" "hotkey.op" (fun _ ->
                  Span.record ~req "txn" "Txn.run" (fun parent ->
                      Txn.run mgr ~gateway ~max_attempts (fun t ->
                          let get k =
                            Span.record ~parent ~req "txn" "Txn.get" (fun _ ->
                                int_of (Txn.get t (key k)))
                          in
                          let put k v =
                            Span.record ~parent ~req "txn" "Txn.put" (fun _ ->
                                Txn.put t (key k) (string_of_int v))
                          in
                          let va = get a and vb = get b in
                          if not read_only then begin
                            put a (va + 1);
                            put b (vb - 1)
                          end)))
            in
            let t1 = Sim.now env.sim in
            st.done_ops <- st.done_ops + 1;
            match r with
            | Error _ -> st.failed <- st.failed + 1
            | Ok () when read_only -> if counted stop t1 then Samples.add st.reads (t1 - t0)
            | Ok () ->
                if counted stop t1 then begin
                  Samples.add st.writes (t1 - t0);
                  st.committed_writes <- st.committed_writes + 1
                end;
                expected.(a) <- expected.(a) + 1;
                expected.(b) <- expected.(b) - 1
          done)

  (* A final read-all transaction: the hot keys still sum to zero and, when
     every transfer's fate is known, each equals its acknowledged net. *)
  let check env st ~expected =
    let mgr = Engine.txn_manager (Crdb.engine env.t) in
    let gateway = Crdb.gateway env.t ~region:(List.hd regions) () in
    match
      Crdb.run env.t (fun () ->
          Txn.run mgr ~gateway (fun t -> List.init hot (fun i -> int_of (Txn.get t (key i)))))
    with
    | Error _ -> problem st "final read-all transaction failed"
    | Ok values ->
        let sum = List.fold_left ( + ) 0 values in
        if sum <> 0 then problem st "hot keys sum to %d, not 0" sum;
        if st.failed = 0 then
          List.iteri
            (fun i v ->
              if v <> expected.(i) then
                problem st "%s = %d, acknowledged transfers give %d" (key i) v expected.(i))
            values

  let probe_keys ~seed n =
    let rng = Rng.create ~seed:(seed + 104729) in
    List.init n (fun _ -> key (Rng.int rng hot))
end

(* ------------------------------------------------------------------ *)
(* Workload table                                                      *)

type workload = {
  name : string;
  setup : seed:int -> env;
  (* Clients of one episode and the check to run after it. *)
  episode : env -> stats -> seed:int -> (unit -> unit) list * (unit -> unit);
  probe_keys : seed:int -> int -> string list;
  ladder : seed:int -> (string * float) list;  (** wall µs per op of each rung *)
  read_tail : float;  (** percentile of read_tail_ms *)
  write_tail : float;  (** percentile of write_tail_ms *)
}

let ycsb ~name ~variant ~shared ~clients_per_region ~write_ratio ~window_us ~ladder_ops
    ~read_tail ~write_tail =
  let blind = variant = Ycsb.Global_table in
  {
    name;
    setup = (fun ~seed -> Ycsb_w.setup ~seed variant);
    episode =
      (fun env st ~seed ->
        let history = Hashtbl.create 1024 in
        let streams = Ycsb_w.streams ~seed ~shared ~clients_per_region ~write_ratio in
        let stop = window env st ~warmup:250_000 ~length:window_us in
        ( Ycsb_w.clients env st streams ~exec:(Ycsb_w.sql_op ~blind) ~history:(Some history)
            ~stop,
          fun () -> Ycsb_w.check env st ~seed history ));
    probe_keys = (fun ~seed n -> Ycsb_w.probe_keys ~blind ~shared ~seed ~clients_per_region n);
    (* The layer ladder: the same seeded op sequence through SQL, Txn and
       Cluster on identically set-up fresh clusters. *)
    ladder =
      (fun ~seed ->
        List.map
          (fun (rung, exec) ->
            Gc.compact ();
            let env = Ycsb_w.setup ~seed variant in
            Cluster.run_for env.cl idle_us;
            let st = new_stats () in
            let streams =
              Ycsb_w.streams ~seed:(seed + 31337) ~shared ~clients_per_region ~write_ratio
            in
            let procs = Ycsb_w.clients env st streams ~exec ~history:None ~stop:(Ops ladder_ops) in
            let t0 = now_s () in
            ignore (drive env st procs);
            let wall = now_s () -. t0 in
            if st.failed > 0 then
              failwith (Printf.sprintf "ladder rung %s: %d ops failed" rung st.failed);
            (rung, wall *. 1e6 /. float_of_int st.attempted))
          [
            ("sql", Ycsb_w.sql_op ~blind);
            ("txn", fun env _ ~req:_ ~gateway op -> Ycsb_w.txn_op ~blind env ~gateway op);
            ("kv", fun env _ ~req:_ ~gateway op -> Ycsb_w.kv_op ~blind env ~gateway op);
          ]);
    read_tail;
    write_tail;
  }

let workloads =
  [
    ycsb ~name:"ycsb-a-rbr" ~variant:Ycsb.Rbr_default ~shared:false ~clients_per_region:10
      ~write_ratio:0.5 ~window_us:2_500_000 ~ladder_ops:40 ~read_tail:99.0 ~write_tail:99.0;
    ycsb ~name:"ycsb-b-global" ~variant:Ycsb.Global_table ~shared:true ~clients_per_region:12
      ~write_ratio:0.05 ~window_us:12_000_000 ~ladder_ops:100 ~read_tail:99.9 ~write_tail:99.0;
    {
      name = "tpcc-26r";
      setup = Tpcc_w.setup;
      episode =
        (fun env st ~seed ->
          let new_orders = ref 0 in
          ( Tpcc_w.clients env st ~seed ~new_orders,
            fun () -> Tpcc_w.check env st ~new_orders:!new_orders ));
      probe_keys = Tpcc_w.probe_keys;
      ladder = (fun ~seed:_ -> []);
      read_tail = 60.0;
      write_tail = 90.0;
    };
    {
      name = "hotkey-epoch";
      setup = Hot_w.setup;
      episode =
        (fun env st ~seed ->
          let expected = Array.make Hot_w.hot 0 in
          ( Hot_w.clients env st ~seed ~expected,
            fun () -> Hot_w.check env st ~expected ));
      probe_keys = Hot_w.probe_keys;
      ladder = (fun ~seed:_ -> []);
      read_tail = 95.0;
      write_tail = 97.0;
    };
  ]

(* ------------------------------------------------------------------ *)
(* One episode: set up, idle window, clients, checks                   *)

let counter_names =
  [
    "net.msgs_sent"; "net.rpcs"; "net.wan_msgs"; "raft.appends_sent";
    "raft.elections"; "kv.follower_read_hits"; "kv.follower_read_misses";
    "kv.ct_publishes"; "kv.txn_pushes"; "txn.attempts"; "txn.commits";
    "txn.restarts"; "txn.epoch_validation_failures";
  ]

let counters env =
  let m = Obs.metrics (Cluster.obs env.cl) in
  List.map (fun n -> (n, Metrics.total m n)) counter_names

let diff a b = List.map2 (fun (n, x) (_, y) -> (n, y - x)) a b

let min_setups = 15

(* Episodes [0, measured) run the seeds [episode_seed seed k]; their
   simulated-time results are pooled. Later episodes repeat them, for the
   wall-clock measurement, and must reproduce them exactly. *)
let measured = 3
let episode_seed seed k = (seed * measured) + (k mod measured)

(* Everything that must repeat exactly for one seed: simulated-time results
   and counts. Compared across episodes and between traced and untraced. *)
let signature env st ~counts ~idle ~sim_us ~events =
  let m = Obs.metrics (Cluster.obs env.cl) in
  let digest xs =
    Digest.to_hex (Digest.string (String.concat "," (Array.to_list (Array.map string_of_int xs))))
  in
  let kvs l = String.concat "," (List.map (fun (n, v) -> Printf.sprintf "%s=%d" n v) l) in
  Digest.to_hex
    (Digest.string
       (Printf.sprintf "%s %s %d %d|%s|%s|%d %d %d"
          (digest (Samples.sorted st.reads)) (digest (Samples.sorted st.writes))
          st.attempted st.committed_writes (kvs counts) (kvs idle) sim_us events
          (Hist.count (Metrics.merged_hist m "phase.txn.routing"))))

type episode = {
  kept : env option;  (** the cluster, when the caller asked to keep it *)
  signature : string;
  st : stats;
  setup_s : float;
  setup_factor : float;  (** the probe's, right after the set-up; 1 unprobed *)
  wall_s : float;  (** the timed phase: clients only *)
  sim_us : int;
  events : int;
  queue_peak : int;
  chunks : chunk list;  (** of the clients' wall time, when probed *)
  counts : (string * int) list;  (** counter deltas over the clients *)
  idle : (string * int) list;  (** counter deltas over the idle window *)
  idle_wall_s : float;
  minor_words : float;
  major_collections : int;
  heap_live_mb : float;
}

let run_episode ?(keep = false) ?(probe = false) w ~seed ~traced =
  Gc.compact ();
  let t0 = now_s () in
  let env = w.setup ~seed in
  let setup_s = now_s () -. t0 in
  let setup_factor = if probe then Probe.factor () else 1.0 in
  (* Idle window: background traffic alone, so timers show apart from
     per-operation cost. *)
  let c0 = counters env in
  let t1 = now_s () in
  Cluster.run_for env.cl idle_us;
  let idle_wall_s = now_s () -. t1 in
  let c1 = counters env in
  let st = new_stats () in
  let procs, check = w.episode env st ~seed in
  Span.enabled := traced;
  let g0 = Gc.quick_stat () in
  let sim0 = Sim.now env.sim in
  let t2 = now_s () and cpu2 = Sys.time () in
  let events, queue_peak, chunks, probe_s = drive ~probe env st procs in
  let wall_s = now_s () -. t2 -. probe_s and cpu_s = Sys.time () -. cpu2 -. probe_s in
  let g1 = Gc.quick_stat () in
  Span.enabled := false;
  (* Memory the simulation holds after the clients: the live heap after a
     full major collection. The heap's size itself, or its high-water
     mark, moves by 15-20% from run to run of one seed with where the
     collector's cycles happen to fall. *)
  Gc.full_major ();
  let heap_live_mb =
    float_of_int ((Gc.stat ()).Gc.live_words * (Sys.word_size / 8)) /. 1048576.0
  in
  let sim_us = Sim.now env.sim - sim0 in
  let c2 = counters env in
  if st.window_us = 0 then st.window_us <- sim_us;
  let t3 = now_s () in
  check ();
  let scaled =
    if probe then
      let sum f = List.fold_left (fun a c -> a +. f c) 0.0 chunks in
      Printf.sprintf ", chunks %.0f ops in %.3fs, %.3fs scaled"
        (sum (fun c -> float_of_int c.ops))
        (sum (fun c -> c.wall))
        (sum (fun c -> c.wall /. c.factor))
    else ""
  in
  Printf.eprintf
    "%s: setup %.3fs, idle %.3fs, clients %.3fs (cpu %.3fs; %d ops, %d events, %.2f sim s%s), check %.3fs\n%!"
    w.name setup_s idle_wall_s wall_s cpu_s st.attempted events (float_of_int sim_us /. 1e6) scaled
    (now_s () -. t3);
  let counts = diff c1 c2 and idle = diff c0 c1 in
  {
    kept = (if keep then Some env else None);
    signature = signature env st ~counts ~idle ~sim_us ~events;
    st;
    setup_s;
    setup_factor;
    wall_s;
    sim_us;
    events;
    queue_peak;
    chunks;
    counts;
    idle;
    idle_wall_s;
    minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
    major_collections = g1.Gc.major_collections - g0.Gc.major_collections;
    heap_live_mb;
  }

(* The simulated-time results of several episodes taken together. *)
let merge_stats sts =
  let m = new_stats () in
  List.iter
    (fun st ->
      Array.iter (Samples.add m.reads) (Samples.sorted st.reads);
      Array.iter (Samples.add m.writes) (Samples.sorted st.writes);
      m.attempted <- m.attempted + st.attempted;
      m.failed <- m.failed + st.failed;
      m.stmts <- m.stmts + st.stmts;
      m.committed_writes <- m.committed_writes + st.committed_writes;
      m.window_us <- m.window_us + st.window_us;
      m.problems <- st.problems @ m.problems)
    sts;
  m

let completed e = e.st.attempted - e.st.failed
let count e name = List.assoc name e.counts
let hist_ms h p = ms (Hist.percentile h p)

(* ------------------------------------------------------------------ *)
(* Per-layer probes                                                    *)

(* Time [f] over [n] calls, in ns per call (median of five batches). *)
let time_ns n f =
  median
    (List.init 5 (fun _ ->
         let t0 = now_s () in
         for i = 0 to n - 1 do
           f i
         done;
         (now_s () -. t0) *. 1e9 /. float_of_int n))

(* [Mvcc.read] and [Mvcc.scan] on the leaseholder stores of the workload's
   keys, after the run. *)
let storage_probe w env ~seed =
  let cl = env.cl in
  let keys =
    w.probe_keys ~seed 2_000
    |> List.filter_map (fun key ->
           let rid = Cluster.range_of_key cl key in
           match Cluster.leaseholder cl rid with
           | None -> None
           | Some lh -> (
               match Cluster.storage_of cl rid lh with
               | None -> None
               | Some store ->
                   Some (store, key, snd (Cluster.span_of cl rid), Cluster.now_ts cl lh)))
    |> Array.of_list
  in
  let n = Array.length keys in
  if n = 0 then failwith "storage probe: no leaseholder store found";
  let found = ref 0 in
  Array.iter
    (fun (store, key, _, ts) ->
      match Mvcc.read store ~key ~ts ~max_ts:ts ~for_txn:None with
      | Mvcc.Value { value = Some _; _ } -> incr found
      | _ -> ())
    keys;
  if !found = 0 then failwith "storage probe: no probe key holds a value";
  let read_ns =
    time_ns 20_000 (fun i ->
        let store, key, _, ts = keys.(i mod n) in
        ignore (Mvcc.read store ~key ~ts ~max_ts:ts ~for_txn:None))
  in
  let scan_ns =
    time_ns 2_000 (fun i ->
        let store, key, end_key, ts = keys.(i mod n) in
        ignore
          (Mvcc.scan store ~start_key:key ~end_key ~ts ~max_ts:ts ~for_txn:None
             ~limit:(Some 10)))
  in
  (read_ns, scan_ns)

(* One [Timeseries.observe] + [record_sample] pair on the run's own series. *)
let obs_probe env =
  let series = Obs.timeseries (Cluster.obs env.cl) in
  let ranges = Array.of_list (Cluster.ranges env.cl) in
  let n = Array.length ranges in
  time_ns 50_000 (fun i ->
      let range = ranges.(i mod n) in
      Timeseries.observe series ~range "kv.range.qps" 1;
      Timeseries.record_sample series ~range "kv.range.latency" 1_000)

(* ------------------------------------------------------------------ *)
(* Output                                                              *)

type metric = { name : string; value : float; unit_ : string; note : string }

let metric ?(note = "") name unit_ value = { name; value; unit_; note }

let print_result ~correct ~attempted ~failed metrics =
  List.iter
    (fun m ->
      Printf.printf "%-44s %16.6f %-10s %s\n" m.name m.value m.unit_ m.note)
    metrics;
  let fields =
    List.map
      (fun m ->
        let v = if Float.is_integer m.value then Printf.sprintf "%.1f" m.value
          else Printf.sprintf "%.17g" m.value in
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name v m.unit_)
      metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed (String.concat ", " fields)

let end_to_end w episodes ~setups =
  let st = merge_stats (List.filteri (fun i _ -> i < measured) (List.map (fun e -> e.st) episodes)) in
  let n = Samples.count st.reads + Samples.count st.writes in
  let tail name h p =
    let v, b = Samples.percentile h p in
    if b < 10 then
      failwith (Printf.sprintf "%s: only %d samples beyond p%g of %d" name b p (Samples.count h));
    metric name "ms" (ms v) ~note:(Printf.sprintf "p%g n=%d beyond=%d" p (Samples.count h) b)
  in
  let p50 name h =
    metric name "ms" (Samples.harrell_davis h 0.5 /. 1000.0)
      ~note:(Printf.sprintf "p50 (Harrell-Davis) n=%d" (Samples.count h))
  in
  (* A process's first episode runs while the heap is still growing and
     took up to twice as long as the next ones; it is warm-up for the
     wall-clock figure. Each chunk's wall time is scaled to the reference
     machine by the probe factor taken right after it. The repeats of a seed
     do the same work, so each seed's operations count once, over the median
     time of its repeats: noise that slows a minority of them moves
     nothing. *)
  let repeats =
    List.init measured (fun k -> List.filteri (fun i _ -> i > 0 && i mod measured = k) episodes)
    |> List.filter (fun es -> es <> [])
  in
  let total f =
    List.fold_left
      (fun a es ->
        a +. median (List.map (fun e -> List.fold_left (fun a c -> a +. f c) 0.0 e.chunks) es))
      0.0 repeats
  in
  let ops = total (fun c -> float_of_int c.ops) in
  let wall = total (fun c -> c.wall) and ref_wall = total (fun c -> c.wall /. c.factor) in
  [
    metric "norm_ops_per_s" "ops/s" (ops /. ref_wall)
      ~note:
        (Printf.sprintf
           "%.0f ops in %.3f wall s (%.1f ops/s unscaled), probe factor %.3f, seeds' median over episodes 2-%d"
           ops wall (ops /. wall) (wall /. ref_wall) (List.length episodes));
    metric "setup_s" "s"
      (median (List.map (fun (s, f) -> s /. f) setups))
      ~note:
        (Printf.sprintf "median of %d set-ups scaled by the probe (%.6f s unscaled)"
           (List.length setups) (median (List.map fst setups)));
    metric "heap_live_mb" "MB"
      (median (List.filteri (fun i _ -> i < measured) (List.map (fun e -> e.heap_live_mb) episodes)))
      ~note:"median over the measured episodes";
    metric "ok_frac" "fraction"
      (1.0 -. ratio st.failed st.attempted)
      ~note:(Printf.sprintf "%d of %d ops" (st.attempted - st.failed) st.attempted);
    p50 "read_p50_ms" st.reads;
    tail "read_tail_ms" st.reads w.read_tail;
    p50 "write_p50_ms" st.writes;
    tail "write_tail_ms" st.writes w.write_tail;
    metric "sim_ops_per_s" "1/s"
      (float_of_int n *. 1e6 /. float_of_int st.window_us)
      ~note:(Printf.sprintf "%d ops in %.3f simulated s" n (float_of_int st.window_us /. 1e6));
    metric "tpmc" "1/min"
      (float_of_int st.committed_writes *. 60e6 /. float_of_int st.window_us)
      ~note:(Printf.sprintf "%d committed writes" st.committed_writes);
  ]

let per_layer w ~seed ~plain ~traced ~spans ~ladder_us =
  let e = traced in
  let env = Option.get e.kept in
  let st = e.st in
  let m = Obs.metrics (Cluster.obs env.cl) in
  (* Counters cover the whole client phase, so per-op ratios divide by every
     operation completed in it, not only those inside the window. *)
  let n = completed e in
  let per_op name = ratio (count e name) n in
  let hp name p = hist_ms (Metrics.merged_hist m name) p in
  let phase ph p = hp ("phase.txn." ^ ph) p in
  let idle_sim_s = float_of_int idle_us /. 1e6 in
  let read_ns, scan_ns = storage_probe w env ~seed in
  let observe_ns = obs_probe env in
  let rate e = float_of_int (completed e) /. e.wall_s in
  let self = Span.self_sim_by_layer spans in
  let self_ms layer = ms (Option.value ~default:0 (Hashtbl.find_opt self layer)) /. float_of_int n in
  let rung r = Option.value ~default:0.0 (List.assoc_opt r ladder_us) in
  let commits = count e "txn.commits" in
  let hits = count e "kv.follower_read_hits" in
  [
    metric "sim.events_per_op" "events/op" (ratio e.events n);
    metric "sim.ns_per_event" "ns" (e.wall_s *. 1e9 /. float_of_int e.events);
    metric "sim.queue_peak" "count" (float_of_int e.queue_peak);
    metric "sim.idle_wall_s_per_sim_s" "s/s" (e.idle_wall_s /. idle_sim_s);
    metric "gc.minor_words_per_op" "words/op" (e.minor_words /. float_of_int n);
    metric "gc.major_collections" "count" (float_of_int e.major_collections);
    metric "net.msgs_per_op" "msgs/op" (per_op "net.msgs_sent");
    metric "net.rpcs_per_op" "rpcs/op" (per_op "net.rpcs");
    metric "net.wan_msgs_per_op" "msgs/op" (per_op "net.wan_msgs");
    metric "net.idle_msgs_per_sim_s" "msgs/s"
      (float_of_int (List.assoc "net.msgs_sent" e.idle) /. idle_sim_s);
    metric "raft.appends_per_op" "appends/op" (per_op "raft.appends_sent");
    metric "raft.commit_p50_ms" "ms" (hp "raft.commit_latency" 50.0);
    metric "raft.elections" "count" (float_of_int (count e "raft.elections"));
    metric "storage.read_ns" "ns" read_ns;
    metric "storage.scan_ns" "ns" scan_ns;
    metric "kv.follower_read_hit_ratio" "ratio"
      (ratio hits (hits + count e "kv.follower_read_misses"));
    metric "kv.ct_publishes_per_sim_s" "1/s"
      (float_of_int (List.assoc "kv.ct_publishes" e.idle) /. idle_sim_s);
    metric "kv.pushes_per_op" "pushes/op" (per_op "kv.txn_pushes");
    metric "kv.ranges" "count" (float_of_int (List.length (Cluster.ranges env.cl)));
    metric "txn.commit_ratio" "ratio" (ratio commits (count e "txn.attempts"));
    metric "txn.restarts_per_commit" "restarts" (ratio (count e "txn.restarts") commits);
    metric "txn.epoch_validation_failures_per_commit" "failures"
      (ratio (count e "txn.epoch_validation_failures") commits);
    metric "txn.commit_wait_p50_ms" "ms" (hp "txn.commit_wait" 50.0);
    metric "phase.replication_p50_ms" "ms" (phase "replication" 50.0);
    metric "phase.staging_p50_ms" "ms" (phase "staging" 50.0);
    metric "phase.wan_rtts_p50" "rtts" (float_of_int (Hist.percentile (Metrics.merged_hist m "wan_rtts.txn") 50.0));
    metric "phase.routing_p50_ms" "ms" (phase "routing" 50.0);
    metric "phase.commit_wait_p50_ms" "ms" (phase "commit_wait" 50.0);
    metric "phase.epoch_wait_p50_ms" "ms" (phase "epoch_wait" 50.0);
    metric "phase.lock_wait_p99_ms" "ms" (phase "lock_wait" 99.0);
    metric "phase.refresh_p99_ms" "ms" (phase "refresh" 99.0);
    metric "phase.retry_backoff_p99_ms" "ms" (phase "retry_backoff" 99.0);
    metric "sql.rpcs_per_stmt" "rpcs/stmt" (ratio (count e "net.rpcs") st.stmts);
    metric "sql.self_us_per_op" "us/op" (rung "sql" -. rung "txn");
    metric "txn.self_us_per_op" "us/op" (rung "txn" -. rung "kv");
    metric "kv.us_per_op" "us/op" (rung "kv");
    metric "obs.observe_ns" "ns" observe_ns;
    metric "span.sql_self_sim_ms_per_op" "ms/op" (self_ms "sql");
    metric "span.txn_self_sim_ms_per_op" "ms/op" (self_ms "txn");
    metric "trace.overhead_frac" "fraction" (1.0 -. (rate traced /. rate plain));
  ]

(* ------------------------------------------------------------------ *)
(* Main                                                                *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let out_dir = "perfbench/out" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_int seconds, "S measure for about S seconds");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  let w =
    match List.find_opt (fun (w : workload) -> w.name = !workload) workloads with
    | Some w -> w
    | None ->
        prerr_endline
          ("unknown workload; one of: " ^ String.concat ", " (List.map (fun (w : workload) -> w.name) workloads));
        exit 2
  in
  let seed = !seed in
  let deadline = now_s () +. float_of_int !seconds in
  let episodes, metrics =
    if !trace = 0 then begin
      let rec loop acc =
        let k = List.length acc in
        let e = run_episode ~probe:true w ~seed:(episode_seed seed k) ~traced:false in
        let acc = e :: acc in
        if k + 1 < measured || now_s () < deadline then loop acc else List.rev acc
      in
      let episodes = loop [] in
      (* Cheap set-ups are repeated on their own, so the median is of at
         least [min_setups] timings or about a second of set-up work. Each
         comes with the probe's factor taken right after it. *)
      let setups = List.map (fun e -> (e.setup_s, e.setup_factor)) episodes in
      let rec more setups =
        if List.length setups >= min_setups
           || List.fold_left (fun a (s, _) -> a +. s) 0.0 setups >= 1.0
        then setups
        else begin
          Gc.compact ();
          let t0 = now_s () in
          ignore (w.setup ~seed:(episode_seed seed 0));
          let s = now_s () -. t0 in
          more ((s, Probe.factor ()) :: setups)
        end
      in
      (episodes, end_to_end w episodes ~setups:(more setups))
    end
    else begin
      let spans_file =
        Filename.concat out_dir (Printf.sprintf "spans-%s-%d.jsonl" w.name seed)
      in
      let seed = episode_seed seed 0 in
      (* The first untraced episode warms the process up; the second is the
         baseline of the tracing overhead. All three must agree exactly. *)
      let first = run_episode w ~seed ~traced:false in
      Span.recorded := [];
      let traced = run_episode ~keep:true w ~seed ~traced:true in
      let spans = !Span.recorded in
      Span.recorded := [];
      let plain = run_episode w ~seed ~traced:false in
      (try Unix.mkdir out_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
      Span.write_jsonl spans_file spans;
      let ladder_us = w.ladder ~seed in
      ([ first; traced; plain ], per_layer w ~seed ~plain ~traced ~spans ~ladder_us)
    end
  in
  let first = List.hd episodes in
  Printf.printf "signature %s\n" first.signature;
  (* Episodes on one seed must agree exactly; in a traced run that is the
     traced episode against the untraced ones. *)
  let sigs = Array.of_list (List.map (fun e -> e.signature) episodes) in
  let period = if !trace = 0 then measured else 1 in
  Array.iteri
    (fun i sg ->
      if sg <> sigs.(i mod period) then
        problem first.st "episode %d differs from episode %d (%s vs %s)" i (i mod period) sg
          sigs.(i mod period))
    sigs;
  let problems = List.concat_map (fun e -> e.st.problems) episodes in
  List.iter (fun p -> Printf.printf "CHECK FAILED: %s\n" p) (List.sort_uniq compare problems);
  let correct = problems = [] in
  let pooled =
    merge_stats (List.filteri (fun i _ -> i < if !trace = 0 then measured else 1)
                   (List.map (fun e -> e.st) episodes))
  in
  print_result ~correct ~attempted:pooled.attempted ~failed:pooled.failed metrics;
  exit (if correct then 0 else 1)
