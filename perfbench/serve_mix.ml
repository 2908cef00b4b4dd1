(* serve-mix: the real `dft_tool serve` as a child process, loaded from
   this process.  Connection A submits new cold specs (seeded fpva/3
   chips, inline text) one after another; connection B resubmits an
   already-solved read set (ivd_chip/ivd by name and as text, plus fpva/3
   specs).  The daemon's memory cache holds fewer entries than the read
   set, so both cache tiers serve hits.  The only workload where
   fingerprinting, the cache, the engine queue and the server do work.

   After set-up, B alone pipelines batches of the read set for a fifth of
   the run (warm_ms, wall_s); then A and B run together for three fifths,
   B one submission at a time, so hits wait on solves, cache stores and
   per-iteration checkpoints (cold_s, warm_tail_ms and the serve.hit_*
   figures); then B pipelines alone for the last fifth.  The end-to-end
   hit figures are means over the pipelined batches of both ends of the
   run: the 2-core reference box switches every few seconds between a
   fast and a slow state about 1.5x apart, even with the whole benchmark
   pinned to one core, and the median round trip of a single hit, idle or
   beside a solve, spread 0.12-0.27 over ten runs as the share of each
   state moved; the median of 5 s of batches spread 0.10, and the mean of
   8 s of them, half at each end of the run, 0.06. *)

open Common
module Json = Mf_serve.Json
module Proto = Mf_serve.Protocol

let exe = Filename.concat "_build" (Filename.concat "default" (Filename.concat "bin" "dft_tool.exe"))
let read_set_fpva = 3
let fpva_size = 3
let mem_cache = 2
let idle_hits = 300
let shutdown_wait_s = 10.

type spec = { label : string; submit : string; fingerprint : string }

let spec ~label ~seed chip_src assay_src chip assay =
  let options = { Mf_serve.Fingerprint.full = false; seed } in
  {
    label;
    submit =
      Json.to_line
        (Proto.submit_to_json
           {
             Proto.chip = chip_src;
             assay = assay_src;
             options;
             priority = 0;
             deadline = None;
             wait = true;
           });
    fingerprint = Mf_serve.Fingerprint.digest ~chip ~assay ~options;
  }

(* A seeded fpva/3 chip with its matching synthetic assay, exactly as
   `dft_tool gen --family fpva --size 3 --seed GEN` writes them, sent as
   text; [pso_seed] is the submission's seed option.  fpva/3 rather than
   fpva/4: fpva/4 cold solves are heavy-tailed (8 of the 40 generator seeds
   1..40 ran past 30 s at 2 jobs, in the path ILP), which no closed loop
   of a few seconds can measure. *)
let fpva_spec ~label ~gen ~pso_seed =
  let f = Mf_chips.Families.fpva in
  let rng = Rng.create ~seed:gen in
  let chip = f.Mf_chips.Families.generate_size ~size:fpva_size rng in
  let assay =
    Mf_bioassay.Synth_assay.generate
      ~spec:(Mf_bioassay.Synth_assay.spec_of_size (f.Mf_chips.Families.assay_ops ~size:fpva_size))
      rng
  in
  spec ~label ~seed:pso_seed
    (Proto.Text (Mf_arch.Chip_io.to_string chip))
    (Proto.Text (Mf_bioassay.Assay_io.to_string assay))
    chip assay

(* The read set: ivd_chip/ivd under both spellings at the CLI defaults
   (its solve is most of the set-up, so it stays the same request in every
   run) and [read_set_fpva] fpva specs drawn from [seed]. *)
let read_set ~seed =
  let chip = Mf_chips.Benchmarks.ivd_chip () and assay = Mf_bioassay.Assays.ivd () in
  let cli = Mf_serve.Fingerprint.default_options.Mf_serve.Fingerprint.seed in
  [
    spec ~label:"ivd_chip/ivd" ~seed:cli (Proto.Name "ivd_chip") (Proto.Name "ivd") chip assay;
    spec ~label:"ivd_chip/ivd (text)" ~seed:cli
      (Proto.Text (Mf_arch.Chip_io.to_string chip))
      (Proto.Text (Mf_bioassay.Assay_io.to_string assay))
      chip assay;
  ]
  @ List.init read_set_fpva (fun j ->
        fpva_spec
          ~label:(Printf.sprintf "fpva/%d #%d" fpva_size (j + 1))
          ~gen:((seed * 1000) + j + 1)
          ~pso_seed:seed)

(* The [i]th cold spec: its own PSO seed keeps its fingerprint new even
   when two generated chips coincide. *)
let cold_spec ~seed i =
  let n = (seed * 1000) + 100 + i in
  fpva_spec ~label:(Printf.sprintf "cold #%d" i) ~gen:n ~pso_seed:n

(* ---- client side ---- *)

type conn = { fd : Unix.file_descr; ic : in_channel; oc : out_channel }

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX path) with
  | () -> Some { fd; ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd }
  | exception Unix.Unix_error _ ->
    Unix.close fd;
    None

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let send c line =
  output_string c.oc line;
  output_char c.oc '\n';
  flush c.oc

type reply = { cached : bool; payload : (string, string) result }

(* Decode one submission's reply from its lines, which end with the
   payload line or an error. *)
let decode next_line =
  let rec pump cached =
    let line = next_line () in
    match Json.parse line with
    | Error e -> { cached; payload = Error ("unparsable reply: " ^ e) }
    | Ok j ->
      if Json.str_field "type" j = Some "result" then { cached; payload = Ok line }
      else if Json.member "ok" j = Some (Json.Bool false) then
        { cached; payload = Error (Option.value ~default:line (Json.str_field "error" j)) }
      else
        pump
          (match Json.member "cached" j with Some (Json.Bool b) -> b | _ -> cached)
  in
  pump false

let submit c (s : spec) =
  send c s.submit;
  decode (fun () -> input_line c.ic)

(* One reply's lines, read without decoding them: the daemon renders a
   payload line as {"ok":true,"type":"result",... and an error line as
   {"ok":false,... *)
let raw_reply c =
  let ends line =
    String.starts_with ~prefix:{|{"ok":true,"type":"result"|} line
    || String.starts_with ~prefix:{|{"ok":false|} line
  in
  let rec read acc =
    let line = input_line c.ic in
    if ends line then List.rev (line :: acc) else read (line :: acc)
  in
  read []

let decode_lines lines =
  let rest = ref lines in
  decode (fun () ->
      match !rest with
      | l :: ls ->
        rest := ls;
        l
      | [] -> raise End_of_file)

(* Pipelined: a thread writes every submission while this one reads the
   replies' lines, so neither end of the socket waits for the other, and
   this process does little more than move bytes while the daemon works
   through the batch.  The replies are decoded after the batch is timed. *)
let submit_all c specs =
  let writer =
    Thread.create
      (fun () ->
        try
          Array.iter
            (fun (s : spec) ->
              output_string c.oc s.submit;
              output_char c.oc '\n')
            specs;
          flush c.oc
        with Sys_error _ -> ())
      ()
  in
  let lines = Array.map (fun _ -> raw_reply c) specs in
  Thread.join writer;
  lines

let command c line =
  send c line;
  Json.parse (input_line c.ic)

(* ---- the daemon ---- *)

type daemon = { pid : int; dir : string; socket : string }

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let start_daemon ~dir =
  if not (Sys.file_exists exe) then failwith (exe ^ " is not built");
  Sys.mkdir dir 0o755;
  let socket = Filename.concat dir "sock" in
  let log = Unix.openfile (Filename.concat dir "daemon.log") [ O_WRONLY; O_CREAT; O_TRUNC ] 0o644 in
  let pid =
    Unix.create_process exe
      [|
        exe; "serve"; "--socket"; socket; "--state"; Filename.concat dir "state"; "--jobs";
        string_of_int jobs; "--mem-cache"; string_of_int mem_cache;
      |]
      Unix.stdin log log
  in
  Unix.close log;
  { pid; dir; socket }

let rec await_socket d deadline =
  match connect d.socket with
  | Some c -> c
  | None ->
    if Unix.gettimeofday () > deadline then failwith "serve daemon did not start listening";
    Unix.sleepf 0.01;
    await_socket d deadline

let exited pid =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ -> false
  | _ -> true
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> true

(* Stop with the protocol's shutdown command, never a signal; a daemon
   still running [shutdown_wait_s] later is a failed operation, and is
   then killed so the run leaves no process behind. *)
let stop_daemon d control =
  Report.attempt ();
  (match command control (Json.to_line (Json.obj [ ("cmd", Json.Str "shutdown") ])) with
   | Ok j when Json.member "stopping" j = Some (Json.Bool true) -> ()
   | _ -> Report.failure "serve: shutdown command not acknowledged"
   | exception (End_of_file | Sys_error _) -> Report.failure "serve: shutdown command not acknowledged");
  close control;
  let deadline = Unix.gettimeofday () +. shutdown_wait_s in
  let rec wait () =
    if exited d.pid then true
    else if Unix.gettimeofday () > deadline then false
    else (
      Unix.sleepf 0.02;
      wait ())
  in
  if not (wait ()) then begin
    Report.failure "serve: daemon still running %.0f s after shutdown" shutdown_wait_s;
    Unix.kill d.pid Sys.sigkill;
    ignore (Unix.waitpid [] d.pid)
  end

(* ---- the workload ---- *)

type load = { mutable hits_ms : float list; mutable cold_s : float list }

let new_load () = { hits_ms = []; cold_s = [] }

(* A cache-served submission's reply must carry the reference bytes of
   its fingerprint. *)
let check_hit ~reference (s : spec) r =
  Report.attempt ();
  match r.payload with
  | Error e -> Report.failure "serve: %s: %s" s.label e
  | Ok p ->
    Report.check r.cached "serve: %s was not served from the cache" s.label;
    Report.check
      (Some p = Hashtbl.find_opt reference s.fingerprint)
      "serve: %s payload differs from its first solve" s.label

(* One cache-served submission, alone on its connection. *)
let hit ~reference ?parent ~id c s =
  let r, dt = Trace.span ?parent ~request:id "serve.hit" (fun _ -> submit c s) in
  check_hit ~reference s r;
  ms dt

(* Connection B beside the cold stream: rounds over the read set in
   seeded order until [stop], one submission at a time. *)
let reader ~reference ~read_set ~rng ~stop ~load c =
  let specs = Array.of_list read_set in
  let id = ref 0 in
  while not (stop ()) do
    Rng.shuffle rng specs;
    Array.iter
      (fun s ->
        incr id;
        load.hits_ms <- hit ~reference ~id:!id c s :: load.hits_ms)
      specs
  done

(* Connection B alone: batches of [batch_rounds] rounds over the read set,
   each round in seeded order, pipelined, until [seconds] have passed.
   Returns each batch's wall time. *)
let batch_rounds = 10

let batches ~reference ~read_set ~rng ~d ~seconds =
  let c = await_socket d (Unix.gettimeofday () +. 5.) in
  let specs = Array.of_list read_set in
  let deadline = Unix.gettimeofday () +. seconds in
  let walls = ref [] in
  while Unix.gettimeofday () < deadline do
    let batch =
      Array.concat
        (List.init batch_rounds (fun _ ->
             Rng.shuffle rng specs;
             Array.copy specs))
    in
    let lines, dt = Trace.span ~request:0 "serve.batch" (fun _ -> submit_all c batch) in
    Array.iter2 (fun s lines -> check_hit ~reference s (decode_lines lines)) batch lines;
    walls := dt :: !walls
  done;
  close c;
  !walls

(* Connection A: new cold specs one after another until [stop]; the
   request in flight when [stop] turns true is abandoned, not counted. *)
let writer ~seed ~next ~stop ~load c =
  try
    while not (stop ()) do
      incr next;
      let s = cold_spec ~seed !next in
      let r, dt = Trace.span ~request:(-(!next)) "serve.cold" (fun _ -> submit c s) in
      if not (stop ()) then begin
        Report.attempt ();
        match r.payload with
        | Error e -> Report.failure "serve: %s: %s" s.label e
        | Ok p ->
          Report.check (not r.cached) "serve: %s was served from the cache" s.label;
          Report.check
            (Json.parse p |> Result.to_option |> Option.map (Json.str_field "fingerprint")
            = Some (Some s.fingerprint))
            "serve: %s payload carries another fingerprint" s.label;
          load.cold_s <- dt :: load.cold_s
      end
    done
  with End_of_file | Sys_error _ | Unix.Unix_error _ -> if not (stop ()) then raise Exit

(* A load window of [seconds]: A and B run concurrently, then A's
   connection is shut down to abandon its last request. *)
let window ~seed ~next ~rng ~reference ~read_set ~d ~seconds =
  let load = new_load () in
  let deadline = Unix.gettimeofday () +. seconds in
  let stop () = Unix.gettimeofday () >= deadline in
  let a = await_socket d (Unix.gettimeofday () +. 5.) in
  let b = await_socket d (Unix.gettimeofday () +. 5.) in
  let failed = ref false in
  let th =
    Thread.create
      (fun () -> try writer ~seed ~next ~stop ~load a with Exit -> failed := true)
      ()
  in
  reader ~reference ~read_set ~rng ~stop ~load b;
  (try Unix.shutdown a.fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
  Thread.join th;
  if !failed then Report.failure "serve: cold connection closed by the daemon";
  close a;
  close b;
  load

let payload_num field p =
  match Json.parse p with Ok j -> Option.bind (Json.member field j) Json.int_of | Error _ -> None

let run ~seed ~seconds ~trace =
  let dir = Filename.concat out_dir (Printf.sprintf "serve-%d" (Unix.getpid ())) in
  let rng = Rng.create ~seed in
  let read_set = read_set ~seed in
  let next = ref 0 in
  let reference = Hashtbl.create 8 in
  let daemon = ref None in
  Fun.protect
    ~finally:(fun () ->
      (match !daemon with
       | Some d when not (exited d.pid) ->
         Unix.kill d.pid Sys.sigkill;
         ignore (Unix.waitpid [] d.pid)
       | _ -> ());
      rm_rf dir)
  @@ fun () ->
  (* set-up: start the daemon, solve the read set *)
  let control, setup_s =
    Trace.span ~request:0 "setup" @@ fun _ ->
    let d = start_daemon ~dir in
    daemon := Some d;
    let c = await_socket d (Unix.gettimeofday () +. 30.) in
    List.iter
      (fun s ->
        Report.attempt ();
        match (submit c s).payload with
        | Error e -> Report.failure "serve: %s: %s" s.label e
        | Ok p -> (
          match Hashtbl.find_opt reference s.fingerprint with
          | None -> Hashtbl.replace reference s.fingerprint p
          | Some q -> Report.check (p = q) "serve: %s payload differs from its first spelling" s.label))
      read_set;
    c
  in
  let d = Option.get !daemon in
  Report.metric "setup_s" setup_s;
  let distinct = List.filter_map (fun fp -> Hashtbl.find_opt reference fp)
      (List.sort_uniq compare (List.map (fun s -> s.fingerprint) read_set)) in
  let sum field = sum_ints (fun p -> Option.value ~default:0 (payload_num field p)) distinct in
  Report.count "vectors" (sum "n_vectors_dft");
  Report.count "dft_valves" (sum "n_dft_valves");
  Report.metric ~n:(List.length distinct) "exec_ratio"
    (Stats.exec_ratio
       (List.map (fun p -> (payload_num "exec_original" p, payload_num "exec_final" p)) distinct));
  (* hits with no solve running *)
  let idle =
    let c = await_socket d (Unix.gettimeofday () +. 5.) in
    let specs = Array.of_list read_set in
    let hits =
      List.init idle_hits (fun i -> hit ~reference ~id:i c specs.(i mod Array.length specs))
    in
    close c;
    hits
  in
  Report.metric ~n:idle_hits "serve.hit_idle_ms" (Stats.median idle);
  let warm_s = 0.4 *. seconds in
  let early = batches ~reference ~read_set ~rng ~d ~seconds:(warm_s /. 2.) in
  let load = window ~seed ~next ~rng ~reference ~read_set ~d ~seconds:(seconds -. warm_s) in
  let walls = early @ batches ~reference ~read_set ~rng ~d ~seconds:(warm_s /. 2.) in
  let per_batch = batch_rounds * List.length read_set in
  Report.metric ~n:(List.length walls) "wall_s" (Stats.mean walls);
  Report.metric ~n:(List.length walls * per_batch) "warm_ms"
    (ms (Stats.mean walls) /. float_of_int per_batch);
  let n = List.length load.hits_ms in
  if load.cold_s = [] then Report.violation "serve: no cold submission completed in %.0f s" seconds
  else Report.metric ~n:(List.length load.cold_s) "cold_s" (Stats.mean load.cold_s);
  (* ~2% of hits beside a solve wait 10-100 ms for the solver to yield;
     the p99 sits inside that mode and swings with its weight *)
  Report.metric ~n "warm_tail_ms" (Stats.tail_mean 0.01 load.hits_ms);
  Report.metric ~n "serve.hit_busy_ms" (Stats.median load.hits_ms);
  Report.metric ~n "serve.hit_p99_ms" (Stats.percentile 99. load.hits_ms);
  Report.metric ~n "serve.hit_wait_ms"
    (Stats.percentile 99. load.hits_ms -. Stats.percentile 99. idle);
  if trace then begin
    Trace.enabled := true;
    let traced = window ~seed ~next ~rng ~reference ~read_set ~d ~seconds:(seconds -. warm_s) in
    Trace.enabled := false;
    record_overhead ~untraced:(Stats.median load.hits_ms) ~traced:(Stats.median traced.hits_ms)
  end;
  (match command control (Json.to_line (Json.obj [ ("cmd", Json.Str "stats") ])) with
   | Ok j ->
     List.iter
       (fun (metric, field) -> Report.count metric (Option.value ~default:0 (Json.int_field field j)))
       [
         ("serve.mem_hits", "cache_mem_hits");
         ("serve.disk_hits", "cache_disk_hits");
         ("serve.misses", "cache_misses");
         ("serve.stores", "cache_stores");
         ("serve.joins", "joins");
         ("serve.solves", "solves");
         ("serve.corrupt", "cache_corrupt");
       ]
   | Error e -> Report.violation "serve: stats reply: %s" e);
  stop_daemon d control
