(* The bench ledger: one record shape for every committed BENCH_*.json
   baseline, one writer, one loader and one regression gate.

   A ledger is a scenario name, the job count the run used, the cores the
   machine offered, and a list of named entries, each a flat set of JSON
   values.  What a value is checked against its baseline is decided by the
   scenario code ([checks]), never by the file: editing a baseline can
   change a number but cannot loosen a gate. *)

module Json = Mf_util.Json

type entry = { name : string; values : (string * Json.t) list }
type doc = { scenario : string; jobs : int; cores : int; entries : entry list }

type check =
  | Time of float  (** ms; fails above 1.25 x old + slack; only at equal jobs *)
  | Time_note  (** ms; a note above 1.25 x old + 50 *)
  | Rate  (** per second; fails below old / 1.25 - 2; only at equal jobs *)
  | Exact  (** any change fails *)
  | Drift  (** any change is a note *)
  | Objectives
      (** per-attempt objectives, [null] = attempt failed: a worse value to
          1e-6 or a lost attempt fails, a better value or a new success is a
          note.  Truncated searches are trajectory-dependent, so better is
          never a failure. *)

let tolerance = 1.25

let doc ~scenario ~jobs entries =
  { scenario; jobs; cores = Domain.recommended_domain_count (); entries }

(* walls and rates to a thousandth, so committed diffs stay readable;
   objectives, compared to 1e-6, go in as plain [Json.Num] *)
let num f = Json.Num (Float.round (f *. 1e3) /. 1e3)
let int i = Json.Num (float_of_int i)

(* ------------------------------------------------------------------ *)
(* file format: one JSON document, one entry per line *)

let save path d =
  let entry e = Json.Obj (("name", Json.Str e.name) :: e.values) in
  let j =
    Json.Obj
      [
        ("scenario", Json.Str d.scenario);
        ("jobs", int d.jobs);
        ("cores", int d.cores);
        ("entries", Json.Arr (List.map entry d.entries));
      ]
  in
  Out_channel.with_open_text path (fun oc -> output_string oc (Json.to_lines j ^ "\n"))

let load path : (doc, string) result =
  let ( let* ) = Result.bind in
  let need what = Option.to_result ~none:(Printf.sprintf "%s: bad or missing %s" path what) in
  let* text =
    try Ok (In_channel.with_open_text path In_channel.input_all) with Sys_error m -> Error m
  in
  let* j = Result.map_error (fun m -> path ^ ": " ^ m) (Json.parse text) in
  let* scenario = need "scenario" (Json.str_field "scenario" j) in
  let* jobs = need "jobs" (Json.int_field "jobs" j) in
  let* cores = need "cores" (Json.int_field "cores" j) in
  let* items =
    need "entries" (match Json.member "entries" j with Some (Json.Arr l) -> Some l | _ -> None)
  in
  let entry e =
    match (Json.str_field "name" e, e) with
    | Some name, Json.Obj kvs -> Ok { name; values = List.remove_assoc "name" kvs }
    | _ -> Error (Printf.sprintf "%s: entry without a name: %s" path (Json.to_line e))
  in
  let* entries =
    List.fold_right
      (fun e acc -> Result.bind acc (fun l -> Result.map (fun e -> e :: l) (entry e)))
      items (Ok [])
  in
  Ok { scenario; jobs; cores; entries }

(* ------------------------------------------------------------------ *)
(* comparison *)

let compare ~checks ~(baseline : doc) (current : doc) : string list * string list =
  let failures = ref [] and notes = ref [] in
  let fail fmt = Printf.ksprintf (fun m -> failures := m :: !failures) fmt in
  let note fmt = Printf.ksprintf (fun m -> notes := m :: !notes) fmt in
  let same_jobs = baseline.jobs = current.jobs in
  if baseline.scenario <> current.scenario then
    fail "baseline is scenario %s, current run is %s" baseline.scenario current.scenario;
  if not same_jobs then
    note "baseline at %d job(s), current at %d: wall-clock and rate checks skipped"
      baseline.jobs current.jobs;
  let pct = (tolerance -. 1.) *. 100. in
  let check_value name key check (b : Json.t) (c : Json.t) =
    let shown = Printf.sprintf "%s -> %s" (Json.to_line b) (Json.to_line c) in
    match (check, b, c) with
    | Exact, _, _ -> if b <> c then fail "%s: %s changed %s" name key shown
    | Drift, _, _ -> if b <> c then note "%s: %s changed %s" name key shown
    | Time slack, Num b, Num c ->
      if same_jobs && c > (tolerance *. b) +. slack then
        fail "%s: %s regression %.3f -> %.3f (>%.0f%% over baseline)" name key b c pct
    | Time_note, Num b, Num c ->
      if c > (tolerance *. b) +. 50. then note "%s: %s drifted %.0f -> %.0f" name key b c
    | Rate, Num b, Num c ->
      if same_jobs && c < (b /. tolerance) -. 2. then
        fail "%s: %s regression %.1f -> %.1f (>%.0f%% below baseline)" name key b c pct
    | Objectives, Arr bs, Arr cs when List.length bs = List.length cs ->
      List.iteri
        (fun i (b, c) ->
          match (b, c) with
          | Json.Num b, Json.Num c when Float.abs (b -. c) <= 1e-6 -> ()
          | Num b, Num c when c < b ->
            note "%s: attempt %d objective improved %.6f -> %.6f" name i b c
          | Num b, Num c -> fail "%s: attempt %d objective regressed %.6f -> %.6f" name i b c
          | Num _, _ -> fail "%s: attempt %d succeeded in baseline, failed now" name i
          | _, Num _ -> note "%s: attempt %d failed in baseline, succeeds now" name i
          | _ -> ())
        (List.combine bs cs)
    | Objectives, Arr bs, Arr cs ->
      fail "%s: %d pool attempts vs %d in baseline" name (List.length cs) (List.length bs)
    | _ -> fail "%s: %s has the wrong shape (%s)" name key shown
  in
  List.iter
    (fun (b : entry) ->
      match List.find_opt (fun (e : entry) -> e.name = b.name) current.entries with
      | None -> fail "%s: missing from current run" b.name
      | Some e ->
        List.iter
          (fun (key, _) ->
            if not (List.mem_assoc key e.values) then
              fail "%s: %s missing from current run" b.name key)
          b.values;
        List.iter
          (fun (key, cv) ->
            match (List.assoc_opt key b.values, List.assoc_opt key checks) with
            | None, _ -> fail "%s: %s not in baseline" b.name key
            | _, None -> fail "%s: %s has no check" b.name key
            | Some bv, Some check -> check_value b.name key check bv cv)
          e.values)
    baseline.entries;
  List.iter
    (fun (e : entry) ->
      if not (List.exists (fun (b : entry) -> b.name = e.name) baseline.entries) then
        fail "%s: not in baseline" e.name)
    current.entries;
  (List.rev !failures, List.rev !notes)

(* The baseline verdict; a missing or unreadable baseline is a failure. *)
let verdict ~checks ~path current =
  match load path with
  | Error msg ->
    let hint = Printf.sprintf "run `bench -- %s-baseline` to create one" current.scenario in
    ([ Printf.sprintf "no usable baseline (%s); %s" msg hint ], [])
  | Ok baseline -> compare ~checks ~baseline current

(* The gate every scenario ends with.  [failures] are the scenario's own
   in-run checks; any of them fails the run before a baseline is written
   or read.  Otherwise [write_baseline] saves [current] to [path], else it
   is compared against [path] and any failure exits 1. *)
let gate ?(failures = []) ~checks ~path ~write_baseline current =
  let report (failures, notes) =
    List.iter (Format.printf "note: %s@.") notes;
    match failures with
    | [] ->
      Format.printf "%s gate: PASS (%d entries vs %s)@." current.scenario
        (List.length current.entries) path
    | failures ->
      Format.printf "@.%s gate: FAIL@." current.scenario;
      List.iter (Format.printf "  - %s@.") failures;
      exit 1
  in
  if failures <> [] then report (failures, [])
  else if write_baseline then begin
    save path current;
    Format.printf "@.baseline written to %s@." path
  end
  else report (verdict ~checks ~path current)
