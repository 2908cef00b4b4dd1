(* The repository benchmark.

     main.exe --workload NAME --seed N --seconds S --trace 0|1
       Runs one workload (cold-codesign, testgen, serve-mix).  Untraced, it
       prints the end-to-end metrics; traced, the per-layer metrics, and it
       writes the spans to .perfbench-out/.  The last line of standard
       output is the result object.  Exits 1 when a correctness check fails.
     main.exe --self-test
       Checks the benchmark's own arithmetic; exits 1, naming the failed
       checks, if one fails.
     main.exe compare BENCHMARK.json BASE [NEW]
       BASE and NEW hold result lines of repeated runs of one workload.
       Prints each end-to-end metric's median and quartile spread, and,
       given NEW, whether its median regressed past the metric's bound. *)

let workloads =
  [
    ("cold-codesign", Cold_codesign.run);
    ("testgen", Testgen.run);
    ("serve-mix", Serve_mix.run);
  ]

let usage () =
  prerr_endline
    "usage: main.exe --workload NAME --seed N --seconds S --trace 0|1\n\
    \       main.exe --self-test\n\
    \       main.exe compare BENCHMARK.json BASE [NEW]";
  exit 2

(* Silent on success, so `dune runtest` output stays the test suites'. *)
let self_test () =
  let ok = Selftest.run () in
  if not ok then print_endline "self-test: FAILED";
  ok

let ensure_dir d = if not (Sys.file_exists d) then Sys.mkdir d 0o755

let run_workload ~name ~seed ~seconds ~trace =
  match List.assoc_opt name workloads with
  | None ->
    Printf.eprintf "unknown workload %S (workloads: %s)\n" name
      (String.concat ", " (List.map fst workloads));
    exit 2
  | Some run ->
    if not (self_test ()) then exit 1;
    ensure_dir Common.out_dir;
    Printf.printf "workload %s, seed %d, %.0f s, trace %b, cores %d, jobs %d\n%!" name seed seconds
      trace Common.cores Common.jobs;
    Common.record_cores ();
    (try run ~seed ~seconds ~trace
     with e -> Report.violation "%s raised %s" name (Printexc.to_string e));
    if trace then begin
      let path =
        Filename.concat Common.out_dir (Printf.sprintf "spans-%s-seed%d.jsonl" name seed)
      in
      Trace.write path (Trace.spans ());
      Printf.printf "spans written to %s\n" path
    end;
    exit (Report.finish ~trace)

(* ---- compare ---- *)

module Json = Mf_serve.Json

let read_lines path = In_channel.with_open_text path In_channel.input_all |> String.split_on_char '\n'

let results path =
  List.filter_map
    (fun line ->
      match Json.parse line with
      | Ok j when Json.member "metrics" j <> None -> Some j
      | _ -> None)
    (read_lines path)

let values name rs =
  List.filter_map
    (fun r ->
      Option.bind (Json.member "metrics" r) (Json.member name)
      |> Fun.flip Option.bind (Json.member "value")
      |> Fun.flip Option.bind Json.num)
    rs

let compare_runs bench base next =
  let metrics, _ = Report.load_catalog bench in
  let base = results base and next = Option.map results next in
  let ok = ref true in
  Printf.printf "%-14s %12s %12s %12s %8s %6s  %s\n" "metric" "q1" "median" "q3" "spread" "bound"
    "verdict";
  List.iter
    (fun ({ name; bound; better; _ } : Report.entry) ->
      let vs = values name base in
      if List.length vs < 2 then begin
        ok := false;
        Printf.printf "%-14s fewer than two values\n" name
      end
      else begin
        let q1, q2, q3 = Stats.quartiles vs in
        let spread = Stats.spread vs in
        let steady = spread <= bound in
        let verdict, bad =
          match next with
          | None -> if steady then ("steady", false) else ("SPREAD", true)
          | Some rs -> (
            match values name rs with
            | [] -> ("MISSING", true)
            | nv ->
              let m = Stats.median nv in
              if Stats.regressed ~better ~bound ~base:q2 ~value:m then
                (Printf.sprintf "REGRESSED (median %.6g)" m, true)
              else (Printf.sprintf "ok (median %.6g)" m, false))
        in
        if bad || not steady then ok := false;
        Printf.printf "%-14s %12.6g %12.6g %12.6g %8.4f %6.3f  %s (n=%d)\n" name q1 q2 q3 spread
          bound verdict (List.length vs)
      end)
    metrics;
  !ok

let () =
  match Array.to_list Sys.argv |> List.tl with
  | [ "--self-test" ] -> exit (if self_test () then 0 else 1)
  | [ "compare"; bench; base ] -> exit (if compare_runs bench base None then 0 else 1)
  | [ "compare"; bench; base; next ] -> exit (if compare_runs bench base (Some next) then 0 else 1)
  | args ->
    let rec parse acc = function
      | flag :: v :: rest when String.length flag > 2 && String.sub flag 0 2 = "--" ->
        parse ((flag, v) :: acc) rest
      | [] -> acc
      | _ -> usage ()
    in
    let opts = parse [] args in
    let get flag conv =
      match Option.bind (List.assoc_opt flag opts) conv with Some v -> v | None -> usage ()
    in
    let name = get "--workload" Option.some in
    let seed = get "--seed" int_of_string_opt in
    let seconds = get "--seconds" float_of_string_opt in
    let trace = get "--trace" (function "0" -> Some false | "1" -> Some true | _ -> None) in
    run_workload ~name ~seed ~seconds ~trace
