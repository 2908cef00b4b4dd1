(* What one run reports: operations attempted and failed, correctness
   violations, and metrics with units and sample counts.  [finish] prints
   one human-readable line per metric, then the result object as the last
   line of standard output. *)

(* The metric catalog — names, units, directions and bounds — is
   BENCHMARK.json's, read from the root of the checkout the benchmark runs
   in, so the two cannot drift apart. *)
type entry = { name : string; unit_ : string; better : Stats.better; bound : float }

module Json = Mf_serve.Json

(* The [end_to_end] and [per_layer] entries of a BENCHMARK.json file. *)
let load_catalog path =
  let spec =
    match Json.parse (In_channel.with_open_text path In_channel.input_all) with
    | Ok j -> j
    | Error e -> failwith (path ^ ": " ^ e)
  in
  let entries key =
    match Json.member key spec with
    | Some (Json.Arr ms) ->
      List.map
        (fun m ->
          match (Json.str_field "name" m, Json.str_field "unit" m) with
          | Some name, Some unit_ ->
            {
              name;
              unit_;
              better =
                (if Json.str_field "better" m = Some "higher" then Stats.Higher else Stats.Lower);
              bound = Option.value ~default:0. (Option.bind (Json.member "bound" m) Json.num);
            }
          | _ -> failwith (path ^ ": a " ^ key ^ " metric lacks a name or a unit"))
        ms
    | _ -> failwith (path ^ ": no " ^ key ^ " list")
  in
  (entries "end_to_end", entries "per_layer")

let catalog = lazy (load_catalog "BENCHMARK.json")

(* The end-to-end metrics every workload reports (untraced run). *)
let end_to_end () = fst (Lazy.force catalog)

(* The per-layer metrics every traced run reports; a layer a workload
   does not call from outside reads 0. *)
let per_layer () = snd (Lazy.force catalog)

type metric = { name : string; unit_ : string; n : int; value : float }

let attempted = ref 0
let failed = ref 0
let violations : string list ref = ref []
let recorded : metric list ref = ref []

let attempt () = incr attempted

(* An operation that did not produce its result; the run stays correct. *)
let failure fmt =
  Printf.ksprintf
    (fun msg ->
      incr failed;
      Printf.printf "failed: %s\n%!" msg)
    fmt

(* A result that is wrong: the run is not correct. *)
let violation fmt =
  Printf.ksprintf
    (fun msg ->
      violations := msg :: !violations;
      Printf.printf "INCORRECT: %s\n%!" msg)
    fmt

let check cond fmt = Printf.ksprintf (fun msg -> if not cond then violation "%s" msg) fmt

(* Record a metric from either catalog; [n] is its sample count. *)
let metric ?(n = 1) name value =
  let unit_ =
    match List.find_opt (fun (e : entry) -> e.name = name) (end_to_end () @ per_layer ()) with
    | Some e -> e.unit_
    | None -> invalid_arg ("Report.metric: unknown metric " ^ name)
  in
  recorded := { name; unit_; n; value } :: List.filter (fun m -> m.name <> name) !recorded

let count name n = metric name (float_of_int n)

(* Prints the run's metrics and result line; returns the exit code.  The
   result object carries the end-to-end catalog untraced and the per-layer
   catalog traced. *)
let finish ~trace =
  metric ~n:!attempted "failed_frac" (float_of_int !failed /. float_of_int (max 1 !attempted));
  let find name = List.find_opt (fun m -> m.name = name) !recorded in
  let catalog = if trace then per_layer () else end_to_end () in
  let shown =
    List.map
      (fun ({ name; unit_; _ } : entry) ->
        match find name with
        | Some m -> m
        | None ->
          if not trace then violation "end-to-end metric %s was not measured" name;
          { name; unit_; n = 0; value = 0. })
      catalog
  in
  List.iter
    (fun m -> Printf.printf "%-22s %16.6f %-8s n=%d\n" m.name m.value m.unit_ m.n)
    (List.rev !recorded);
  Printf.printf "attempted %d, failed %d, correct %b\n" !attempted !failed (!violations = []);
  let open Json in
  print_endline
    (to_line
       (obj
          [
            ("correct", Bool (!violations = []));
            ("attempted", Num (float_of_int (max 1 !attempted)));
            ("failed", Num (float_of_int !failed));
            ( "metrics",
              obj
                (List.map
                   (fun m -> (m.name, obj [ ("value", Num m.value); ("unit", Str m.unit_) ]))
                   shown) );
          ]));
  if !violations = [] then 0 else 1
