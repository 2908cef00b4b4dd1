(* Spans recorded around the benchmark's calls into the program's layers.
   [span] always times its body — the end-to-end metrics come from those
   timings — and, when tracing is on, also keeps a span record in memory;
   [write] saves them when the run ends.  Thread-safe: the serve-mix load
   connections record from their own threads. *)

type span = {
  id : int;
  name : string;
  request : int;  (** spans of one request share this id *)
  parent : int option;
  start : float;
  stop : float;
}

let enabled = ref false
let lock = Mutex.create ()
let recorded : span list ref = ref []
let next_id = ref 1

(* CLOCK_MONOTONIC in seconds, at nanosecond resolution: cache hits take
   tens of microseconds. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let fresh_id () =
  Mutex.lock lock;
  let id = !next_id in
  incr next_id;
  Mutex.unlock lock;
  id

(* [span ?parent ~request name f] runs [f id] and returns its result with
   the elapsed seconds; [id] is the span's own id, to parent nested calls. *)
let span ?parent ~request name f =
  let id = if !enabled then fresh_id () else 0 in
  let start = now () in
  let v = f id in
  let stop = now () in
  if !enabled then begin
    Mutex.lock lock;
    recorded := { id; name; request; parent; start; stop } :: !recorded;
    Mutex.unlock lock
  end;
  (v, stop -. start)

let spans () = List.rev !recorded

(* Self time of every span, from its children's intervals. *)
let self_times spans =
  let children = Hashtbl.create 64 in
  List.iter
    (fun s ->
      match s.parent with
      | Some p -> Hashtbl.add children p (s.start, s.stop)
      | None -> ())
    spans;
  List.map
    (fun s -> (s, Stats.self_time ~start:s.start ~stop:s.stop (Hashtbl.find_all children s.id)))
    spans

(* Summed self time (ms) and count of the spans named [name]. *)
let self_ms selfs name =
  List.fold_left
    (fun (ms, n) (s, self) -> if s.name = name then (ms +. (self *. 1e3), n + 1) else (ms, n))
    (0., 0) selfs

let write path spans =
  let spans = List.sort (fun a b -> Float.compare a.start b.start) spans in
  let t0 = match spans with [] -> 0. | s :: _ -> s.start in
  Out_channel.with_open_text path @@ fun oc ->
  List.iter
    (fun (s, self) ->
      Mf_serve.Json.(
        output_string oc
          (to_line
             (obj
                [
                  ("id", Num (float_of_int s.id));
                  ("name", Str s.name);
                  ("request", Num (float_of_int s.request));
                  ("parent", match s.parent with Some p -> Num (float_of_int p) | None -> Null);
                  ("start_ms", Num ((s.start -. t0) *. 1e3));
                  ("end_ms", Num ((s.stop -. t0) *. 1e3));
                  ("self_ms", Num (self *. 1e3));
                ])));
      output_char oc '\n')
    (self_times spans)
