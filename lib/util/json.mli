(** The project's one JSON codec: the serve protocol, diagnostics
    ([Diag.to_json]) and the committed bench ledgers all go through it.

    One value per line: {!to_line} never emits a raw newline (control
    characters are escaped), so a protocol message is always exactly one
    [\n]-terminated line and clients can frame on [input_line].

    The parser accepts standard JSON (objects, arrays, strings with the
    usual escapes including [\uXXXX], numbers, [true]/[false]/[null]);
    numbers are held as [float], which is exact for every integer the
    protocol uses. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val to_line : t -> string
(** Render on a single line, no trailing newline. *)

val to_lines : t -> string
(** As {!to_line}, except that a non-empty array of objects puts each
    object on a line of its own, so committed files diff per record. *)

val parse : string -> (t, string) result
(** Parse one complete value; trailing garbage is an error. *)

(** {2 Accessors} — each returns [None] on a shape mismatch. *)

val member : string -> t -> t option
(** Object field lookup; [None] for absent fields and non-objects. *)

val str : t -> string option
val num : t -> float option
val int_of : t -> int option
val bool_of : t -> bool option

val int_field : string -> t -> int option
val str_field : string -> t -> string option

val obj : (string * t) list -> t
(** [Obj] constructor, for pipelines. *)
