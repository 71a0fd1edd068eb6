(** On-disk regression corpus of shrunk fuzz failures.

    The corpus is a JSONL file: one flat JSON object per line with the
    fields [schema_version] (currently 1), [seed], [index], [oracle],
    [max_steps] and [message].  A case is addressed purely by
    [(seed, index, max_steps)] — {!Campaign.run_case} regenerates it
    deterministically — so replaying an entry re-runs the oracle that
    once failed and expects it to pass now (the corpus records {e
    fixed} bugs; a replay failure means a regression).

    [fuzz --corpus DIR] appends every campaign failure to
    [DIR/corpus.jsonl]; [fuzz --replay-corpus FILE] replays a file and
    exits non-zero when any entry fails again.  The committed
    [test/corpus/corpus.jsonl] is replayed on every [dune runtest]. *)

type entry = {
  e_seed : int;  (** campaign seed *)
  e_index : int;  (** case index within the campaign *)
  e_oracle : string;  (** oracle that failed ("build" or {!Oracle.all}) *)
  e_max_steps : int;  (** campaign [--max-steps] (case addressing) *)
  e_message : string;  (** original failure message, for the record *)
}

val schema_version : int

val to_line : entry -> string
(** One JSONL line, no trailing newline. *)

val of_line : string -> (entry, string) result
(** Strict parse of one corpus object, in any key order and spacing;
    [Error] explains the defect.
    Blank lines and [#] comments yield [Error] — filter first. *)

val load : string -> (entry list, string) result
(** Read a corpus file, skipping blank and [#]-comment lines. *)

val append : path:string -> entry list -> unit
(** Append entries to [path], creating the file (and parents' right to
    exist is the caller's concern — only the file is created). *)

val of_failures :
  seed:int -> max_steps:int -> Campaign.failure list -> entry list

val replay : entry -> Oracle.verdict
(** Regenerate the entry's case and run its oracle ([Pass] = the bug
    stayed fixed).  Unknown oracle names fail. *)
