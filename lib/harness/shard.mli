(** Sharded campaign runs: partial-result files and their merge.

    A campaign (Table III, Figure 4 or the ablations) is a canonical
    job matrix ({!Experiment.table3_njobs} etc.).  {!run_partial}
    executes one deterministic stripe of that matrix — job [j] belongs
    to shard [j mod n] — and serializes the per-job outcome cells to a
    self-describing JSON string; {!merge_strings} validates that a set
    of partials covers the matrix exactly once and rebuilds the
    artifact through the same [*_of_cells] renderers the in-process
    path uses, so a sharded multi-process campaign is byte-identical
    to a single-process [jobs=1] run.

    The partial format records every campaign parameter (kind, budget,
    seeds, models, matrix size), so [merge] needs no flags and refuses
    to combine partials from different campaigns.  Partials are
    written and read by {!Util.Json}, whose floats round-trip exactly —
    the merged averages are computed from bit-identical inputs.

    Processes are the escape hatch from OCaml 5's shared-heap ceiling:
    worker domains share one major heap and stop the world together at
    every minor collection, while shard processes share nothing.  The
    same stripe + merge contract extends to multi-machine runs. *)

type kind = Table3 | Fig4 | Ablations

val kind_name : kind -> string
(** ["table3" | "fig4" | "ablations"] — also the partial-file tag. *)

val kind_of_name : string -> kind option

type spec = {
  sp_kind : kind;
  sp_budget : float;
  sp_seeds : int list;  (** Table III / ablations seed list *)
  sp_seed : int;  (** Figure 4 single seed *)
  sp_models : string list option;
}
(** Everything that determines a campaign's job matrix and outcome. *)

val spec :
  ?budget:float -> ?seeds:int list -> ?seed:int -> ?models:string list ->
  kind -> spec
(** Defaults match the corresponding {!Experiment} entry points:
    budget 3600 s, seeds [[1..5]] (Table III) / [[1..3]] (ablations),
    seed 1, all registry models. *)

val njobs : spec -> int
(** Size of the campaign's canonical job matrix. *)

exception Malformed of string
(** Raised by the parsing/merging functions on syntactically invalid
    JSON, a partial from a different campaign or with an empty seed
    list, or a cell set that does not cover the job matrix exactly
    once. *)

val run_partial :
  ?pool:Pool.t -> ?jobs:int -> shard:int * int -> spec -> string
(** [run_partial ~shard:(i, n) spec] executes the jobs with index
    [j mod n = i] and returns the partial-results JSON (one line,
    trailing newline).  [shard:(0, 1)] is the whole matrix.  Raises
    [Invalid_argument] unless [0 <= i < n]. *)

type merged =
  | M_table3 of Experiment.averaged list * string
  | M_fig4 of string * (string * string) list
  | M_ablations of string
      (** The merged artifact, exactly as the unsharded entry point
          returns it. *)

val render : merged -> string
(** The text the normal CLI prints for the artifact (Figure 4 panels
    without the CSV dumps). *)

val merge_strings : string list -> merged
(** Merge partial-result JSON strings (any order, e.g. shard [1/2]
    before [0/2]).  Raises {!Malformed} if the partials disagree on
    any campaign parameter, overlap, or leave matrix jobs uncovered. *)

val merge_files : string list -> merged
(** {!merge_strings} over file contents. *)
