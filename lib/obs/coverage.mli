(** The decision-space table over the ODG: which nodes/edges of the Oz
    Dependence Graph the policy actually walks, how its action
    distribution evolves, a bucketed sketch of the visited state space,
    and which actions carry the reward (per-action reward-split totals
    and schedule-position histogram) — see DESIGN.md §13. One fold of
    the step stream, persisted as two ledger documents: coverage.json
    ({!to_json}) and attrib.json ({!attrib_to_json}).

    The table is a pure fold over the in-order step stream, so it is
    byte-deterministic per seed — identical for [--jobs 1] and
    [--jobs 4] — and {!of_records} recomputes it float-exactly from
    the run ledger. Only the state sketch is not ledger-recomputable
    (states are not persisted) and is therefore excluded from
    {!equal}. *)

type universe = {
  nodes : string array;          (** pass names (ODG nodes first, then
                                     any extra passes the action space
                                     references) *)
  edges : (int * int) array;     (** ODG edges as node-index pairs *)
  action_paths : int array array; (** per action, its pass path as node
                                      indices *)
}
(** The fixed decision space a table counts against — plain arrays so
    this layer needs no dependency on [Posetrl_odg] (which builds one
    via [Action_space.coverage_universe]). *)

type t

val create :
  ?registry:Metrics.t -> ?sketch_bits:int -> ?sketch_seed:int ->
  ?state_dim:int -> max_pos:int -> universe -> t
(** A fresh table. [max_pos] is the number of schedule-position buckets
    per action (the episode length; clamped to at least 1).
    [registry] opts into posetrl.coverage.* gauges (published on
    {!sample}); recomputed tables stay silent. The state
    sketch hashes embeddings into [2^sketch_bits] buckets (default 6)
    through a projection seeded by [sketch_seed] — fixed defaults keep
    tables comparable across runs. [state_dim] defaults to the IR2Vec
    embedding width (300).
    @raise Invalid_argument on an empty action set or out-of-range
    indices in the universe. *)

val observe :
  t -> action:int -> pos:int -> reward:float -> r_binsize:float ->
  r_throughput:float -> unit
(** Fold one environment step. [pos] is the position within the
    episode; [pos = 0] marks an episode boundary (resets the
    transition predecessor). Credits node visits along the action's
    path, intra-path ODG edges, the junction edge from the previous
    action's last pass, the action histogram, the transition matrix
    and the action's attribution cells (reward-split totals; [pos]
    clamped into [0, max_pos)). Must be called in step-stream order:
    the cells are plain float sums in that order.
    @raise Invalid_argument if [action] is out of range. *)

val observe_state : t -> float array -> unit
(** Fold one (pre-action) IR2Vec embedding into the visitation sketch:
    the sign pattern of the seeded projections selects a bucket. *)

val sample : t -> step:int -> unit
(** Append a (step, edge-coverage %, entropy bits) point to the time
    series and publish the posetrl.coverage.* gauges (when created
    with a registry). The trainer calls this once per progress tick. *)

(** {1 Readings} *)

val n_actions : t -> int
val steps : t -> int
val episodes : t -> int
val node_count : t -> int
val edge_count : t -> int
val node_name : t -> int -> string
val node_visits : t -> int -> int
val action_count : t -> int -> int
val transition : t -> from:int -> to_:int -> int

val total_reward : t -> int -> float
val total_binsize : t -> int -> float
val total_throughput : t -> int -> float

val mean_reward : t -> int -> float
(** Reward total over selection count; 0 for an untaken action. *)

val positions : t -> int -> int array
(** A copy of the action's schedule-position histogram. *)

val top_position : t -> int -> int option
(** The position the action is most often taken at; [None] if never. *)

val action_label : t -> int -> string
(** The action's pass path, comma-joined. *)

val nodes_visited : t -> int
val edges_visited : t -> int

val edge_pct : t -> float
(** Percentage of universe edges with at least one visit. *)

val entropy : t -> float
(** Shannon entropy (bits) of the cumulative action distribution;
    [log2 n_actions] when uniform, 0 when collapsed (or empty). *)

val series : t -> (int * float * float) list
(** The sampled (step, edge %, entropy) points, oldest first. *)

val top_edges : t -> k:int -> (int * int * int * float * float * float) list
(** The [k] most-visited edges as [(u, v, count, reward_total,
    r_binsize_total, r_throughput_total)], count-descending with
    universe-index tie-break (deterministic). *)

val top_transitions : t -> k:int -> (int * int * int) list
(** The [k] most frequent action→action transitions. *)

val sketch_bits : t -> int
val sketch_buckets : t -> int array
val sketch_occupied : t -> int
(** Buckets with at least one visit (of [2^sketch_bits]). *)

val equal : t -> t -> bool
(** Exact structural equality (floats via [Float.equal]) over
    everything recomputable from the run ledger: universe, counts,
    edge cells, transitions, series, attribution cells. The sketch and
    the mid-stream transition cursor are excluded (see module doc). *)

(** {1 Persistence and recompute} *)

val to_json : t -> Json.t
(** The coverage.json document: self-contained (embeds the universe),
    floats as %.17g so a reload round-trips exactly. *)

val attrib_to_json : t -> Json.t
(** The attrib.json document: per action its {!action_label}, count,
    reward-split totals and position histogram. *)

val of_json : ?attrib:Json.t -> Json.t -> t option
(** Read a table back from coverage.json plus, when given, attrib.json.
    Robust: [None] on anything structurally off — or on an attrib.json
    whose steps or per-action counts disagree with coverage.json —
    never an exception. Without [attrib] (eval runs write none) the
    attribution cells read as zero reward totals in a one-bucket
    position histogram. *)

val of_records : like:t -> Json.t list -> t
(** Brute-force recompute from progress.jsonl records (in file order)
    into a fresh table with [like]'s universe, [max_pos] and sketch
    parameters: episode step streams are re-indexed to global steps
    and merged with the tick records so every {!sample} lands exactly
    where the streaming table sampled it. The result is {!equal} to
    the streaming table of the same run. *)

val to_dot : ?k:int -> t -> string
(** Heat-annotated Graphviz rendering of the universe, structurally
    compatible with [Posetrl_odg.Graph.to_dot] ([k] is the critical-
    node degree threshold): visited edges colour-ramp grey → red with
    penwidth and a count label by log-scaled visits, unvisited edges
    dashed light-grey. *)
