(** Leader election by min-id flooding. Takes O(D) rounds. *)

(** Raised by {!elect} when two surviving nodes end the flood with
    different leaders: [node] holds [value], while the first surviving
    node holds [leader]. Lossy links without [~reliable] cause it. *)
exception Disagreement of { node : int; value : int; leader : int }

(** [elect skeleton ~metrics] returns the elected leader (the minimum
    vertex id); every simulated node learns it. Rounds charged under
    ["leader"]. [faults] injects link/node faults; [reliable] runs over
    the acknowledged {!Transport}. Nodes that [faults] takes down for
    good ({!Fault.eventually_down}, or an unbounded stall) may never
    learn it, so they are left out of the agreement check and the
    leader is read from a surviving node.

    @raise Disagreement when the surviving nodes disagree.
    @raise Invalid_argument when no node survives. *)
val elect :
  ?faults:Fault.t -> ?reliable:bool -> Repro_graph.Digraph.t -> metrics:Metrics.t -> int
