(** A fleet of simulated devices behind one scheduler.

    Each member owns its memory space, streams, timeline, metrics and fault
    gates; the set splits [parallel loop] iteration spaces across alive
    members block- or cyclic-wise.  Device 0 is the {e primary}: its metrics
    object is the host clock.  A single device is the one-member set. *)

type schedule = Block | Cyclic

val schedule_name : schedule -> string
val schedule_of_string : string -> (schedule, string) result

type t = {
  devices : Device.t array;
  schedule : schedule;
  base_plan : Fault_plan.t option;
      (** the un-partitioned plan, kept for event reporting *)
}

(** Create [n] devices.  A fault [plan] is partitioned by [#DEV] selector
    ({!Fault_plan.partition}) into per-member plans, so the caller's plan
    only changes through {!flush_events}; device 0 keeps the seed's own RNG
    stream, so [create 1] is the single device of the paper's runtime. *)
val create :
  ?cm:Costmodel.t -> ?seed:int -> ?trace:bool -> ?plan:Fault_plan.t ->
  ?schedule:schedule -> int -> t

val size : t -> int
val primary : t -> Device.t
val device : t -> int -> Device.t

(** Ordinals of members still on the bus, ascending. *)
val alive_ids : t -> int list

val num_alive : t -> int
val all_lost : t -> bool
val first_alive : t -> Device.t option

(** Fold every member's injected fault events (time-ordered) and loss state
    back into the base plan the set was created with, at every set size.
    Idempotent. *)
val flush_events : t -> unit

(** Per-member accumulated [(compute, transfer)] seconds by ordinal
    (kernel/wait vs PCIe categories of each member's own accumulator). *)
val member_times : t -> (float * float) array

(** Participant index owning iteration ordinal [i] of a [total]-iteration
    loop split across [parts] participants. *)
val owner : schedule -> parts:int -> total:int -> int -> int

(** Number of ordinals owned by participant [part]. *)
val shard_size : schedule -> parts:int -> total:int -> int -> int
