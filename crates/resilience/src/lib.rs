//! # l25gc-resilience — the §3.5 failure-resiliency framework
//!
//! L²5GC avoids 3GPP's reattach-from-scratch recovery with a packet
//! logger, a frozen replica and replay under external synchrony. This
//! crate holds the pieces; `l25gc_testbed::World`'s `Resilience` harness
//! wires them around a live `CoreNetwork` and is the one failover
//! implementation: every failover figure runs it, and its replay
//! suppresses each output the dead primary had already released, matched
//! by the output itself rather than by a count.
//!
//! - [`logger`] — the LB-side packet logger: every inbound message gets
//!   a counter and a copy in one of four queues (UL/DL × control/data);
//!   replay restores the state tail lost since the last checkpoint, and
//!   data floods cannot evict control entries.
//! - [`replica`] — frozen replicas generic over the replicated state
//!   (`Clone` = checkpoint) and the periodic checkpoint policy.
//! - [`lb`] — the UE-aware load balancer: session affinity, failover
//!   migration, and the detect→reroute→replay timeline.
//! - [`reattach`] — the 3GPP restoration baseline L²5GC is compared
//!   against in §5.5.

mod lb;
mod logger;
mod reattach;
mod replica;

pub use lb::{FailoverTimeline, UeAwareLb};
pub use logger::{PacketLogger, QueueKind};
pub use reattach::ReattachModel;
pub use replica::{CheckpointPolicy, Replica, ReplicaState};
