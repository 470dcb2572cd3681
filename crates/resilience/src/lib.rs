//! # l25gc-resilience — the §3.5 failure-resiliency framework
//!
//! L²5GC avoids 3GPP's reattach-from-scratch recovery with a packet
//! logger, a frozen replica and replay under external synchrony. This
//! crate holds the pieces; `l25gc_testbed::World`'s `Resilience` harness
//! wires them around a live `CoreNetwork`, and that harness is what every
//! failover figure runs.
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
//! - [`fsm`] — the failover protocol as a clock-free specification:
//!   typed [`FaultEvent`] transitions to typed [`FsmAction`]s over an
//!   in-flight message multiset, with nothing lost, nothing duplicated
//!   and external synchrony property-tested. No running path steps it;
//!   its module docs record where `World`'s harness differs.

pub mod fsm;
pub mod lb;
pub mod logger;
pub mod reattach;
pub mod replica;

pub use fsm::{FailoverFsm, FaultEvent, FsmAction, FsmState};
pub use lb::{FailoverTimeline, UeAwareLb, UnitId};
pub use logger::{LoggedEntry, PacketLogger, QueueKind};
pub use reattach::ReattachModel;
pub use replica::{CheckpointPolicy, Replica, ReplicaState};
