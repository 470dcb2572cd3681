//! The calibrated cost model: what each communication path and packet
//! path costs in virtual time.
//!
//! This is the single place where the paper's *measured primitives* enter
//! the reproduction. Every experiment harness uses the same constants —
//! none are tuned per-figure — so the figure-level numbers (event
//! completion times, RTT timelines, throughput curves) are *derived*, not
//! transcribed.
//!
//! # Calibration (see DESIGN.md §5)
//!
//! Control plane, per one-way message hop:
//! - `http_hop` = 9.0 ms — one SBI message over free5GC's stack: Go
//!   HTTP/2 server dispatch + JSON marshal/unmarshal + kernel TCP +
//!   NRF-mediated routing. One request/response transaction ≈ 18 ms,
//!   which reproduces the paper's event totals (Table 1/2) given the
//!   TS 23.502 message counts implemented in `l25gc-core::proc`.
//! - `udp_hop` = 1.2 ms — one PFCP message over a kernel UDP socket
//!   (TLV encode + sendmsg/recvmsg + scheduler wakeup).
//! - `shm_hop` = 0.7 ms — one message over the ONVM descriptor ring
//!   (enqueue + manager descriptor copy + poll dispatch, plus the Go/cGO
//!   shim the paper's NFs pay). The `http_hop / shm_hop` ratio is 13×,
//!   the Fig 9 average.
//! - `sctp_hop` = 1.0 ms — one N1/N2 message gNB ↔ AMF (unchanged by
//!   L²5GC).
//!
//! Data plane, per packet:
//! - kernel GTP path (free5GC): service time 1.81 µs/pkt (≈ 0.55 Mpps
//!   per core — 1/27th of 64 B line rate, Fig 10a) and added latency
//!   53 µs/direction (interrupt + softirq + copy), reproducing the
//!   116 µs base RTT of Table 1.
//! - DPDK path (L²5GC): service time 31 ns + 0.56 ns/B (64 B ⇒ 67 ns ⇒
//!   14.88 Mpps = 10 G line rate on one core; MTU ⇒ ~0.87 µs ⇒ 28 G on
//!   2+2 cores, §5.3 "Supporting 40Gbps links") and added latency
//!   4.5 µs/direction, reproducing the 25 µs base RTT.
//! - common wire hops (DN↔UPF and gNB↔UPF): 4 µs each; a direction
//!   crosses two, plus ~1 µs gNB↔generator.
//!
//! Handlers: `handler_ms` per control-plane procedure step is common to
//! both systems (the paper: "the handler-processing latency is common...
//! and is a significant part of the latency").

use l25gc_sim::SimDuration;

/// How a control-plane message travels between two NFs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Transport {
    /// ONVM shared-memory descriptor ring (L²5GC SBI and N4).
    SharedMemory,
    /// Kernel UDP socket (free5GC's PFCP / N4).
    UdpSocket,
    /// Kernel TCP + HTTP/2 + REST (free5GC's SBI).
    HttpRest,
    /// SCTP association (N1/N2 between gNB and AMF — same for both
    /// systems; the paper does not modify the RAN-facing interface).
    Sctp,
}

/// Serialization format used on a hop (affects per-KB cost).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SerFormat {
    /// No serialization: descriptor passes a typed struct by reference.
    None,
    /// JSON text (OpenAPI / free5GC).
    Json,
    /// Protobuf-style binary (gRPC proposals).
    Protobuf,
    /// FlatBuffers-style fixed layout (Neutrino).
    FlatBuffers,
    /// PFCP TLV (the N4 wire format).
    PfcpTlv,
}

/// Which datapath implementation forwards user packets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DataPath {
    /// free5GC's gtp5g kernel module: interrupt-driven, per-packet
    /// copies and syscalls.
    Kernel,
    /// L²5GC's DPDK/ONVM poll-mode userspace path: zero-copy.
    Dpdk,
}

/// The calibrated constants. Construct once per experiment via
/// [`CostModel::paper`] and share.
#[derive(Debug, Clone)]
pub struct CostModel {
    /// One-way shared-memory hop (descriptor enqueue→dispatch).
    pub(crate) shm_hop: SimDuration,
    /// One-way kernel UDP hop (PFCP).
    pub(crate) udp_hop: SimDuration,
    /// One-way HTTP/REST hop (SBI), excluding serialization below.
    pub(crate) http_hop: SimDuration,
    /// One-way SCTP hop (N1/N2), gNB ↔ AMF.
    pub sctp_hop: SimDuration,
    /// Serialize+deserialize cost per KiB of JSON.
    pub(crate) json_per_kib: SimDuration,
    /// Serialize+deserialize cost per KiB of protobuf.
    pub(crate) proto_per_kib: SimDuration,
    /// Serialize (write-side only; reads are zero-parse) per KiB of
    /// flatbuffers.
    pub(crate) flat_per_kib: SimDuration,
    /// Encode+decode cost per KiB of PFCP TLV.
    pub(crate) pfcp_per_kib: SimDuration,

    /// Kernel datapath per-packet service time (CPU occupancy).
    pub(crate) kernel_svc: SimDuration,
    /// Kernel datapath extra one-way latency (interrupt path).
    pub(crate) kernel_lat: SimDuration,
    /// DPDK datapath fixed per-packet service time.
    pub(crate) dpdk_svc_base: SimDuration,
    /// DPDK datapath per-byte service time, in nanoseconds per byte
    /// (an `f64` because it is sub-nanosecond).
    pub(crate) dpdk_svc_per_byte_ns: f64,
    /// DPDK datapath extra one-way latency (poll pipeline).
    pub(crate) dpdk_lat: SimDuration,
    /// Wire + stack latency of one N3/N6 hop (generator↔UPF or
    /// gNB↔UPF), identical for both systems. Each direction of the
    /// end-to-end path crosses two such hops.
    pub path_lat: SimDuration,
    /// Propagation delay UPF ↔ gNB used in the Eq 2 analysis (10 ms in
    /// the paper's §5.4.2 estimate).
    pub upf_gnb_prop: SimDuration,

    /// Control-plane handler processing per procedure step (common to
    /// free5GC and L²5GC).
    pub handler: SimDuration,
    /// UE-side radio fixed delays: paging-occasion wait + RACH + RRC
    /// setup during paging wake-up.
    pub ran_paging_fixed: SimDuration,
    /// UE-side radio fixed delays during handover (detach, sync to
    /// target, RACH).
    pub ran_handover_fixed: SimDuration,
    /// UE-side radio fixed delay during initial registration/attach.
    pub ran_attach_fixed: SimDuration,
    /// Round trip of one NAS exchange over the air interface (RRC
    /// signalling radio bearer), excluding the SCTP leg.
    pub ran_nas_rtt: SimDuration,

    /// Failure detection by the LB probe agent (§5.5.1: < 0.5 ms).
    pub failure_detect: SimDuration,
    /// Re-routing to the remote replica after detection (§5.5.1: 2 ms).
    pub reroute: SimDuration,
    /// State reconstruction by packet replay (§5.5.1: 3 ms).
    pub replay: SimDuration,
}

impl CostModel {
    /// The paper-calibrated model (see module docs for the derivation of
    /// every constant).
    pub fn paper() -> CostModel {
        CostModel {
            shm_hop: SimDuration::from_micros(700),
            udp_hop: SimDuration::from_micros(1_200),
            http_hop: SimDuration::from_micros(9_000),
            sctp_hop: SimDuration::from_micros(1_000),
            json_per_kib: SimDuration::from_micros(60),
            proto_per_kib: SimDuration::from_micros(15),
            flat_per_kib: SimDuration::from_micros(6),
            pfcp_per_kib: SimDuration::from_micros(10),

            kernel_svc: SimDuration::from_nanos(1_810),
            kernel_lat: SimDuration::from_micros(50),
            dpdk_svc_base: SimDuration::from_nanos(31),
            dpdk_svc_per_byte_ns: 0.56,
            dpdk_lat: SimDuration::from_nanos(4_500),
            path_lat: SimDuration::from_micros(4),
            upf_gnb_prop: SimDuration::from_millis(10),

            handler: SimDuration::from_micros(1_000),
            ran_paging_fixed: SimDuration::from_millis(12),
            ran_handover_fixed: SimDuration::from_millis(100),
            ran_attach_fixed: SimDuration::from_millis(20),
            ran_nas_rtt: SimDuration::from_millis(8),

            failure_detect: SimDuration::from_micros(500),
            reroute: SimDuration::from_millis(2),
            replay: SimDuration::from_millis(3),
        }
    }

    /// One-way latency for a control message of `wire_len` bytes over
    /// `transport`, serialized as `format`.
    pub fn message_hop(
        &self,
        transport: Transport,
        format: SerFormat,
        wire_len: usize,
    ) -> SimDuration {
        let base = match transport {
            Transport::SharedMemory => self.shm_hop,
            Transport::UdpSocket => self.udp_hop,
            Transport::HttpRest => self.http_hop,
            Transport::Sctp => self.sctp_hop,
        };
        let per_kib = match format {
            SerFormat::None => SimDuration::ZERO,
            SerFormat::Json => self.json_per_kib,
            SerFormat::Protobuf => self.proto_per_kib,
            SerFormat::FlatBuffers => self.flat_per_kib,
            SerFormat::PfcpTlv => self.pfcp_per_kib,
        };
        base + per_kib * (wire_len as f64 / 1024.0)
    }

    /// Round-trip (request + response) for a transaction whose request is
    /// `req_len` and response `resp_len` bytes.
    pub fn transaction(
        &self,
        transport: Transport,
        format: SerFormat,
        req_len: usize,
        resp_len: usize,
    ) -> SimDuration {
        self.message_hop(transport, format, req_len) + self.message_hop(transport, format, resp_len)
    }

    /// Per-packet datapath service time (CPU occupancy at the UPF) for a
    /// packet of `len` bytes.
    pub fn datapath_service(&self, path: DataPath, len: usize) -> SimDuration {
        match path {
            DataPath::Kernel => self.kernel_svc,
            DataPath::Dpdk => {
                self.dpdk_svc_base
                    + SimDuration::from_secs_f64(len as f64 * self.dpdk_svc_per_byte_ns * 1e-9)
            }
        }
    }

    /// Extra one-way latency a packet pays traversing the UPF.
    pub fn datapath_latency(&self, path: DataPath) -> SimDuration {
        match path {
            DataPath::Kernel => self.kernel_lat,
            DataPath::Dpdk => self.dpdk_lat,
        }
    }

    /// Saturation throughput in packets/second for one UPF core.
    pub fn datapath_pps(&self, path: DataPath, len: usize) -> f64 {
        1.0 / self.datapath_service(path, len).as_secs_f64()
    }

    /// Saturation throughput in Gbit/s for `cores` UPF cores and a link
    /// capped at `link_gbps`, counting the L1 frame on the wire
    /// (+20 B preamble/IFG, matching MoonGen's line-rate accounting —
    /// this is what makes 64 B "line rate" equal 14.88 Mpps on 10 G).
    pub fn datapath_gbps(&self, path: DataPath, len: usize, cores: u32, link_gbps: f64) -> f64 {
        let pps = self.datapath_pps(path, len) * f64::from(cores);
        let gbps = pps * (len as f64 + 20.0) * 8.0 / 1e9;
        gbps.min(link_gbps)
    }
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shm_vs_http_speedup_is_about_13x() {
        let m = CostModel::paper();
        let http = m.message_hop(Transport::HttpRest, SerFormat::Json, 800);
        let shm = m.message_hop(Transport::SharedMemory, SerFormat::None, 800);
        let speedup = http.as_secs_f64() / shm.as_secs_f64();
        assert!((11.0..16.0).contains(&speedup), "speedup {speedup}");
    }

    #[test]
    fn base_rtt_reproduces_table1() {
        // RTT = 2 × (2 wire hops + UPF latency + service + UE hop).
        let m = CostModel::paper();
        let ue_hop = SimDuration::from_micros(1);
        let kernel_rtt = (m.path_lat * 2 + m.datapath_latency(DataPath::Kernel) + ue_hop) * 2
            + m.datapath_service(DataPath::Kernel, 100) * 2;
        let dpdk_rtt = (m.path_lat * 2 + m.datapath_latency(DataPath::Dpdk) + ue_hop) * 2
            + m.datapath_service(DataPath::Dpdk, 100) * 2;
        let k = kernel_rtt.as_micros_f64();
        let d = dpdk_rtt.as_micros_f64();
        assert!(
            (100.0..135.0).contains(&k),
            "free5GC base RTT {k} µs (paper: 116)"
        );
        assert!(
            (20.0..32.0).contains(&d),
            "L25GC base RTT {d} µs (paper: 25)"
        );
    }

    #[test]
    fn dataplane_64b_line_rate_and_27x() {
        let m = CostModel::paper();
        // 64 B at 10 G ⇒ ~14.88 Mpps (paper: line rate on one core).
        let dpdk = m.datapath_pps(DataPath::Dpdk, 64);
        assert!(dpdk > 14.0e6, "DPDK pps {dpdk}");
        let kernel = m.datapath_pps(DataPath::Kernel, 64);
        let ratio = dpdk / kernel;
        assert!((24.0..30.0).contains(&ratio), "27x claim, got {ratio}");
    }

    #[test]
    fn multicore_scaling_matches_section_5_3() {
        let m = CostModel::paper();
        // 1 core, MTU: caps at the 10 G link.
        let one = m.datapath_gbps(DataPath::Dpdk, 1500, 1, 10.0);
        assert!((9.0..=10.0).contains(&one), "1 core {one} Gbps");
        // 2 cores on a 40 G link: ~28 Gbps.
        let two = m.datapath_gbps(DataPath::Dpdk, 1500, 2, 40.0);
        assert!(
            (24.0..32.0).contains(&two),
            "2 cores {two} Gbps (paper: 28)"
        );
        // 4 cores: comfortably 40 G.
        let four = m.datapath_gbps(DataPath::Dpdk, 1500, 4, 40.0);
        assert!(four >= 40.0 - 1e-9, "4 cores {four} Gbps (paper: 40)");
    }

    #[test]
    fn serialization_format_ordering() {
        let m = CostModel::paper();
        let len = 2048;
        let json = m.message_hop(Transport::HttpRest, SerFormat::Json, len);
        let proto = m.message_hop(Transport::HttpRest, SerFormat::Protobuf, len);
        let flat = m.message_hop(Transport::HttpRest, SerFormat::FlatBuffers, len);
        let none = m.message_hop(Transport::SharedMemory, SerFormat::None, len);
        assert!(json > proto, "JSON must cost more than protobuf");
        assert!(proto > flat, "protobuf must cost more than flatbuffers");
        assert!(flat > none, "any socket path must cost more than shm");
    }

    #[test]
    fn pfcp_hop_reduction_in_fig7_band() {
        // A PFCP transaction over UDP vs shared memory, with the common
        // handler on top: 21–39% total reduction (Fig 7).
        let m = CostModel::paper();
        let req = 300;
        let resp = 60;
        let handler = m.handler;
        let free5gc = m.transaction(Transport::UdpSocket, SerFormat::PfcpTlv, req, resp) + handler;
        let l25gc = m.transaction(Transport::SharedMemory, SerFormat::None, req, resp) + handler;
        let reduction = 1.0 - l25gc.as_secs_f64() / free5gc.as_secs_f64();
        assert!(
            (0.21..0.39).contains(&reduction),
            "Fig 7 band: got {:.0}%",
            reduction * 100.0
        );
    }
}
