//! Fig 10 and the §5.3 "Supporting 40Gbps links" study: data-plane
//! throughput and latency vs. packet size.
//!
//! These are derived from the calibrated datapath primitives (service
//! time + path latencies) rather than event simulation: saturation
//! throughput is a closed form of the per-packet service time, exactly
//! how one computes it for a run-to-completion DPDK pipeline.

use l25gc_core::Deployment;
use l25gc_nfv::cost::CostModel;
use l25gc_sim::SimDuration;

/// The packet sizes MoonGen sweeps in Fig 10.
pub(crate) const PACKET_SIZES: [usize; 6] = [68, 128, 256, 512, 1024, 1500];

/// One Fig 10 point.
#[derive(Debug, Clone)]
pub struct DataplaneRow {
    /// Packet size (bytes).
    pub size: usize,
    /// Unidirectional throughput, Gbit/s (Fig 10a).
    pub uni_gbps: f64,
    /// Bidirectional aggregate throughput, Gbit/s (Fig 10b; two 10 G
    /// ports, UL+DL simultaneously).
    pub bidir_gbps: f64,
    /// Mean end-to-end latency, µs (Fig 10c).
    pub latency_us: f64,
}

/// Computes the Fig 10 sweep for one system on a `link_gbps` link.
pub fn fig10(deployment: Deployment, cost: &CostModel, link_gbps: f64) -> Vec<DataplaneRow> {
    let path = deployment.datapath();
    PACKET_SIZES
        .iter()
        .map(|&size| {
            let uni = cost.datapath_gbps(path, size, 1, link_gbps);
            // Bidirectional: UL and DL share the UPF core; each direction
            // gets half the service capacity but its own port.
            let per_dir_pps = cost.datapath_pps(path, size) / 2.0;
            let per_dir = (per_dir_pps * size as f64 * 8.0 / 1e9).min(link_gbps);
            let bidir = per_dir * 2.0;
            // One-way latency: two wire hops + UPF latency + service,
            // plus the NIC wire time for the frame itself.
            let wire = SimDuration::from_secs_f64(size as f64 * 8.0 / (link_gbps * 1e9));
            let one_way = cost.path_lat * 2
                + cost.datapath_latency(path)
                + cost.datapath_service(path, size)
                + wire;
            DataplaneRow {
                size,
                uni_gbps: uni,
                bidir_gbps: bidir,
                latency_us: one_way.as_micros_f64(),
            }
        })
        .collect()
}

/// §5.3: cores vs. achievable forwarding rate at MTU on a 40 G link.
#[derive(Debug, Clone)]
pub struct ScalingRow {
    /// Cores assigned to the UPF-U (and mirrored at the manager).
    pub cores: u32,
    /// Forwarding rate, Gbit/s.
    pub gbps: f64,
}

/// Computes the §5.3 scaling table (1 → 10 G, 2 → ~28 G, 4 → 40 G).
pub fn scaling_40g(cost: &CostModel) -> Vec<ScalingRow> {
    [1u32, 2, 4]
        .iter()
        .map(|&cores| {
            // With one core the paper is port-bound at 10 G; beyond that
            // the 40 G link is the cap.
            let link = if cores == 1 { 10.0 } else { 40.0 };
            let gbps = cost.datapath_gbps(l25gc_nfv::DataPath::Dpdk, 1500, cores, link);
            ScalingRow { cores, gbps }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig10a_shape_27x_at_small_packets() {
        let cost = CostModel::paper();
        let free = fig10(Deployment::Free5gc, &cost, 10.0);
        let l25 = fig10(Deployment::L25gc, &cost, 10.0);
        let ratio = l25[0].uni_gbps / free[0].uni_gbps;
        assert!(
            (20.0..30.0).contains(&ratio),
            "68 B ratio {ratio} (paper: 27x)"
        );
        // L25GC is at line rate for small packets.
        assert!(
            l25[0].uni_gbps > 9.9,
            "line rate at 68 B: {}",
            l25[0].uni_gbps
        );
        // free5GC throughput grows with packet size.
        assert!(free[5].uni_gbps > free[0].uni_gbps * 10.0);
    }

    #[test]
    fn fig10c_latency_gap_about_15x() {
        let cost = CostModel::paper();
        let free = fig10(Deployment::Free5gc, &cost, 10.0);
        let l25 = fig10(Deployment::L25gc, &cost, 10.0);
        for (f, l) in free.iter().zip(&l25) {
            let ratio = f.latency_us / l.latency_us;
            assert!(
                (3.0..20.0).contains(&ratio),
                "latency ratio at {} B: {ratio:.1}",
                f.size
            );
        }
        // L25GC latency stays relatively flat across sizes.
        let spread = l25[5].latency_us / l25[0].latency_us;
        assert!(spread < 2.0, "flat latency, spread {spread}");
    }

    #[test]
    fn scaling_matches_section53() {
        let rows = scaling_40g(&CostModel::paper());
        assert!(
            (rows[0].gbps - 10.0).abs() < 0.5,
            "1 core ⇒ 10 G, got {}",
            rows[0].gbps
        );
        assert!(
            (24.0..32.0).contains(&rows[1].gbps),
            "2 cores ⇒ ~28 G, got {}",
            rows[1].gbps
        );
        assert!(rows[2].gbps >= 39.0, "4 cores ⇒ 40 G, got {}", rows[2].gbps);
    }

    #[test]
    fn bidirectional_doubles_until_cpu_bound() {
        let cost = CostModel::paper();
        let l25 = fig10(Deployment::L25gc, &cost, 10.0);
        // At MTU one direction is port-capped at 10 G while the shared
        // core can push ~14 G total across both ports.
        let last = l25.last().unwrap();
        assert!(
            last.bidir_gbps > last.uni_gbps * 1.3,
            "{} vs {}",
            last.bidir_gbps,
            last.uni_gbps
        );
    }
}
