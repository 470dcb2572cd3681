//! The §5.4.2 "Estimating Smart Buffering benefit" analysis: Eq 1
//! (packet drops) and Eq 2 (one-way delay) comparing L²5GC's direct
//! handover against 3GPP's hairpin routing.

use l25gc_nfv::cost::CostModel;
use l25gc_sim::SimDuration;

/// Inputs to the Eq 1 / Eq 2 estimate.
#[derive(Debug, Clone, Copy)]
pub(crate) struct BufferingScenario {
    /// Handover duration `t_HO` (the paper uses the measured 130 ms).
    pub(crate) t_ho: SimDuration,
    /// Downlink rate in packets per second.
    pub(crate) dl_pps: f64,
    /// Buffer available at the buffering point (packets): gNB for 3GPP,
    /// UPF for L²5GC.
    pub(crate) buffer_pkts: u64,
    /// Propagation delay between UPF and each gNB.
    pub(crate) prop: SimDuration,
}

/// Eq 1: packets dropped during the handover.
///
/// `N_drop = DL_rate × t_HO − Q_length` (clamped at zero).
pub(crate) fn eq1_drops(s: &BufferingScenario) -> u64 {
    let arriving = (s.dl_pps * s.t_ho.as_secs_f64()).round() as u64;
    arriving.saturating_sub(s.buffer_pkts)
}

/// Eq 2: one-way delay UPF → UE for a buffered packet.
///
/// L²5GC: `t_HO + t_{UPF,GNB_t}`.
/// 3GPP:  `t_HO + t_{UPF,GNB_s} + t_{GNB_s,UPF} + t_{UPF,GNB_t}`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct OwdEstimate {
    /// L²5GC's direct delivery delay.
    pub(crate) l25gc: SimDuration,
    /// 3GPP's hairpin delivery delay.
    pub(crate) threegpp: SimDuration,
}

/// Computes Eq 2 for a scenario.
pub(crate) fn eq2_owd(s: &BufferingScenario) -> OwdEstimate {
    OwdEstimate {
        l25gc: s.t_ho + s.prop,
        threegpp: s.t_ho + s.prop * 3,
    }
}

/// One row of the §5.4.2 comparison table.
#[derive(Debug, Clone)]
pub struct SmartBufferingRow {
    /// Case label.
    pub case: &'static str,
    /// Buffer at the buffering point for the 3GPP scheme (source gNB).
    pub gnb_buffer: u64,
    /// Buffer for L²5GC (UPF).
    pub upf_buffer: u64,
    /// Eq 1 drops under 3GPP.
    pub drops_3gpp: u64,
    /// Eq 1 drops under L²5GC.
    pub drops_l25gc: u64,
    /// Eq 2 extra delay of 3GPP over L²5GC (ms).
    pub extra_owd_ms: f64,
}

/// Reproduces the paper's two cases: (i) equal 500-packet buffers;
/// (ii) 1500 at the UPF vs 500 at the gNB.
pub fn smart_buffering_table(cost: &CostModel) -> Vec<SmartBufferingRow> {
    let base = BufferingScenario {
        t_ho: SimDuration::from_millis(130),
        dl_pps: 10_000.0,
        buffer_pkts: 0,
        prop: cost.upf_gnb_prop,
    };
    let mut rows = Vec::new();
    for (case, gnb, upf) in [
        ("case i: equal buffers", 500u64, 500u64),
        ("case ii: bigger UPF buffer", 500, 1500),
    ] {
        let s_gnb = BufferingScenario {
            buffer_pkts: gnb,
            ..base
        };
        let s_upf = BufferingScenario {
            buffer_pkts: upf,
            ..base
        };
        let owd = eq2_owd(&base);
        rows.push(SmartBufferingRow {
            case,
            gnb_buffer: gnb,
            upf_buffer: upf,
            drops_3gpp: eq1_drops(&s_gnb),
            drops_l25gc: eq1_drops(&s_upf),
            extra_owd_ms: (owd.threegpp - owd.l25gc).as_millis_f64(),
        });
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn case_i_equal_buffers_drop_about_800() {
        let rows = smart_buffering_table(&CostModel::paper());
        let i = &rows[0];
        // 10 kpps × 130 ms = 1300 arriving; 500 buffered ⇒ 800 dropped,
        // both schemes (paper: "a similar packet loss of ~800 packets").
        assert_eq!(i.drops_3gpp, 800);
        assert_eq!(i.drops_l25gc, 800);
    }

    #[test]
    fn case_ii_upf_sees_no_loss() {
        let rows = smart_buffering_table(&CostModel::paper());
        let ii = &rows[1];
        assert_eq!(
            ii.drops_l25gc, 0,
            "1500-packet UPF buffer absorbs the burst"
        );
        assert_eq!(ii.drops_3gpp, 800, "gNB still overflows");
    }

    #[test]
    fn hairpin_adds_20ms_owd() {
        let rows = smart_buffering_table(&CostModel::paper());
        // Eq 2 with 10 ms propagation: 3GPP pays 2 extra legs = 20 ms.
        assert!((rows[0].extra_owd_ms - 20.0).abs() < 0.01);
    }

    #[test]
    fn eq1_clamps_at_zero() {
        let s = BufferingScenario {
            t_ho: SimDuration::from_millis(10),
            dl_pps: 100.0,
            buffer_pkts: 10_000,
            prop: SimDuration::from_millis(10),
        };
        assert_eq!(eq1_drops(&s), 0);
    }
}
