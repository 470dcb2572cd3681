//! Page-load-time model for the §5.4.1 experiment.
//!
//! The paper loads a webpage of a few ~15 MB images plus scripts/CSS in
//! Firefox with six parallel TCP connections over a 30 Mbps / 20 ms-RTT
//! bottleneck, while handovers occur. PLT is when the last object
//! finishes. This module models the page as a manifest of objects
//! assigned round-robin to N connections; the driver owns the actual
//! [`TcpSender`]s (so they route like any other flow) and feeds them
//! back into [`PageLoad::update`].

use std::collections::HashMap;

use l25gc_core::msg::UeId;
use l25gc_sim::SimTime;

use crate::tcp::TcpSender;

/// One fetchable resource.
#[derive(Debug, Clone, Copy)]
pub struct WebObject {
    /// Size in bytes.
    pub(crate) bytes: u64,
}

/// The paper's page: high-resolution images + JS + CSS.
pub fn paper_page() -> Vec<WebObject> {
    let mut objs = vec![WebObject { bytes: 60_000 }]; // HTML
                                                      // "a few high-resolution images (each ~15MB)".
    for _ in 0..5 {
        objs.push(WebObject { bytes: 15_000_000 });
    }
    // JavaScript libraries and CSS files.
    for _ in 0..6 {
        objs.push(WebObject { bytes: 300_000 });
    }
    for _ in 0..4 {
        objs.push(WebObject { bytes: 50_000 });
    }
    objs
}

/// Bookkeeping for a page load over parallel connections.
#[derive(Debug)]
pub struct PageLoad {
    /// Flow ids of the participating connections.
    pub(crate) flows: Vec<u32>,
    started: SimTime,
    finished: Option<SimTime>,
}

impl PageLoad {
    /// Distributes `objects` round-robin across `n_conns` connections
    /// (Firefox's default is six), returning the bookkeeping plus the
    /// senders for the driver to own. Flow ids start at `first_flow`.
    pub fn new(
        ue: UeId,
        objects: &[WebObject],
        n_conns: u32,
        first_flow: u32,
        now: SimTime,
    ) -> (PageLoad, Vec<TcpSender>) {
        assert!(n_conns > 0);
        let mut per_conn = vec![0u64; n_conns as usize];
        for (i, obj) in objects.iter().enumerate() {
            per_conn[i % n_conns as usize] += obj.bytes;
        }
        let senders: Vec<TcpSender> = per_conn
            .into_iter()
            .enumerate()
            .map(|(i, bytes)| TcpSender::new(ue, first_flow + i as u32, Some(bytes)))
            .collect();
        let flows = senders.iter().map(|s| s.flow).collect();
        (
            PageLoad {
                flows,
                started: now,
                finished: None,
            },
            senders,
        )
    }

    /// Marks completion once every connection finished. Call after each
    /// ack delivery with the driver's sender map.
    pub fn update(&mut self, senders: &HashMap<u32, TcpSender>, now: SimTime) {
        if self.finished.is_none()
            && self
                .flows
                .iter()
                .all(|f| senders.get(f).map(|s| s.is_complete()).unwrap_or(false))
        {
            self.finished = Some(now);
        }
    }

    /// True when every object is fully transferred.
    pub fn is_complete(&self) -> bool {
        self.finished.is_some()
    }

    /// The page load time, if complete.
    pub fn plt(&self) -> Option<l25gc_sim::SimDuration> {
        self.finished.map(|f| f.duration_since(self.started))
    }

    /// Total spurious retransmissions across the page's connections.
    pub fn spurious_retransmissions(&self, senders: &HashMap<u32, TcpSender>) -> u64 {
        self.flows
            .iter()
            .filter_map(|f| senders.get(f))
            .map(|s| s.spurious_retransmissions)
            .sum()
    }

    /// Total RTO timeouts across the page's connections.
    pub fn timeouts(&self, senders: &HashMap<u32, TcpSender>) -> u64 {
        self.flows
            .iter()
            .filter_map(|f| senders.get(f))
            .map(|s| s.timeouts)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tcp::MSS;

    #[test]
    fn page_split_round_robin() {
        let page = paper_page();
        let (pl, senders) = PageLoad::new(1, &page, 6, 0, SimTime::ZERO);
        assert_eq!(senders.len(), 6);
        assert_eq!(pl.flows, vec![0, 1, 2, 3, 4, 5]);
        let total_page: u64 = page.iter().map(|o| o.bytes).sum();
        let total_model: u64 = senders.iter().map(|s| s.total_segments * MSS as u64).sum();
        // Segment rounding may add up to one MSS per connection.
        assert!(total_model >= total_page);
        assert!(total_model < total_page + 6 * MSS as u64);
        // The images dominate: ~77 MB page.
        assert!(total_page > 75_000_000);
    }

    #[test]
    fn completion_requires_all_connections() {
        let objs = [WebObject { bytes: 1400 }, WebObject { bytes: 1400 }];
        let (mut pl, senders) = PageLoad::new(1, &objs, 2, 0, SimTime::ZERO);
        let mut map: HashMap<u32, TcpSender> = senders.into_iter().map(|s| (s.flow, s)).collect();
        // Finish only the first connection.
        let n0 = map[&0].total_segments;
        map.get_mut(&0).unwrap().pump(SimTime::ZERO);
        map.get_mut(&0).unwrap().on_ack(n0, SimTime::ZERO);
        pl.update(&map, SimTime::ZERO);
        assert!(!pl.is_complete());
        let n1 = map[&1].total_segments;
        map.get_mut(&1).unwrap().pump(SimTime::ZERO);
        map.get_mut(&1).unwrap().on_ack(n1, SimTime::ZERO);
        let end = SimTime::ZERO + l25gc_sim::SimDuration::from_secs(28);
        pl.update(&map, end);
        assert!(pl.is_complete());
        assert_eq!(pl.plt(), Some(l25gc_sim::SimDuration::from_secs(28)));
        assert_eq!(pl.spurious_retransmissions(&map), 0);
        assert_eq!(pl.timeouts(&map), 0);
    }
}
