//! The sequencer-based atomic broadcast model.

use crate::stats::NetStats;
use dmt_sim::{SimDuration, SimTime, SplitMix64};
use std::collections::BTreeMap;
use std::fmt;

/// A node of the group (a replica host).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl NodeId {
    pub const fn new(v: u32) -> Self {
        NodeId(v)
    }
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Latency model of the (local or wide area) network.
#[derive(Clone, Copy, Debug)]
pub struct NetConfig {
    /// Base one-way latency of any hop (node↔sequencer, sequencer↔node).
    pub one_way: SimDuration,
    /// Multiplicative jitter: the actual latency is
    /// `one_way * (1 + jitter * u)` with `u` uniform in `[0, 1)`.
    pub jitter: f64,
}

impl NetConfig {
    /// The paper's evaluation setting: clients and replicas in one LAN.
    pub fn lan() -> Self {
        NetConfig {
            one_way: SimDuration::from_micros(250),
            jitter: 0.4,
        }
    }

    /// A WAN profile for the §3.5 claim that LSA's chatter hurts there.
    pub fn wan(one_way_ms: u64) -> Self {
        NetConfig {
            one_way: SimDuration::from_millis(one_way_ms),
            jitter: 0.2,
        }
    }
}

/// A message stamped with its position in the total order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Sequenced<M> {
    pub seq: u64,
    pub msg: M,
}

/// An in-order delivery at a node.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Delivery<M> {
    pub node: NodeId,
    pub seq: u64,
    pub msg: M,
}

struct NodeState<M> {
    alive: bool,
    next_deliver: u64,
    /// Out-of-order arrivals held back until their predecessors arrive.
    reorder: BTreeMap<u64, M>,
    /// Per-node base one-way latency override (WAN/LAN mixed groups);
    /// `None` uses [`NetConfig::one_way`].
    one_way_override: Option<SimDuration>,
}

/// The group communication service. The caller (the simulation engine)
/// owns the clock: methods return *delays*, the caller schedules events.
///
/// Failure model hooks (DESIGN.md §11): [`GroupComm::kill`] fences a
/// node off the broadcast, [`GroupComm::revive`] re-admits it at an
/// explicit sequence position (the engine pairs this with a state
/// transfer), [`GroupComm::set_node_latency`] builds WAN/LAN mixed
/// groups, and [`GroupComm::set_dedup`] disables at-most-once delivery
/// to demonstrate that the determinism checker catches non-idempotent
/// duplicate delivery.
pub struct GroupComm<M> {
    cfg: NetConfig,
    rng: SplitMix64,
    next_seq: u64,
    nodes: Vec<NodeState<M>>,
    stats: NetStats,
    /// At-most-once delivery (the default). When disabled, duplicate
    /// arrivals of an already-delivered sequence number are re-delivered —
    /// a deliberately broken mode for adversarial testing.
    dedup: bool,
    /// Latest sequencer-arrival instant per FIFO source, for the sources
    /// with a submission still in flight only (in no particular order).
    /// Source ids can be many (one per open-loop client: 1e5 in a
    /// sharded run), but few are in flight at once: an entry whose
    /// horizon lies strictly before the submit clock can never bump a
    /// later arrival (every arrival is at least `now`), so
    /// [`GroupComm::submit_delay_fifo`] drops it. The vec stays as small
    /// as the in-flight set, so one linear pass that both prunes it and
    /// finds the submitting source is the whole per-submit cost.
    fifo_horizon: Vec<(u64, SimTime)>,
    /// Clock of the latest FIFO submission; pruning relies on it never
    /// going backwards.
    fifo_now: SimTime,
}

impl<M: Clone> GroupComm<M> {
    pub fn new(n_nodes: usize, cfg: NetConfig, seed: u64) -> Self {
        GroupComm {
            cfg,
            rng: SplitMix64::new(seed),
            next_seq: 0,
            nodes: (0..n_nodes)
                .map(|_| NodeState {
                    alive: true,
                    next_deliver: 0,
                    reorder: BTreeMap::new(),
                    one_way_override: None,
                })
                .collect(),
            stats: NetStats::default(),
            dedup: true,
            fifo_horizon: Vec::new(),
            fifo_now: SimTime::ZERO,
        }
    }

    pub fn n_nodes(&self) -> usize {
        self.nodes.len()
    }

    pub fn is_alive(&self, node: NodeId) -> bool {
        self.nodes[node.index()].alive
    }

    /// Marks a node failed: no further deliveries reach it.
    pub fn kill(&mut self, node: NodeId) {
        self.nodes[node.index()].alive = false;
        self.nodes[node.index()].reorder.clear();
    }

    /// Re-admits a dead node to the broadcast, resuming delivery at
    /// `next_deliver`. Messages sequenced while the node was dead were
    /// never fanned out to it, so the caller must position `next_deliver`
    /// past the gap — the engine's recovery protocol passes
    /// [`GroupComm::sequenced_count`] and transfers the missed state
    /// out-of-band (passive-replication catch-up). Panics if the node is
    /// still alive or if `next_deliver` would re-open the unfillable gap.
    pub fn revive(&mut self, node: NodeId, next_deliver: u64) {
        let st = &mut self.nodes[node.index()];
        assert!(!st.alive, "revive of live node {node:?}");
        assert!(
            next_deliver >= st.next_deliver,
            "revive would rewind {node:?} from {} to {next_deliver}",
            st.next_deliver
        );
        st.alive = true;
        st.next_deliver = next_deliver;
        st.reorder.clear();
    }

    /// Overrides the base one-way latency of every hop that terminates at
    /// `node` (WAN/LAN mixed groups: e.g. two co-located replicas plus one
    /// remote). Jitter still applies multiplicatively. `None` restores the
    /// group-wide [`NetConfig::one_way`].
    pub fn set_node_latency(&mut self, node: NodeId, one_way: Option<SimDuration>) {
        self.nodes[node.index()].one_way_override = one_way;
    }

    /// Enables or disables at-most-once delivery (enabled by default).
    /// Disabling it models a faulty transport that re-delivers duplicates;
    /// the determinism checker is expected to flag the resulting
    /// divergence (see `tests_resilience`).
    pub fn set_dedup(&mut self, dedup: bool) {
        self.dedup = dedup;
    }

    fn hop_latency(&mut self) -> SimDuration {
        let u = self.rng.next_f64();
        let ns = self.cfg.one_way.as_nanos() as f64 * (1.0 + self.cfg.jitter * u);
        SimDuration::from_nanos(ns.round() as u64)
    }

    /// Like [`GroupComm::hop_latency`] but for a hop terminating at a
    /// specific node, honouring its latency override. Consumes exactly one
    /// RNG draw either way, so enabling overrides on some nodes never
    /// perturbs the latency stream of the others.
    fn hop_latency_to(&mut self, node_idx: usize) -> SimDuration {
        let base = self.nodes[node_idx]
            .one_way_override
            .unwrap_or(self.cfg.one_way);
        let u = self.rng.next_f64();
        let ns = base.as_nanos() as f64 * (1.0 + self.cfg.jitter * u);
        SimDuration::from_nanos(ns.round() as u64)
    }

    /// A submission leaves a node (or an external client) for the
    /// sequencer. Returns the transit delay; the caller schedules
    /// [`GroupComm::sequence`] after it.
    pub fn submit_delay(&mut self) -> SimDuration {
        self.stats.submissions += 1;
        self.hop_latency()
    }

    /// Like [`GroupComm::submit_delay`] but with per-source FIFO: two
    /// submissions from the same `source` never overtake each other on
    /// the way to the sequencer (the FIFO-total order real group
    /// communication systems provide — LSA's numbered announcements
    /// depend on it). `now` must never decrease between calls.
    pub fn submit_delay_fifo(&mut self, source: u64, now: SimTime) -> SimDuration {
        debug_assert!(now >= self.fifo_now, "FIFO submit clock went backwards");
        self.fifo_now = now;
        self.stats.submissions += 1;
        // One pass drops the horizons strictly before `now` (they cannot
        // bump this or any later arrival) and finds `source`'s entry. A
        // horizon equal to `now` must stay: a zero-latency hop arrives at
        // `now` and has to queue behind it.
        let mut hit = None;
        let mut kept = 0;
        for k in 0..self.fifo_horizon.len() {
            let e = self.fifo_horizon[k];
            if e.1 >= now {
                if e.0 == source {
                    hit = Some(kept);
                }
                self.fifo_horizon[kept] = e;
                kept += 1;
            }
        }
        self.fifo_horizon.truncate(kept);
        let mut arrival = now + self.hop_latency();
        match hit {
            Some(i) => {
                let last = self.fifo_horizon[i].1;
                if arrival <= last {
                    arrival = last + SimDuration::from_nanos(1);
                }
                self.fifo_horizon[i].1 = arrival;
            }
            None => self.fifo_horizon.push((source, arrival)),
        }
        arrival - now
    }

    /// Sources currently tracked by the FIFO horizon.
    #[cfg(test)]
    fn fifo_horizon_len(&self) -> usize {
        self.fifo_horizon.len()
    }

    /// The sequencer stamps `msg` and broadcasts it: returns the stamped
    /// message and per-node arrival delays (dead nodes excluded). The
    /// caller schedules an [`GroupComm::arrive`] per entry.
    pub fn sequence(&mut self, msg: M) -> (Sequenced<M>, Vec<(NodeId, SimDuration)>) {
        let mut hops = Vec::with_capacity(self.nodes.len());
        let sm = self.sequence_into(msg, &mut hops);
        (sm, hops)
    }

    /// Allocation-free [`GroupComm::sequence`]: the per-node arrival
    /// delays land in the caller-owned `hops` buffer (cleared first), so
    /// an engine reusing one buffer pays nothing per broadcast.
    pub fn sequence_into(&mut self, msg: M, hops: &mut Vec<(NodeId, SimDuration)>) -> Sequenced<M> {
        hops.clear();
        let seq = self.next_seq;
        self.next_seq += 1;
        for i in 0..self.nodes.len() {
            if self.nodes[i].alive {
                let d = self.hop_latency_to(i);
                self.stats.broadcast_legs += 1;
                hops.push((NodeId::new(i as u32), d));
            }
        }
        Sequenced { seq, msg }
    }

    /// A stamped message physically arrives at `node`. Returns the batch
    /// of messages now deliverable *in order* (possibly empty while a
    /// predecessor is still in flight, possibly several if this arrival
    /// plugged a gap). Arrivals at dead nodes are dropped.
    pub fn arrive(&mut self, node: NodeId, sm: Sequenced<M>) -> Vec<Delivery<M>> {
        let mut out = Vec::new();
        self.arrive_into(node, sm, &mut out);
        out
    }

    /// Allocation-free [`GroupComm::arrive`]: deliveries land in the
    /// caller-owned `out` buffer (cleared first). An in-order arrival —
    /// the steady state — is delivered directly, never touching the
    /// reorder map; only genuine gaps buffer.
    ///
    /// Delivery is at-most-once: a duplicate arrival (sequence number
    /// already delivered, or already waiting in the hold-back buffer) is
    /// counted in [`NetStats::dup_dropped`] and suppressed — unless
    /// [`GroupComm::set_dedup`]`(false)` put the transport in its broken
    /// mode, in which case an already-delivered message is delivered
    /// *again* (the adversarial case the determinism checker must catch).
    pub fn arrive_into(&mut self, node: NodeId, sm: Sequenced<M>, out: &mut Vec<Delivery<M>>) {
        out.clear();
        let st = &mut self.nodes[node.index()];
        if !st.alive {
            return;
        }
        if sm.seq < st.next_deliver {
            if self.dedup {
                self.stats.dup_dropped += 1;
                return;
            }
            // Broken-dedup mode: re-deliver the duplicate out of order.
            out.push(Delivery {
                node,
                seq: sm.seq,
                msg: sm.msg,
            });
            self.stats.deliveries += 1;
            return;
        }
        if sm.seq > st.next_deliver {
            if st.reorder.contains_key(&sm.seq) {
                self.stats.dup_dropped += 1;
                return;
            }
            st.reorder.insert(sm.seq, sm.msg);
            self.stats.held_back += 1;
            return;
        }
        out.push(Delivery {
            node,
            seq: sm.seq,
            msg: sm.msg,
        });
        st.next_deliver += 1;
        self.stats.deliveries += 1;
        while let Some(msg) = st.reorder.remove(&st.next_deliver) {
            out.push(Delivery {
                node,
                seq: st.next_deliver,
                msg,
            });
            st.next_deliver += 1;
            self.stats.deliveries += 1;
        }
    }

    /// How many messages `node` has delivered so far.
    pub fn delivered_count(&self, node: NodeId) -> u64 {
        self.nodes[node.index()].next_deliver
    }

    pub fn stats(&self) -> &NetStats {
        &self.stats
    }

    /// Total messages sequenced so far.
    pub fn sequenced_count(&self) -> u64 {
        self.next_seq
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gc(n: usize, seed: u64) -> GroupComm<&'static str> {
        GroupComm::new(n, NetConfig::lan(), seed)
    }

    #[test]
    fn sequence_numbers_are_consecutive() {
        let mut g = gc(3, 1);
        let (a, hops) = g.sequence("a");
        let (b, _) = g.sequence("b");
        assert_eq!(a.seq, 0);
        assert_eq!(b.seq, 1);
        assert_eq!(hops.len(), 3);
    }

    #[test]
    fn in_order_arrival_delivers_immediately() {
        let mut g = gc(2, 1);
        let (a, _) = g.sequence("a");
        let out = g.arrive(NodeId::new(0), a);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].msg, "a");
        assert_eq!(out[0].seq, 0);
    }

    #[test]
    fn out_of_order_arrival_is_held_back() {
        let mut g = gc(1, 1);
        let (a, _) = g.sequence("a");
        let (b, _) = g.sequence("b");
        let n = NodeId::new(0);
        assert!(g.arrive(n, b).is_empty(), "seq 1 must wait for seq 0");
        let out = g.arrive(n, a);
        let msgs: Vec<_> = out.iter().map(|d| d.msg).collect();
        assert_eq!(msgs, vec!["a", "b"], "gap plugged: both deliver in order");
        assert_eq!(g.delivered_count(n), 2);
    }

    #[test]
    fn long_gap_release() {
        let mut g = gc(1, 1);
        let stamped: Vec<_> = (0..5)
            .map(|i| g.sequence(["a", "b", "c", "d", "e"][i]).0)
            .collect();
        let n = NodeId::new(0);
        for sm in stamped.iter().skip(1).rev() {
            assert!(g.arrive(n, *sm).is_empty());
        }
        let out = g.arrive(n, stamped[0]);
        assert_eq!(out.len(), 5);
        let seqs: Vec<u64> = out.iter().map(|d| d.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn dead_node_gets_nothing() {
        let mut g = gc(2, 1);
        g.kill(NodeId::new(1));
        let (a, hops) = g.sequence("a");
        assert_eq!(hops.len(), 1, "broadcast skips dead nodes");
        assert_eq!(hops[0].0, NodeId::new(0));
        assert!(g.arrive(NodeId::new(1), a).is_empty());
        assert!(!g.is_alive(NodeId::new(1)));
    }

    #[test]
    fn latency_is_positive_and_jittered() {
        let mut g = gc(1, 7);
        let base = NetConfig::lan().one_way;
        let mut distinct = std::collections::HashSet::new();
        for _ in 0..50 {
            let d = g.submit_delay();
            assert!(d >= base);
            assert!(d <= base + SimDuration::from_nanos((base.as_nanos() as f64 * 0.4) as u64 + 1));
            distinct.insert(d.as_nanos());
        }
        assert!(distinct.len() > 10, "jitter should vary latencies");
    }

    #[test]
    fn same_seed_same_latencies() {
        let mut a = gc(3, 42);
        let mut b = gc(3, 42);
        for _ in 0..20 {
            assert_eq!(a.submit_delay(), b.submit_delay());
            let (_, ha) = a.sequence("x");
            let (_, hb) = b.sequence("x");
            assert_eq!(ha, hb);
        }
    }

    #[test]
    fn stats_count_traffic() {
        let mut g = gc(3, 1);
        g.submit_delay();
        let (a, _) = g.sequence("a");
        g.arrive(NodeId::new(0), a);
        assert_eq!(g.stats().submissions, 1);
        assert_eq!(g.stats().broadcast_legs, 3);
        assert_eq!(g.stats().deliveries, 1);
        assert_eq!(g.sequenced_count(), 1);
    }

    #[test]
    fn duplicate_delivery_is_dropped_and_counted() {
        let mut g = gc(1, 1);
        let (a, _) = g.sequence("a");
        let n = NodeId::new(0);
        assert_eq!(g.arrive(n, a).len(), 1);
        assert!(g.arrive(n, a).is_empty(), "duplicate must be suppressed");
        assert_eq!(g.stats().dup_dropped, 1);
        assert_eq!(g.stats().deliveries, 1);
        assert_eq!(g.delivered_count(n), 1);
    }

    #[test]
    fn duplicate_of_held_back_message_is_dropped() {
        let mut g = gc(1, 1);
        let (_a, _) = g.sequence("a");
        let (b, _) = g.sequence("b");
        let n = NodeId::new(0);
        assert!(g.arrive(n, b).is_empty(), "gap: held back");
        assert_eq!(g.stats().held_back, 1);
        assert!(g.arrive(n, b).is_empty(), "duplicate of buffered msg");
        assert_eq!(g.stats().dup_dropped, 1);
        assert_eq!(g.stats().held_back, 1, "second copy is not re-buffered");
    }

    #[test]
    fn broken_dedup_redelivers_duplicates() {
        let mut g = gc(1, 1);
        g.set_dedup(false);
        let (a, _) = g.sequence("a");
        let n = NodeId::new(0);
        assert_eq!(g.arrive(n, a).len(), 1);
        let dup = g.arrive(n, a);
        assert_eq!(dup.len(), 1, "broken transport re-delivers");
        assert_eq!(dup[0].seq, 0);
        assert_eq!(g.stats().deliveries, 2);
        assert_eq!(g.stats().dup_dropped, 0);
    }

    #[test]
    fn revive_resumes_at_explicit_position() {
        let mut g = gc(2, 1);
        let n0 = NodeId::new(0);
        let n1 = NodeId::new(1);
        let (a, _) = g.sequence("a");
        g.arrive(n0, a);
        g.arrive(n1, a);
        g.kill(n1);
        // Sequenced while n1 is dead: never fanned out to it.
        let (b, hops) = g.sequence("b");
        assert_eq!(hops.len(), 1);
        g.arrive(n0, b);
        // Recovery: state transfer covers seq 1, delivery resumes at 2.
        g.revive(n1, g.sequenced_count());
        assert!(g.is_alive(n1));
        let (c, hops) = g.sequence("c");
        assert_eq!(hops.len(), 2, "revived node rejoins the broadcast");
        let out = g.arrive(n1, c);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].seq, 2);
        assert_eq!(g.delivered_count(n1), 3);
    }

    #[test]
    #[should_panic(expected = "revive of live node")]
    fn revive_of_live_node_panics() {
        let mut g = gc(1, 1);
        g.revive(NodeId::new(0), 0);
    }

    #[test]
    #[should_panic(expected = "revive would rewind")]
    fn revive_cannot_rewind() {
        let mut g = gc(1, 1);
        let n = NodeId::new(0);
        let (a, _) = g.sequence("a");
        g.arrive(n, a);
        g.kill(n);
        g.revive(n, 0);
    }

    #[test]
    fn wan_profile_is_slower() {
        let mut lan: GroupComm<&str> = GroupComm::new(1, NetConfig::lan(), 1);
        let mut wan: GroupComm<&str> = GroupComm::new(1, NetConfig::wan(20), 1);
        assert!(wan.submit_delay() > lan.submit_delay() * 10);
    }

    #[test]
    fn fifo_zero_latency_tie_still_queues_behind() {
        // With zero latency the first submission arrives at `now` itself:
        // its horizon equals `now` and must survive pruning, so the second
        // submission from the same source at the same `now` is bumped.
        let cfg = NetConfig {
            one_way: SimDuration::ZERO,
            jitter: 0.0,
        };
        let mut g: GroupComm<()> = GroupComm::new(1, cfg, 1);
        let now = SimTime::from_nanos(1_000);
        assert_eq!(g.submit_delay_fifo(7, now), SimDuration::ZERO);
        assert_eq!(g.submit_delay_fifo(7, now), SimDuration::from_nanos(1));
        assert_eq!(g.submit_delay_fifo(8, now), SimDuration::ZERO);
    }

    #[test]
    fn fifo_horizon_holds_only_sources_in_flight() {
        // 10 000 one-shot sources, one submission every 100 µs with a
        // 250–350 µs hop: at most 4 are ever in flight, and the horizon
        // must not keep the ones that have arrived.
        let mut g = gc(1, 3);
        let mut in_flight: Vec<SimTime> = Vec::new();
        for src in 0..10_000u64 {
            let now = SimTime::from_nanos(src * 100_000);
            let d = g.submit_delay_fifo(1_000_000 + src, now);
            in_flight.retain(|&a| a >= now);
            in_flight.push(now + d);
            assert_eq!(g.fifo_horizon_len(), in_flight.len(), "source {src}");
            assert!(g.fifo_horizon_len() <= 4);
        }
    }

    #[test]
    fn node_latency_override_shapes_only_that_node() {
        let mut g = gc(2, 5);
        let mut g_plain = gc(2, 5);
        g.set_node_latency(NodeId::new(1), Some(SimDuration::from_millis(40)));
        let (_, hops_mixed) = g.sequence("x");
        let (_, hops_plain) = g_plain.sequence("x");
        // Node 0's draw is byte-identical with and without the override on
        // node 1 (one RNG draw per leg either way).
        assert_eq!(hops_mixed[0].1, hops_plain[0].1);
        assert!(
            hops_mixed[1].1 > hops_plain[1].1 * 10,
            "overridden node sees WAN latency"
        );
        // Restoring the override restores the original latency model.
        g.set_node_latency(NodeId::new(1), None);
        let (_, h2) = g.sequence("y");
        let (_, h2p) = g_plain.sequence("y");
        assert_eq!(h2, h2p);
    }
}
