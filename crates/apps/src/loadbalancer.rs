//! A stateful L4 load balancer with flow-state spill to flash.
//!
//! Paper §2.4: "load-balancers ... require large temporary data storage
//! (e.g., Tiara offloads load-balancing state from FPGAs to x86 servers)".
//! Tiara spilled to x86 servers because its FPGA had no storage; Hyperion
//! keeps the hot flow table in fabric-attached DRAM and spills the cold
//! tail to its *own* NVMe — no external server. Experiment E7 measures
//! throughput as the flow count exceeds DRAM capacity.
//!
//! Consistent hashing assigns new flows to backends; established flows
//! must keep their backend (connection affinity), which is why the state
//! must be kept somewhere at all.

use std::collections::HashMap;

use hyperion_nvme::device::{Command, NvmeDevice, Response};
use hyperion_nvme::params::LBA_SIZE;
use hyperion_sim::stats::Counters;
use hyperion_sim::time::Ns;

/// Fabric DRAM lookup cost for the hot table.
const DRAM_LOOKUP: Ns = Ns(200);

/// In-fabric hash/steering work per packet.
const PIPELINE_WORK: Ns = Ns(40);

/// A backend server id.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BackendId(pub u32);

/// Spill records per flash page (16-byte records into a 4 KiB page).
pub const SPILL_BATCH: usize = 256;

/// The "no slot" link of an [`Lru`] list end.
const NIL: u32 = u32::MAX;

/// One DRAM-resident flow in the [`Lru`] list.
#[derive(Debug, Clone, Copy)]
struct LruNode {
    flow: u64,
    prev: u32,
    next: u32,
}

/// LRU order over the DRAM-resident flows: an intrusive doubly-linked
/// list threaded through a slab, head = coldest. A flow's slot is stored
/// in its [`Residence::Dram`], so a hit re-links it in O(1); evicted
/// slots are reused, so the slab never outgrows the DRAM table.
#[derive(Debug)]
struct Lru {
    nodes: Vec<LruNode>,
    /// Slots of evicted entries, reused before the slab grows.
    free: Vec<u32>,
    head: u32,
    tail: u32,
}

impl Lru {
    fn new() -> Lru {
        Lru {
            nodes: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
        }
    }

    fn len(&self) -> usize {
        self.nodes.len() - self.free.len()
    }

    /// Appends `flow` as the most recently used entry; returns its slot.
    fn push_back(&mut self, flow: u64) -> u32 {
        let node = LruNode {
            flow,
            prev: NIL,
            next: NIL,
        };
        let slot = match self.free.pop() {
            Some(slot) => {
                self.nodes[slot as usize] = node;
                slot
            }
            None => {
                let slot = u32::try_from(self.nodes.len())
                    .ok()
                    .filter(|&s| s != NIL)
                    .expect("LRU slab exceeds u32 slots");
                self.nodes.push(node);
                slot
            }
        };
        self.link_back(slot);
        slot
    }

    /// Marks the entry at `slot` as the most recently used.
    fn move_to_back(&mut self, slot: u32) {
        if slot != self.tail {
            self.unlink(slot);
            self.link_back(slot);
        }
    }

    /// Removes the least recently used entry and frees its slot.
    fn pop_front(&mut self) -> Option<u64> {
        if self.head == NIL {
            return None;
        }
        let slot = self.head;
        self.unlink(slot);
        self.free.push(slot);
        Some(self.nodes[slot as usize].flow)
    }

    fn unlink(&mut self, slot: u32) {
        let LruNode { prev, next, .. } = self.nodes[slot as usize];
        if prev == NIL {
            self.head = next;
        } else {
            self.nodes[prev as usize].next = next;
        }
        if next == NIL {
            self.tail = prev;
        } else {
            self.nodes[next as usize].prev = prev;
        }
    }

    fn link_back(&mut self, slot: u32) {
        let node = &mut self.nodes[slot as usize];
        node.prev = self.tail;
        node.next = NIL;
        if self.tail == NIL {
            self.head = slot;
        } else {
            self.nodes[self.tail as usize].next = slot;
        }
        self.tail = slot;
    }
}

/// Where a flow's state lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Residence {
    /// In fabric DRAM, at `slot` of the LRU list.
    Dram {
        slot: u32,
    },
    /// Evicted but still in the spill write buffer (not yet on flash).
    Staged,
    Flash {
        lba: u64,
    },
}

/// The load balancer.
#[derive(Debug)]
pub struct LoadBalancer {
    backends: u32,
    dram_capacity: usize,
    /// flow hash -> (backend, residence).
    table: HashMap<u64, (BackendId, Residence)>,
    /// LRU order for spill decisions (head = coldest).
    lru: Lru,
    spill: NvmeDevice,
    spill_cursor: u64,
    /// Flows evicted into the current (unflushed) spill page.
    staging: Vec<u64>,
    /// Records per flushed spill page.
    spill_batch: usize,
    /// `hits_dram`, `hits_flash`, `hits_staged`, `spills`, `promotions`,
    /// `new_flows`, `spill_pages`.
    pub counters: Counters,
}

impl LoadBalancer {
    /// Creates a balancer over `backends` servers with room for
    /// `dram_capacity` flows in fabric DRAM and a spill SSD.
    ///
    /// # Panics
    ///
    /// Panics if `backends` is zero.
    pub fn new(backends: u32, dram_capacity: usize, spill_lbas: u64) -> LoadBalancer {
        Self::with_spill_batch(backends, dram_capacity, spill_lbas, SPILL_BATCH)
    }

    /// [`LoadBalancer::new`] with an explicit spill-batch size — the
    /// ablation knob for write-buffer batching (1 = one flash page per
    /// eviction).
    ///
    /// # Panics
    ///
    /// Panics if `backends` or `spill_batch` is zero.
    pub fn with_spill_batch(
        backends: u32,
        dram_capacity: usize,
        spill_lbas: u64,
        spill_batch: usize,
    ) -> LoadBalancer {
        assert!(backends > 0, "need at least one backend");
        assert!(spill_batch > 0, "spill batch must be non-zero");
        LoadBalancer {
            backends,
            dram_capacity,
            table: HashMap::new(),
            lru: Lru::new(),
            spill: NvmeDevice::new_block(spill_lbas),
            spill_cursor: 0,
            staging: Vec::with_capacity(spill_batch),
            spill_batch,
            counters: Counters::new(),
        }
    }

    fn choose_backend(&self, flow: u64) -> BackendId {
        // Rendezvous (highest-random-weight) hashing: stable under backend
        // set changes.
        let mut best = (0u64, 0u32);
        for b in 0..self.backends {
            let w = flow
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .rotate_left(b % 63)
                .wrapping_add(b as u64);
            let w = w.wrapping_mul(0xBF58_476D_1CE4_E5B9);
            if w >= best.0 {
                best = (w, b);
            }
        }
        BackendId(best.1)
    }

    /// Number of flows resident in DRAM.
    pub fn dram_flows(&self) -> usize {
        self.lru.len()
    }

    /// Total tracked flows.
    pub fn total_flows(&self) -> usize {
        self.table.len()
    }

    /// Spills the coldest DRAM entry. Records accumulate in a write
    /// buffer and flush as one flash page per [`SPILL_BATCH`] evictions,
    /// asynchronously — Tiara-style state offload happens off the packet
    /// path, so the triggering packet never stalls on tProg.
    fn spill_coldest(&mut self, now: Ns) {
        let Some(victim) = self.lru.pop_front() else {
            return;
        };
        self.counters.bump("spills");
        let entry = self.table.get_mut(&victim).expect("victim is tracked");
        entry.1 = Residence::Staged;
        self.staging.push(victim);
        if self.staging.len() >= self.spill_batch.min(SPILL_BATCH) {
            self.flush_staging(now);
        }
    }

    /// Installs `flow` in DRAM as the most recently used entry at `now`,
    /// spilling the coldest entry first when the table is full.
    fn install_dram(&mut self, flow: u64, backend: BackendId, now: Ns) {
        if self.lru.len() >= self.dram_capacity {
            self.spill_coldest(now);
        }
        let slot = self.lru.push_back(flow);
        self.table.insert(flow, (backend, Residence::Dram { slot }));
    }

    /// Writes the staging buffer as one page and marks its flows
    /// flash-resident.
    fn flush_staging(&mut self, now: Ns) {
        if self.staging.is_empty() {
            return;
        }
        self.counters.bump("spill_pages");
        let lba = self.spill_cursor % self.spill.capacity_lbas();
        self.spill_cursor += 1;
        let mut image = vec![0u8; LBA_SIZE as usize];
        for (i, flow) in self.staging.iter().enumerate() {
            let backend = self.table[flow].0;
            let o = i * 16;
            image[o..o + 8].copy_from_slice(&flow.to_le_bytes());
            image[o + 8..o + 12].copy_from_slice(&backend.0.to_le_bytes());
        }
        self.spill
            .submit(
                Command::Write {
                    lba,
                    data: bytes::Bytes::from(image),
                },
                now,
            )
            .expect("spill write");
        for flow in self.staging.drain(..) {
            if let Some(entry) = self.table.get_mut(&flow) {
                if entry.1 == Residence::Staged {
                    entry.1 = Residence::Flash { lba };
                }
            }
        }
    }

    /// Steers one packet of `flow` at `now`: returns the backend and the
    /// completion instant. New flows are assigned and installed; flows
    /// whose state spilled to flash pay a flash read to re-promote.
    pub fn steer(&mut self, flow: u64, now: Ns) -> (BackendId, Ns) {
        let t = now + PIPELINE_WORK;
        match self.table.get(&flow).copied() {
            Some((backend, Residence::Dram { slot })) => {
                self.counters.bump("hits_dram");
                self.lru.move_to_back(slot);
                (backend, t + DRAM_LOOKUP)
            }
            Some((backend, Residence::Staged)) => {
                // Still in the write buffer: promote back at DRAM speed.
                self.counters.bump("hits_staged");
                if let Some(pos) = self.staging.iter().position(|&f| f == flow) {
                    self.staging.remove(pos);
                }
                let t = t + DRAM_LOOKUP;
                self.install_dram(flow, backend, t);
                (backend, t)
            }
            Some((backend, Residence::Flash { lba })) => {
                // Cold flow: read the record back, promote to DRAM.
                self.counters.bump("hits_flash");
                self.counters.bump("promotions");
                let c = self
                    .spill
                    .submit(Command::Read { lba, blocks: 1 }, t)
                    .expect("spill read");
                debug_assert!(matches!(c.response, Response::Data(_)));
                self.install_dram(flow, backend, c.done);
                (backend, c.done)
            }
            None => {
                self.counters.bump("new_flows");
                let backend = self.choose_backend(flow);
                let t = t + DRAM_LOOKUP;
                self.install_dram(flow, backend, t);
                (backend, t)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::VecDeque;

    /// Walks the list head to tail, checking the back links on the way.
    fn order(lru: &Lru) -> Vec<u64> {
        let mut out = Vec::new();
        let (mut prev, mut slot) = (NIL, lru.head);
        while slot != NIL {
            let node = lru.nodes[slot as usize];
            assert_eq!(node.prev, prev, "back link of slot {slot}");
            out.push(node.flow);
            (prev, slot) = (slot, node.next);
        }
        assert_eq!(lru.tail, prev);
        assert_eq!(lru.len(), out.len());
        out
    }

    #[test]
    fn lru_reuses_evicted_slots() {
        let mut lru = Lru::new();
        let slots: Vec<u32> = [10, 11, 12].map(|f| lru.push_back(f)).to_vec();
        assert_eq!(slots, [0, 1, 2]);
        assert_eq!(lru.pop_front(), Some(10));
        assert_eq!(lru.push_back(13), 0, "the evicted head's slot");
        assert_eq!(lru.pop_front(), Some(11));
        assert_eq!(lru.pop_front(), Some(12));
        assert_eq!(lru.push_back(14), 2);
        assert_eq!(lru.push_back(15), 1);
        assert_eq!(lru.nodes.len(), 3, "the slab never grew past three");
        assert_eq!(order(&lru), [13, 14, 15]);
    }

    #[test]
    fn lru_move_to_back_at_head_tail_and_alone() {
        let mut lru = Lru::new();
        let a = lru.push_back(1);
        lru.move_to_back(a);
        assert_eq!(order(&lru), [1], "single element");
        let b = lru.push_back(2);
        let c = lru.push_back(3);
        lru.move_to_back(a);
        assert_eq!(order(&lru), [2, 3, 1], "head");
        lru.move_to_back(a);
        assert_eq!(order(&lru), [2, 3, 1], "tail");
        lru.move_to_back(c);
        assert_eq!(order(&lru), [2, 1, 3], "middle");
        lru.move_to_back(b);
        assert_eq!(order(&lru), [1, 3, 2]);
        assert_eq!(lru.pop_front(), Some(1));
        assert_eq!(lru.pop_front(), Some(3));
        assert_eq!(lru.pop_front(), Some(2));
        assert_eq!(lru.pop_front(), None);
        assert_eq!(order(&lru), []);
    }

    /// Where a flow lives in [`Reference`].
    #[derive(Debug, Clone, Copy)]
    enum RefResidence {
        Dram,
        Staged,
        Flash(u64),
    }

    /// The balancer's spill policy restated naively: a `VecDeque` LRU
    /// searched linearly on every DRAM hit.
    struct Reference {
        capacity: usize,
        batch: usize,
        table: HashMap<u64, (BackendId, RefResidence)>,
        lru: VecDeque<u64>,
        staging: Vec<u64>,
        spill: NvmeDevice,
        cursor: u64,
        counters: Counters,
    }

    impl Reference {
        fn new(capacity: usize, batch: usize, spill_lbas: u64) -> Reference {
            Reference {
                capacity,
                batch,
                table: HashMap::new(),
                lru: VecDeque::new(),
                staging: Vec::new(),
                spill: NvmeDevice::new_block(spill_lbas),
                cursor: 0,
                counters: Counters::new(),
            }
        }

        fn steer(&mut self, flow: u64, new_backend: BackendId, now: Ns) -> (BackendId, Ns) {
            let t = now + PIPELINE_WORK;
            let (backend, t) = match self.table.get(&flow).copied() {
                Some((backend, RefResidence::Dram)) => {
                    self.counters.bump("hits_dram");
                    let pos = self.lru.iter().position(|&f| f == flow).unwrap();
                    self.lru.remove(pos);
                    self.lru.push_back(flow);
                    return (backend, t + DRAM_LOOKUP);
                }
                Some((backend, RefResidence::Staged)) => {
                    self.counters.bump("hits_staged");
                    self.staging.retain(|&f| f != flow);
                    (backend, t + DRAM_LOOKUP)
                }
                Some((backend, RefResidence::Flash(lba))) => {
                    self.counters.bump("hits_flash");
                    self.counters.bump("promotions");
                    let c = self
                        .spill
                        .submit(Command::Read { lba, blocks: 1 }, t)
                        .unwrap();
                    (backend, c.done)
                }
                None => {
                    self.counters.bump("new_flows");
                    (new_backend, t + DRAM_LOOKUP)
                }
            };
            if self.lru.len() >= self.capacity {
                if let Some(victim) = self.lru.pop_front() {
                    self.counters.bump("spills");
                    self.table.get_mut(&victim).unwrap().1 = RefResidence::Staged;
                    self.staging.push(victim);
                    if self.staging.len() >= self.batch.min(SPILL_BATCH) {
                        self.flush(t);
                    }
                }
            }
            self.table.insert(flow, (backend, RefResidence::Dram));
            self.lru.push_back(flow);
            (backend, t)
        }

        fn flush(&mut self, now: Ns) {
            self.counters.bump("spill_pages");
            let lba = self.cursor % self.spill.capacity_lbas();
            self.cursor += 1;
            let data = bytes::Bytes::from(vec![0u8; LBA_SIZE as usize]);
            self.spill
                .submit(Command::Write { lba, data }, now)
                .unwrap();
            for flow in self.staging.drain(..) {
                self.table
                    .insert(flow, (self.table[&flow].0, RefResidence::Flash(lba)));
            }
        }
    }

    fn sorted_counters(c: &Counters) -> Vec<(&'static str, u64)> {
        let mut v: Vec<_> = c.iter().collect();
        v.sort_unstable();
        v
    }

    /// Drives `packets` (`(flow, idle gap in ns)`) through the balancer
    /// and the reference, requiring the same `(backend, done)` per steer
    /// and the same DRAM population; returns the balancer's counters.
    fn assert_matches_reference(capacity: usize, batch: usize, packets: &[(u64, u64)]) -> Counters {
        // A 64-page spill device: the cursor wraps, so reused LBAs occur.
        let mut lb = LoadBalancer::with_spill_batch(4, capacity, 64, batch);
        let mut reference = Reference::new(capacity, batch, 64);
        let mut now = Ns::ZERO;
        for (i, &(flow, gap)) in packets.iter().enumerate() {
            let got = lb.steer(flow, now);
            let want = reference.steer(flow, lb.choose_backend(flow), now);
            assert_eq!(got, want, "packet {i} (flow {flow}) at {now}");
            assert_eq!(lb.dram_flows(), reference.lru.len(), "packet {i}");
            now = got.1 + Ns(gap);
        }
        assert_eq!(
            sorted_counters(&lb.counters),
            sorted_counters(&reference.counters)
        );
        assert_eq!(lb.total_flows(), reference.table.len());
        lb.counters
    }

    /// Skewed traffic over `universe` flows: a quarter of the flows draw
    /// most of the packets, so both hot DRAM hits and cold re-visits occur.
    fn skewed(draws: &[(u64, u64, u64)], universe: u64) -> Vec<(u64, u64)> {
        draws
            .iter()
            .map(|&(pick, hot, gap)| {
                let flow = if hot < 3 {
                    pick % universe.div_ceil(4)
                } else {
                    pick % universe
                };
                (flow, gap)
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn lru_balancer_matches_naive_reference(
            capacity in 1usize..12,
            universe in 2u64..120,
            batch in prop_oneof![Just(1usize), Just(SPILL_BATCH)],
            draws in proptest::collection::vec(
                (0u64..1_000_000, 0u64..4, 0u64..150_000),
                1..1_500,
            ),
        ) {
            assert_matches_reference(capacity, batch, &skewed(&draws, universe));
        }
    }

    #[test]
    fn reference_equivalence_reaches_staged_and_flash_hits() {
        let mut rng = proptest::TestRng::new(7);
        let draws: Vec<(u64, u64, u64)> = (0..4_000)
            .map(|_| (rng.below(1_000_000), rng.below(4), rng.below(20_000)))
            .collect();
        let packets = skewed(&draws, 400);
        let batch1 = assert_matches_reference(8, 1, &packets);
        assert!(batch1.get("hits_flash") > 0, "{batch1:?}");
        assert!(batch1.get("hits_dram") > 0, "{batch1:?}");
        let batch256 = assert_matches_reference(8, SPILL_BATCH, &packets);
        assert!(batch256.get("hits_staged") > 0, "{batch256:?}");
        assert!(batch256.get("hits_flash") > 0, "{batch256:?}");
    }

    #[test]
    fn flows_keep_their_backend() {
        let mut lb = LoadBalancer::new(8, 1_000, 1 << 16);
        let (b1, t) = lb.steer(42, Ns::ZERO);
        let (b2, _) = lb.steer(42, t);
        assert_eq!(b1, b2, "connection affinity");
        assert_eq!(lb.counters.get("new_flows"), 1);
        assert_eq!(lb.counters.get("hits_dram"), 1);
    }

    #[test]
    fn backends_are_roughly_balanced() {
        let lb = LoadBalancer::new(4, 10, 1 << 12);
        let mut counts = [0u32; 4];
        for f in 0..8_000u64 {
            counts[lb.choose_backend(f).0 as usize] += 1;
        }
        for c in counts {
            assert!((1_000..3_500).contains(&c), "backend imbalance: {counts:?}");
        }
    }

    #[test]
    fn overflow_spills_to_flash_and_affinity_survives() {
        let mut lb = LoadBalancer::new(4, 100, 1 << 16);
        let mut t = Ns::ZERO;
        let mut first_backend = Vec::new();
        // 500 flows through a 100-flow DRAM table: 400 evictions, one
        // full spill page flushed (SPILL_BATCH = 256).
        for f in 0..500u64 {
            let (b, done) = lb.steer(f, t);
            t = done;
            first_backend.push(b);
        }
        assert!(lb.counters.get("spills") >= 400);
        assert!(lb.counters.get("spill_pages") >= 1);
        assert_eq!(lb.dram_flows(), 100);
        assert_eq!(lb.total_flows(), 500);
        // Revisit flow 0 (in the first flushed page): same backend, paid
        // a flash read.
        let (b, done) = lb.steer(0, t);
        assert_eq!(b, first_backend[0]);
        assert!(lb.counters.get("hits_flash") >= 1);
        assert!(done > t + Ns(50_000), "flash promotion pays tR");
        // A staged (unflushed) flow promotes at memory speed.
        let staged_flow = 499 - 50; // evicted recently, still staged
        let before = lb.counters.get("hits_flash");
        let (_, done2) = lb.steer(staged_flow, done);
        if lb.counters.get("hits_staged") > 0 {
            assert_eq!(lb.counters.get("hits_flash"), before);
            assert!(done2 - done < Ns(5_000));
        }
    }

    #[test]
    fn dram_hits_stay_fast_under_spill() {
        let mut lb = LoadBalancer::new(4, 100, 1 << 16);
        let mut t = Ns::ZERO;
        for f in 0..500u64 {
            let (_, done) = lb.steer(f, t);
            t = done;
        }
        // Flow 499 is hot (just inserted): DRAM-speed steer.
        let (_, done) = lb.steer(499, t);
        assert!(done - t < Ns(1_000), "hot steer took {}", done - t);
    }
}
