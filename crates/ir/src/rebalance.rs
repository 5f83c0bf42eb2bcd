//! Elastic shard rebalancing: split hot servers, merge cold ones.
//!
//! The paper fragments the IR relations on descending idf because "the
//! terms with a high document frequency … are responsible for most of
//! the processing cost": a posting with a low idf touches many
//! documents at query time. The [`Rebalancer`] applies the same
//! insight to *placement* — each routing slot is weighted by the query
//! cost of the documents hashing into it (`Σ tf·df` over their terms,
//! so low-idf/high-df fragments weigh heaviest), and slots are dealt
//! to servers by greedy longest-processing-time scheduling. Hot
//! low-idf fragments therefore spread out across servers instead of
//! piling onto one, which is exactly what makes the scatter-gather
//! critical path (the slowest server) short.
//!
//! The actual migration and cutover live in
//! [`DistributedIndex::apply_layout`]; this module only decides *what*
//! the new layout should be. Both halves are deterministic, so a WAL
//! replay of a logged cutover reproduces the identical cluster.

use crate::distrib::{DistributedIndex, ROUTE_SLOTS};
use crate::error::{Error, Result};

/// What a layout cutover did, as reported by
/// [`DistributedIndex::apply_layout`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RebalanceReport {
    /// Server count before the cutover.
    pub shards_before: usize,
    /// Server count after the cutover.
    pub shards_after: usize,
    /// Documents whose primary changed hosts.
    pub moved_docs: usize,
    /// Routing slots whose assignment changed (all of them when the
    /// server count changed).
    pub moved_slots: usize,
    /// The epoch stamped on every new primary — queries cached before
    /// the cutover can never be served after it.
    pub cutover_epoch: u64,
}

/// Plans idf-aware layouts and drives cutovers.
#[derive(Debug, Clone, Copy, Default)]
pub struct Rebalancer;

impl Rebalancer {
    /// A planner with the default policy.
    pub fn new() -> Self {
        Rebalancer
    }

    /// The query-cost weight of every routing slot: for each document,
    /// `Σ tf·df` over its terms (df taken from the document's own
    /// shard, never less than 1), accumulated into the slot the
    /// document hashes to. A slot full of low-idf (high-df) fragments
    /// — the expensive postings — weighs heaviest.
    pub fn slot_loads(&self, index: &DistributedIndex) -> Result<Vec<u64>> {
        let mut loads = vec![0u64; ROUTE_SLOTS];
        for g in 0..index.servers() {
            let shard = index.shard(g);
            let df = shard.df_map();
            for doc in shard.export_documents()? {
                let weight: u64 = doc
                    .terms
                    .iter()
                    .map(|(stem, tf)| {
                        let df = df.get(stem).copied().unwrap_or(1).max(1) as u64;
                        (*tf).max(0) as u64 * df
                    })
                    .sum();
                loads[DistributedIndex::slot(&doc.url)] += weight.max(1);
            }
        }
        Ok(loads)
    }

    /// Deals the slots to `servers` bins by greedy LPT: heaviest slot
    /// first, each into the currently lightest bin (ties break on the
    /// lowest index on both sides, so the plan is deterministic).
    pub fn plan(&self, loads: &[u64], servers: usize) -> Result<Vec<u16>> {
        if servers == 0 {
            return Err(Error::Config("at least one server required".into()));
        }
        if servers > u16::MAX as usize {
            return Err(Error::Config(format!("{servers} servers exceed the layout width")));
        }
        let mut order: Vec<usize> = (0..loads.len().min(ROUTE_SLOTS)).collect();
        order.sort_by(|&a, &b| loads[b].cmp(&loads[a]).then(a.cmp(&b)));
        let mut bins = vec![0u64; servers];
        let mut layout = vec![0u16; ROUTE_SLOTS];
        for slot in order {
            let target = bins
                .iter()
                .enumerate()
                .min_by(|(ai, al), (bi, bl)| al.cmp(bl).then(ai.cmp(bi)))
                .map(|(i, _)| i)
                .unwrap_or(0);
            layout[slot] = target as u16;
            bins[target] += loads[slot];
        }
        Ok(layout)
    }

    /// Rebalances onto `target_servers`: weighs every slot, plans an
    /// LPT layout and cuts over through
    /// [`DistributedIndex::apply_layout`]. Growing the count splits the
    /// hot servers' slots off; shrinking merges the cold ones in.
    pub fn rebalance(
        &self,
        index: &mut DistributedIndex,
        target_servers: usize,
    ) -> Result<RebalanceReport> {
        let loads = self.slot_loads(index)?;
        let layout = self.plan(&loads, target_servers)?;
        index.apply_layout(target_servers, &layout)
    }

    /// Splits the collection one server wider (hot slots spread out).
    pub fn split(&self, index: &mut DistributedIndex) -> Result<RebalanceReport> {
        self.rebalance(index, index.servers() + 1)
    }

    /// Merges the collection one server narrower.
    pub fn merge(&self, index: &mut DistributedIndex) -> Result<RebalanceReport> {
        let servers = index.servers();
        if servers <= 1 {
            return Err(Error::Config("cannot merge below one server".into()));
        }
        self.rebalance(index, servers - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::ScoreModel;

    fn build(servers: usize, n: usize, replicas: usize) -> DistributedIndex {
        let mut d =
            DistributedIndex::with_replication(servers, ScoreModel::TfIdf, replicas).unwrap();
        for i in 0..n {
            let mut body = format!("tennis report number{i}");
            if i % 4 == 0 {
                body.push_str(" winner champion");
            }
            d.index_document(&format!("http://site/{i}.html"), &body)
                .unwrap();
        }
        d.commit().unwrap();
        d
    }

    #[test]
    fn lpt_plan_balances_loads() {
        let r = Rebalancer::new();
        // One pathologically hot slot plus uniform background noise.
        let mut loads = vec![10u64; ROUTE_SLOTS];
        loads[7] = 500;
        let layout = r.plan(&loads, 4).unwrap();
        let mut bins = vec![0u64; 4];
        for (slot, &server) in layout.iter().enumerate() {
            bins[server as usize] += loads[slot];
        }
        let max = *bins.iter().max().unwrap();
        let min = *bins.iter().min().unwrap();
        // The hot slot's server gets little else; everything stays
        // within one background-slot of balance at the bottom.
        assert!(max - min <= 500, "{bins:?}");
        assert!(bins.iter().all(|&b| b >= 100), "{bins:?}");
    }

    #[test]
    fn plan_is_deterministic() {
        let r = Rebalancer::new();
        let loads: Vec<u64> = (0..ROUTE_SLOTS as u64).map(|s| s * 17 % 97).collect();
        assert_eq!(r.plan(&loads, 3).unwrap(), r.plan(&loads, 3).unwrap());
    }

    #[test]
    fn heavy_df_terms_dominate_slot_weights() {
        // Two corpora of equal document count: one where every doc
        // shares one common (low-idf) term many times, one with all
        // rare terms. The common-term corpus must weigh heavier.
        let r = Rebalancer::new();
        let mut common = DistributedIndex::new(1, ScoreModel::TfIdf).unwrap();
        let mut rare = DistributedIndex::new(1, ScoreModel::TfIdf).unwrap();
        for i in 0..20 {
            common
                .index_document(&format!("c{i}"), "open open open open")
                .unwrap();
            rare.index_document(&format!("c{i}"), &format!("unique{i}"))
                .unwrap();
        }
        common.commit().unwrap();
        rare.commit().unwrap();
        let heavy: u64 = r.slot_loads(&common).unwrap().iter().sum();
        let light: u64 = r.slot_loads(&rare).unwrap().iter().sum();
        assert!(heavy > light * 10, "{heavy} vs {light}");
    }

    #[test]
    fn split_and_merge_preserve_the_ranking_exactly() {
        // Oids are shard-local and re-minted on migration; layout
        // invariance is on the `(url, score-bits)` ranking.
        fn ranking(hits: &[ir_hits::SearchHit]) -> Vec<(String, u64)> {
            hits.iter()
                .map(|h| (h.url.clone(), h.score.to_bits()))
                .collect()
        }
        use crate::index as ir_hits;

        let mut d = build(2, 120, 1);
        let before = d.query_serial("winner tennis", 12);
        let r = Rebalancer::new();
        let grown = r.split(&mut d).unwrap();
        assert_eq!(grown.shards_after, 3);
        assert_eq!(
            ranking(&d.query_serial("winner tennis", 12).hits),
            ranking(&before.hits)
        );
        let shrunk = r.merge(&mut d).unwrap();
        assert_eq!(shrunk.shards_after, 2);
        assert_eq!(
            ranking(&d.query_serial("winner tennis", 12).hits),
            ranking(&before.hits)
        );
    }

    #[test]
    fn rebalance_spreads_documents_over_new_servers() {
        let mut d = build(1, 200, 0);
        let r = Rebalancer::new();
        r.rebalance(&mut d, 4).unwrap();
        let sizes = d.shard_sizes();
        assert_eq!(sizes.len(), 4);
        assert_eq!(sizes.iter().sum::<usize>(), 200);
        assert!(sizes.iter().all(|&s| s > 10), "lopsided: {sizes:?}");
    }

    #[test]
    fn merge_below_one_server_is_rejected() {
        let mut d = build(1, 10, 0);
        assert!(Rebalancer::new().merge(&mut d).is_err());
    }
}
