//! Helpers for the suites that kill text servers. Included by path
//! (`#[path = "common/cluster.rs"] mod cluster;`) so the suites that
//! only need `common` do not carry them as dead code.

use ir::{DistributedIndex, DistributedResult, SearchHit};

/// Layout-independent ranking projection: oids are shard-local and are
/// re-minted when a document migrates, so byte-identity across layouts
/// and failovers is on `(url, score-bits)` in rank order.
pub fn ranking(hits: &[SearchHit]) -> Vec<(String, u64)> {
    hits.iter()
        .map(|h| (h.url.clone(), h.score.to_bits()))
        .collect()
}

/// Asks `ask` of a cluster whose server `victim` is dead until
/// `lost_servers(threshold)` declares it, and returns how many queries
/// that took. A streak counts failed *consultations* of one copy and a
/// healthy group reads one of its `R + 1` copies per query, so the
/// bound is `threshold × (R + 1)` queries; on the way every answer
/// ranks like `expected`, no group degrades, and no server but the
/// victim is ever declared.
pub fn query_until_declared(
    index: &mut DistributedIndex,
    victim: usize,
    threshold: u32,
    expected: &[(String, u64)],
    mut ask: impl FnMut(&mut DistributedIndex) -> DistributedResult,
) -> usize {
    let bound = threshold as usize * (index.replication() + 1);
    assert!(index.lost_servers(threshold).is_empty(), "declared lost before any query");
    for asked in 1..=bound {
        let result = ask(index);
        assert_eq!(ranking(&result.hits), expected, "query {asked}");
        assert_eq!(result.shards_failed, 0, "query {asked}: a copy of every group survives");
        match index.lost_servers(threshold).as_slice() {
            [] => {}
            [lost] if *lost == victim => return asked,
            other => panic!("query {asked}: declared {other:?}, only server {victim} is dead"),
        }
    }
    panic!("server {victim} was not declared lost within {bound} queries");
}
