//! Per-document distribution over several database servers.
//!
//! "Next to this horizontal fragmentation on idf we distribute the TF
//! (and corresponding IDF tuples) over several database servers, by
//! assigning parts on a per-document basis to the available hosts. …
//! almost perfect shared nothing parallelism which facilitates (almost)
//! unlimited scalability."
//!
//! Query protocol, as in the paper's "use of the optimized full text
//! retrieval support": the central node stems/stops the query, pushes
//! the **top-N request to the distributed nodes** along with the term
//! identification, "each distributed node returns a result of the form
//! `RES(doc-oid, rank)`", and "the central node merges the top-10
//! rankings into a large ranking".
//!
//! Each logical server is a full [`TextIndex`] over its slice of the
//! collection (shared-nothing: no cross-server state). There is one
//! scatter-gather, [`DistributedIndex::search`], which runs one scoped
//! thread per consulted server copy; reads see the state the last
//! [`DistributedIndex::commit`] published and never publish themselves.
//!
//! # Routing
//!
//! URLs hash (FNV-1a) onto a fixed ring of [`ROUTE_SLOTS`] slots; a
//! **layout table** maps each slot to its primary server. The default
//! layout deals slots round-robin, but the [`Rebalancer`] may install
//! any table — splitting a hot server's slots off or merging cold ones
//! — without changing which slot any URL hashes to. Routing is thus
//! deterministic for a fixed layout and survives restore and rebalance.
//!
//! # Replication and reads
//!
//! [`DistributedIndex::with_replication`] gives every shard group `R`
//! replicas placed on the *next* `R` distinct virtual servers (so a
//! whole-server loss never takes out every copy of a group). Writes fan
//! out to all copies. **The read rule:** each query sends each group's
//! read to **one** copy, picked by a per-group cursor that rotates over
//! all `R + 1` copies — replicas are read capacity, and every server
//! gets one top-N request per query, as in the paper. The cursor keeps
//! advancing past copies marked unhealthy: the read is the failure
//! probe. **The rescue/hedge rule:** a selected copy that answers with
//! an error is rescued at once from the group's remaining copies, and a
//! selected copy that has not answered by **half** the collection
//! window is hedged the same way, so a dead or hung copy fails over
//! inside the window before ever degrading the merge. The answer taken
//! is the selected copy's, or else the lowest-numbered live copy's;
//! [`DistributedResult::failovers`] counts the groups rescued that way.
//! Replicas mirror their primaries byte for byte and the merge tiebreak
//! is on URL, so which copy served is invisible in the ranking
//! ([`DistributedResult::served_by`] reports it anyway). Without
//! replicas the selected copy is the primary and no hedge is armed.
//!
//! # Loss declaration and re-replication
//!
//! Every consulted copy carries a consecutive-failure streak; a virtual
//! server **all** of whose hosted copies have failed at least
//! `threshold` consecutive consultations is a loss candidate
//! ([`DistributedIndex::lost_servers`]). A healthy group consults one
//! of its `R + 1` copies per query, so a dead server is declared within
//! `threshold × (R + 1)` queries, and `R + 1` clean queries clear every
//! streak. Losing a machine permanently must not leave its groups one
//! fault from degradation until the next rebalance:
//! [`DistributedIndex::begin_rereplication`] stages a rebuild of every
//! copy the dead server hosted **onto surviving virtual servers**,
//! sourced from each group's lowest surviving copy.
//! The [`RereplicationJob`] is driven off to the side one object at a
//! time (each step consults the fault plan at
//! `rereplicate:<lost>:<group>`); committing swaps the rebuilt copies
//! and their new placement in under an epoch guard, while dropping the
//! job aborts with the cluster byte-identical. Placement is derived
//! state: snapshots and restores reset it to the default ring, exactly
//! like the replicas themselves.
//!
//! # Degraded mode
//!
//! Shared-nothing distribution also means shared-nothing *failure*: a
//! server can crash, hang or answer garbage without taking the others
//! down, so the central node must not either. [`search`]
//! isolates every server — panics are caught, answers are collected
//! with a deadline — and merges whatever survived. The
//! [`DistributedResult`] reports how many groups answered
//! ([`shards_ok`](DistributedResult::shards_ok) /
//! [`shards_failed`](DistributedResult::shards_failed)) and a quality
//! estimate in the style of the fragmentation cutoff model: the
//! fraction of the collection's documents the surviving groups cover.
//! Only when *every* group fails does the query error
//! ([`Error::AllShardsFailed`]).
//!
//! Failures are injectable through a [`faults::FaultPlan`]: primaries
//! are consulted under `shard:<group>`, replica copies under
//! `replica:<host>:<group>` (host = the virtual server the copy lives
//! on), and migration streams during a rebalance under
//! `migrate:shard:<group>`. [`fault_labels_for_server`] enumerates
//! every label a whole-server kill must cover.
//!
//! [`search`]: DistributedIndex::search
//! [`Rebalancer`]: crate::rebalance::Rebalancer
//! [`fault_labels_for_server`]: DistributedIndex::fault_labels_for_server

use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

use faults::{Budget, FaultAction, FaultPlan};
use monet::wal::WalHandle;

use crate::error::{Error, Result};
use crate::index::{DocExport, QueryWork, ScoreModel, SearchHit, TextIndex};
use crate::rebalance::RebalanceReport;
use crate::text::tokenize_and_stem;

/// Number of routing slots on the hash ring. URLs hash to a slot once
/// and forever; layouts only remap slots to servers. 64 slots keep the
/// table tiny while still letting the rebalancer move load in ~1.5%
/// steps.
pub const ROUTE_SLOTS: usize = 64;

/// WAL op tag (text store): a layout cutover
/// (`fields = [[shards u32][nslots u16][slot entries u16 × nslots]]`).
/// Replaying it re-derives the whole migration deterministically.
pub const WAL_OP_LAYOUT: u8 = 1;

/// WAL op tag (text store): a control-plane audit record — a committed
/// re-replication decision
/// (`fields = [[lost u32][units u32][(group u32)(copy u32)(host u32) × units]]`).
/// Replica placement is derived state rebuilt on restore, so replaying
/// the record is a deliberate no-op; it exists so every control-plane
/// decision is on the durable record.
pub const WAL_OP_CONTROL: u8 = 2;

/// Snapshot envelope magic for one shard of a consistent cut.
const SHARD_MAGIC: &[u8; 4] = b"DSHD";
/// Envelope format version.
const SHARD_VERSION: u8 = 1;
/// Fixed envelope header size (see [`DistributedIndex::snapshot_shards`]).
const SHARD_HEADER: usize = 4 + 1 + 4 + 4 + 4 + 8 + 8 + 2 + 2 * ROUTE_SLOTS;

/// A distributed text index: N shared-nothing logical server groups,
/// each a primary [`TextIndex`] plus `R` replicas on distinct hosts.
pub struct DistributedIndex {
    /// Primary per group; the group index is the primary's host.
    shards: Vec<TextIndex>,
    /// `replicas[g][c]` is copy `c+1` of group `g`, living on virtual
    /// host `(g + c + 1) % servers`.
    replicas: Vec<Vec<TextIndex>>,
    replication: usize,
    /// Slot → primary server table ([`ROUTE_SLOTS`] entries).
    layout: Vec<u16>,
    faults: Option<Arc<FaultPlan>>,
    shard_deadline: Duration,
    hang: Duration,
    obs: obs::Obs,
    metrics: Option<IrMetrics>,
    /// The shared log handle (also held by every primary); the layout
    /// record of a rebalance goes through it. `None` during replay.
    wal: Option<WalHandle>,
    /// Every copy's host, health and failure streak, and each group's
    /// read cursor.
    placement: Placement,
    /// Epoch stamped on the primaries by the last layout cutover.
    last_cutover_epoch: u64,
}

/// Where every copy lives and how its reads have gone, indexed
/// `[group][copy]` with copy 0 the primary. Derived state: restores,
/// re-provisioned replication and layout cutovers reset it to
/// [`Placement::default_ring`].
struct Placement {
    /// Virtual host of each copy. Re-replication relocates a dead
    /// host's copies onto survivors.
    host: Vec<Vec<usize>>,
    /// Did the copy answer its most recent consultation? Diagnostic
    /// only — copies are re-consulted regardless.
    healthy: Vec<Vec<bool>>,
    /// Consecutive failed consultations. Reset to zero by a successful
    /// answer (or a re-replication replacing the copy); feeds loss
    /// declaration.
    fail_streak: Vec<Vec<u32>>,
    /// The copy each group's next read goes to.
    cursor: Vec<usize>,
}

impl Placement {
    /// Copy `c` of group `g` on host `(g + c) % servers` — the primary
    /// at home, the replicas on the next `R` distinct hosts — all
    /// healthy, every cursor on the primary.
    fn default_ring(servers: usize, replication: usize) -> Placement {
        let copies = replication + 1;
        Placement {
            host: (0..servers)
                .map(|g| (0..copies).map(|c| (g + c) % servers).collect())
                .collect(),
            healthy: vec![vec![true; copies]; servers],
            fail_streak: vec![vec![0; copies]; servers],
            cursor: vec![0; servers],
        }
    }
}

/// Metric handles for the scatter-gather layer. The scatter-gather and
/// the serial reference both report through [`record_result`].
///
/// [`record_result`]: DistributedIndex::record_result
#[derive(Debug, Clone)]
struct IrMetrics {
    queries: obs::Counter,
    shards_ok: obs::Counter,
    shards_failed: obs::Counter,
    degraded: obs::Counter,
    hits: obs::Counter,
    shard_seconds: obs::Histogram,
    /// Per-query critical path (slowest shard in a parallel merge).
    /// The operator loop reconstructs windowed p99 from this family's
    /// bucket deltas to drive the control policy.
    critical_path_seconds: obs::Histogram,
    failovers: obs::Counter,
    replicas_healthy: obs::Gauge,
    rebalance_moves: obs::Counter,
    rebalance_cutover: obs::Gauge,
    rereplication_objects: obs::Counter,
    /// `ir_read_route_total{replica="<c>"}`, one handle per copy index.
    read_route: Vec<obs::Counter>,
}

impl IrMetrics {
    fn register(registry: &obs::Registry, copies: usize) -> IrMetrics {
        // Seed the labeled control-plane family so it renders (at zero)
        // on any obs-enabled engine, before the first policy decision.
        registry.labeled_counter(
            "ir_control_decisions_total",
            "Control-plane policy decisions, by action",
            "action",
            "none",
        );
        IrMetrics {
            queries: registry.counter(
                "ir_queries_total",
                "Distributed text queries evaluated (all paths)",
            ),
            shards_ok: registry.counter(
                "ir_shards_ok_total",
                "Shard answers that made it into a merge",
            ),
            shards_failed: registry.counter(
                "ir_shards_failed_total",
                "Shard groups lost to errors, hangs or panics (no copy answered)",
            ),
            degraded: registry.counter(
                "ir_degraded_queries_total",
                "Distributed queries merged with at least one group missing",
            ),
            hits: registry.counter("ir_hits_total", "Hits returned by master merges"),
            shard_seconds: registry.histogram(
                "ir_shard_seconds",
                "Per-shard answer latency",
                obs::DEFAULT_TIME_BUCKETS,
            ),
            critical_path_seconds: registry.histogram(
                "ir_critical_path_seconds",
                "Slowest-shard latency per parallel query (the merge's critical path)",
                obs::DEFAULT_TIME_BUCKETS,
            ),
            failovers: registry.counter(
                "ir_failovers_total",
                "Shard groups answered by another copy after the selected one failed",
            ),
            replicas_healthy: registry.gauge(
                "ir_replicas_healthy",
                "Copies (primaries + replicas) that answered their most recent consultation",
            ),
            rebalance_moves: registry.counter(
                "ir_rebalance_moves_total",
                "Documents migrated between servers by layout cutovers",
            ),
            rebalance_cutover: registry.gauge(
                "ir_rebalance_cutover_epoch",
                "Epoch stamped by the most recent layout cutover (0 = never)",
            ),
            rereplication_objects: registry.counter(
                "ir_rereplication_objects_total",
                "Replica copies rebuilt onto survivors by background re-replication",
            ),
            read_route: (0..copies)
                .map(|c| {
                    registry.labeled_counter(
                        "ir_read_route_total",
                        "Group reads served, by copy index (0 = primary)",
                        "replica",
                        &c.to_string(),
                    )
                })
                .collect(),
        }
    }
}

/// Health of one shard group, in the style of
/// `Supervisor::detector_health`: a point-in-time snapshot of the last
/// query's copy liveness plus the group's durable identity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardHealth {
    /// Group index (== the primary's virtual host).
    pub shard: usize,
    /// Documents the group holds.
    pub documents: usize,
    /// Configured replicas per group.
    pub replicas: usize,
    /// Copies (out of `1 + replicas`) that answered their most recent
    /// consultation (a healthy group consults one copy per query);
    /// `1 + replicas` when no query ran yet.
    pub healthy_copies: usize,
    /// Whether the primary answered its most recent consultation.
    pub primary_healthy: bool,
    /// The primary's mutation epoch.
    pub epoch: u64,
}

/// Outcome of a distributed query.
#[derive(Debug, Clone)]
pub struct DistributedResult {
    /// The merged master ranking (of the surviving servers).
    pub hits: Vec<SearchHit>,
    /// Per-server work counters (for the load-balance experiment E5).
    /// A failed server contributes [`QueryWork::default`].
    pub per_shard_work: Vec<QueryWork>,
    /// Groups whose local ranking made it into the merge.
    pub shards_ok: usize,
    /// Groups where *no* copy answered in time.
    pub shards_failed: usize,
    /// Which groups failed entirely (indices into the shard list).
    pub failed_shards: Vec<usize>,
    /// Groups answered by another copy after their selected copy
    /// failed or hung. These count toward
    /// [`shards_ok`](DistributedResult::shards_ok): a failover is
    /// invisible in the ranking, only the accounting shows it.
    pub failovers: usize,
    /// Estimated answer quality, as in the fragmentation cutoff model:
    /// the fraction of the collection's documents held by surviving
    /// servers. `1.0` means the ranking is complete.
    pub quality: f64,
    /// Wall-clock time each group's chosen copy took to answer (shard
    /// order). A group that never answered reports the full collection
    /// window it was given; the serial reference reports the per-shard
    /// measurement. The brownout controller consumes these to spot
    /// slow-but-alive servers before they start missing deadlines.
    pub shard_elapsed: Vec<Duration>,
    /// Which copy (0 = primary) served each group's answer, in shard
    /// order; `None` marks a group no copy answered for. The serial
    /// reference always reads the primary. Like `shard_elapsed`, this is excluded
    /// from equality: routing is an execution detail, never part of the
    /// answer.
    pub served_by: Vec<Option<usize>>,
}

/// Equality ignores `shard_elapsed` and `served_by`: two results are
/// equal when they rank the same answer with the same degradation
/// accounting. Timing and routing are diagnostics, never a semantic
/// part of the answer — byte-identity tests across serial/parallel
/// evaluation rely on this.
impl PartialEq for DistributedResult {
    fn eq(&self, other: &Self) -> bool {
        self.hits == other.hits
            && self.per_shard_work == other.per_shard_work
            && self.shards_ok == other.shards_ok
            && self.shards_failed == other.shards_failed
            && self.failed_shards == other.failed_shards
            && self.failovers == other.failovers
            && self.quality == other.quality
    }
}

impl DistributedResult {
    /// Whether any server group dropped out of this answer.
    pub fn is_degraded(&self) -> bool {
        self.shards_failed > 0
    }

    /// The slowest server's elapsed time — the scatter-gather critical
    /// path.
    pub fn slowest_shard(&self) -> Duration {
        self.shard_elapsed.iter().copied().max().unwrap_or_default()
    }
}

/// What one server thread reports back to the central node.
type ShardAnswer = std::result::Result<(Vec<SearchHit>, QueryWork), String>;

/// The FNV-1a slot a URL hashes to — independent of the layout, so it
/// never changes across restore or rebalance.
fn slot_of(url: &str) -> usize {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for b in url.as_bytes() {
        hash ^= u64::from(*b);
        hash = hash.wrapping_mul(0x1000_0000_01b3);
    }
    (hash % ROUTE_SLOTS as u64) as usize
}

/// The round-robin default layout for `servers` servers.
fn default_layout(servers: usize) -> Vec<u16> {
    (0..ROUTE_SLOTS).map(|s| (s % servers) as u16).collect()
}

fn validate_layout(layout: &[u16], servers: usize) -> Result<()> {
    if servers == 0 {
        return Err(Error::Config("at least one server required".into()));
    }
    if layout.len() != ROUTE_SLOTS {
        return Err(Error::Config(format!(
            "layout must map all {ROUTE_SLOTS} slots, got {}",
            layout.len()
        )));
    }
    if let Some(&bad) = layout.iter().find(|&&s| usize::from(s) >= servers) {
        return Err(Error::Config(format!(
            "layout routes a slot to server {bad}, but only {servers} exist"
        )));
    }
    Ok(())
}

fn validate_replication(replication: usize, servers: usize) -> Result<()> {
    if replication >= servers && replication > 0 {
        return Err(Error::Config(format!(
            "{replication} replicas need {} servers, got {servers}",
            replication + 1
        )));
    }
    Ok(())
}

impl DistributedIndex {
    /// Creates `servers` empty logical servers (no replication).
    pub fn new(servers: usize, model: ScoreModel) -> Result<Self> {
        Self::with_replication(servers, model, 0)
    }

    /// Creates `servers` empty logical servers with `replication`
    /// replicas per shard group. Each group's copies live on distinct
    /// virtual hosts, so `replication` must stay below `servers`.
    pub fn with_replication(
        servers: usize,
        model: ScoreModel,
        replication: usize,
    ) -> Result<Self> {
        if servers == 0 {
            return Err(Error::Config("at least one server required".into()));
        }
        validate_replication(replication, servers)?;
        Ok(Self::assemble(
            (0..servers).map(|_| TextIndex::new(model)).collect(),
            (0..servers)
                .map(|_| (0..replication).map(|_| TextIndex::new(model)).collect())
                .collect(),
            replication,
            default_layout(servers),
        ))
    }

    /// A quiet cluster around `shards` and their `replication` replicas
    /// each: default placement, default deadlines, no fault plan, log
    /// or observability attached.
    fn assemble(
        shards: Vec<TextIndex>,
        replicas: Vec<Vec<TextIndex>>,
        replication: usize,
        layout: Vec<u16>,
    ) -> DistributedIndex {
        DistributedIndex {
            placement: Placement::default_ring(shards.len(), replication),
            shards,
            replicas,
            replication,
            layout,
            faults: None,
            shard_deadline: Duration::from_millis(250),
            hang: Duration::from_millis(500),
            obs: obs::Obs::disabled(),
            metrics: None,
            wal: None,
            last_cutover_epoch: 0,
        }
    }

    /// Number of logical servers (shard groups).
    pub fn servers(&self) -> usize {
        self.shards.len()
    }

    /// Replicas per shard group.
    pub fn replication(&self) -> usize {
        self.replication
    }

    /// Group `g`'s primary index (read-only — the rebalancer weighs
    /// its relations without mutating them).
    ///
    /// # Panics
    /// Panics if `group >= servers()`.
    pub fn shard(&self, group: usize) -> &TextIndex {
        &self.shards[group]
    }

    /// The slot → primary-server table currently routing queries.
    pub fn layout(&self) -> &[u16] {
        &self.layout
    }

    /// Epoch stamped by the most recent layout cutover (0 = never).
    pub fn last_cutover_epoch(&self) -> u64 {
        self.last_cutover_epoch
    }

    /// The virtual hosts holding group `g`'s replicas — by default the
    /// next `replication` servers after the primary, wrapping; after a
    /// re-replication, wherever the rebuilt copies landed. Always
    /// distinct from each other.
    pub fn replica_servers(&self, group: usize) -> Vec<usize> {
        self.placement.host[group][1..].to_vec()
    }

    /// The fault-plan label copy `c` (0 = primary) of group `g` is
    /// consulted under. A primary on its home host keeps the historic
    /// `shard:<g>` label; a primary relocated by re-replication is
    /// consulted under `shard:<host>:<g>`, so a stale kill script for
    /// the dead host stops matching and a whole-machine kill of the
    /// *new* host covers it. Replicas are always host-qualified.
    fn copy_label(&self, group: usize, copy: usize) -> String {
        let host = self.placement.host[group][copy];
        if copy > 0 {
            format!("replica:{host}:{group}")
        } else if host == group {
            format!("shard:{group}")
        } else {
            format!("shard:{host}:{group}")
        }
    }

    /// Every fault-plan label that must fire to kill virtual server `s`
    /// entirely: every primary hosted there (`shard:<s>` — or
    /// `shard:<s>:<g>` for a relocated one) plus every replica copy
    /// hosted there (`replica:<s>:<g>`). Chaos tests use this to model
    /// a whole-machine loss rather than a single-copy loss.
    pub fn fault_labels_for_server(&self, server: usize) -> Vec<String> {
        let mut labels = Vec::new();
        for (g, hosts) in self.placement.host.iter().enumerate() {
            for (c, &host) in hosts.iter().enumerate() {
                if host == server {
                    labels.push(self.copy_label(g, c));
                }
            }
        }
        labels
    }

    /// Virtual servers that look permanently lost: they host at least
    /// one copy, and **every** copy they host has failed at least
    /// `threshold` consecutive consultations. A copy that merely wasn't
    /// consulted (a healthy group reads one copy per query) keeps its
    /// streak, so a quiet server is never declared lost and a dead one
    /// is declared within `threshold × (R + 1)` queries.
    /// `threshold == 0` declares nothing.
    pub fn lost_servers(&self, threshold: u32) -> Vec<usize> {
        if threshold == 0 {
            return Vec::new();
        }
        let n = self.shards.len();
        let mut hosted = vec![0usize; n];
        let mut struck = vec![0usize; n];
        for (hosts, streaks) in self.placement.host.iter().zip(&self.placement.fail_streak) {
            for (&host, &streak) in hosts.iter().zip(streaks) {
                hosted[host] += 1;
                if streak >= threshold {
                    struck[host] += 1;
                }
            }
        }
        (0..n)
            .filter(|&s| hosted[s] > 0 && struck[s] == hosted[s])
            .collect()
    }

    /// Records one query's critical path (slowest shard) into the
    /// `ir_critical_path_seconds` histogram, from which the operator
    /// loop reconstructs the windowed p99 of its latency trigger.
    fn note_critical_path(&self, path: Duration) {
        if let Some(m) = &self.metrics {
            m.critical_path_seconds.observe(path.as_secs_f64());
        }
    }

    /// Re-provisions replication at `replication` copies per group,
    /// rebuilding every replica from its primary's snapshot. Used when
    /// a restored checkpoint carries a different replication factor
    /// than the configuration asks for.
    pub fn set_replication(&mut self, replication: usize) -> Result<()> {
        validate_replication(replication, self.shards.len())?;
        let mut replicas = Vec::with_capacity(self.shards.len());
        for primary in &mut self.shards {
            let epoch = primary.epoch();
            let snap = primary.snapshot()?;
            let mut copies = Vec::with_capacity(replication);
            for _ in 0..replication {
                let mut copy = TextIndex::restore(&snap)?;
                copy.set_epoch(epoch);
                copies.push(copy);
            }
            replicas.push(copies);
        }
        self.replicas = replicas;
        self.replication = replication;
        self.reset_placement();
        Ok(())
    }

    /// Back to the default ring for the current cluster shape.
    fn reset_placement(&mut self) {
        self.placement = Placement::default_ring(self.shards.len(), self.replication);
        self.register_metrics();
    }

    /// Fetches the metric handles (one `ir_read_route_total` series per
    /// copy index) and brings the health gauge up to date.
    fn register_metrics(&mut self) {
        self.metrics = self
            .obs
            .registry()
            .map(|registry| IrMetrics::register(registry, self.replication + 1));
        self.refresh_health_gauge();
    }

    /// Connects the index to an observability handle: every evaluation
    /// path feeds the `ir_*` metrics and, while a trace is collecting,
    /// attaches one child span per shard. A disabled handle disconnects.
    pub fn set_obs(&mut self, o: &obs::Obs) {
        self.obs = o.clone();
        self.register_metrics();
    }

    /// Point-in-time health of every shard group — the distribution
    /// layer's analogue of `Supervisor::detector_health`.
    pub fn shard_health(&self) -> Vec<ShardHealth> {
        self.shards
            .iter()
            .enumerate()
            .map(|(g, primary)| {
                let copies = &self.placement.healthy[g];
                ShardHealth {
                    shard: g,
                    documents: primary.document_count(),
                    replicas: self.replication,
                    healthy_copies: copies.iter().filter(|h| **h).count(),
                    primary_healthy: copies.first().copied().unwrap_or(true),
                    epoch: primary.epoch(),
                }
            })
            .collect()
    }

    fn refresh_health_gauge(&self) {
        if let Some(m) = &self.metrics {
            let healthy: usize = self
                .placement
                .healthy
                .iter()
                .map(|g| g.iter().filter(|h| **h).count())
                .sum();
            m.replicas_healthy.set(healthy as i64);
        }
    }

    /// Reports one merged result to the metrics registry and, when a
    /// trace is collecting, as per-shard child spans of the open span.
    /// Shared by the scatter-gather and the serial reference.
    fn record_result(&self, result: &DistributedResult) {
        if let Some(m) = &self.metrics {
            m.queries.inc();
            m.shards_ok.add(result.shards_ok as u64);
            m.shards_failed.add(result.shards_failed as u64);
            m.hits.add(result.hits.len() as u64);
            m.failovers.add(result.failovers as u64);
            if result.is_degraded() {
                m.degraded.inc();
            }
            for elapsed in &result.shard_elapsed {
                m.shard_seconds
                    .observe_ns(u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX));
            }
            for &copy in result.served_by.iter().flatten() {
                m.read_route[copy].inc();
            }
        }
        self.refresh_health_gauge();
        for (i, elapsed) in result.shard_elapsed.iter().enumerate() {
            let failed = result.failed_shards.contains(&i);
            self.obs.record_child(
                format!("shard-{i}"),
                u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX),
                result.per_shard_work.get(i).map_or(0, |w| w.tuples as u64),
                if failed {
                    obs::Outcome::Degraded
                } else {
                    obs::Outcome::Ok
                },
            );
        }
    }

    /// Attaches a fault plan consulted before each server copy answers
    /// a query (labels `shard:<g>` / `replica:<host>:<g>`) and
    /// before each migration stream of a rebalance
    /// (`migrate:shard:<g>`).
    pub fn set_fault_plan(&mut self, plan: Arc<FaultPlan>) {
        self.faults = Some(plan);
    }

    /// The attached fault plan, if any.
    pub fn fault_plan(&self) -> Option<&Arc<FaultPlan>> {
        self.faults.as_ref()
    }

    /// How long the central node waits for server answers before
    /// declaring the stragglers failed (default 250ms).
    pub fn set_shard_deadline(&mut self, deadline: Duration) {
        self.shard_deadline = deadline;
    }

    /// How long an injected [`FaultAction::Hang`] stalls a server
    /// (default 500ms — past the default deadline, but bounded so the
    /// query thread pool drains).
    pub fn set_hang_duration(&mut self, hang: Duration) {
        self.hang = hang;
    }

    /// Routes a document to its primary server (stable per-document
    /// assignment) and indexes it on every copy of that group.
    pub fn index_document(&mut self, url: &str, text: &str) -> Result<()> {
        self.index_documents([(url, text)])
    }

    /// Bulk entry point: routes a batch of `(url, text)` documents and
    /// indexes each group's slice, preserving input order within every
    /// group (routing is order-independent, so the stored state is
    /// identical to repeated [`index_document`] calls).
    ///
    /// All or nothing on validation: a URL already held by any copy of
    /// its group, or repeated within the batch, rejects the batch before
    /// the first log record or mutation. Every primary then logs its
    /// slice's `(url, text)` records, in group order; replicas never
    /// log. Only then does each group with documents apply its slice,
    /// on a thread of its own: each document is tokenised, stemmed and
    /// counted once, and every copy of the group appends the same rows.
    /// If a group's log write fails, the groups logged before it are
    /// still applied, so the relations never lag or lead the log.
    ///
    /// [`index_document`]: DistributedIndex::index_document
    pub fn index_documents<'a, I>(&mut self, docs: I) -> Result<()>
    where
        I: IntoIterator<Item = (&'a str, &'a str)>,
    {
        let mut per_group: Vec<Vec<(&str, &str)>> = vec![Vec::new(); self.shards.len()];
        let mut seen = HashSet::new();
        for (url, text) in docs {
            let group = self.route(url);
            let held = self.shards[group].contains_url(url)
                || self.replicas[group].iter().any(|copy| copy.contains_url(url));
            if held || !seen.insert(url) {
                return Err(Error::Document(format!("`{url}` already indexed")));
            }
            per_group[group].push((url, text));
        }
        let mut logged = Ok(());
        let mut jobs = Vec::with_capacity(per_group.len());
        for (group, batch) in per_group.iter().enumerate() {
            if logged.is_ok() {
                logged = self.shards[group].log_documents(batch);
            }
            jobs.push((logged.is_ok() && !batch.is_empty()).then_some(batch));
        }
        self.for_each_group(jobs, |primary, replicas, batch| {
            for (url, text) in batch {
                let doc = DocExport::analyse(url, text);
                primary.insert(&doc)?;
                for copy in replicas.iter_mut() {
                    copy.insert(&doc)?;
                }
            }
            Ok(())
        })?;
        logged
    }

    /// Runs `work` on the copies of every group whose job is `Some`:
    /// the primary, then its replicas. Each such group gets a scoped
    /// thread of its own, or the caller's thread when it is the only
    /// one. Copies share no catalog, pool or log handle that `work`
    /// mutates, so the stored state does not depend on scheduling.
    /// Returns the first error in group order.
    fn for_each_group<J: Send>(
        &mut self,
        jobs: Vec<Option<J>>,
        work: impl Fn(&mut TextIndex, &mut [TextIndex], J) -> Result<()> + Sync,
    ) -> Result<()> {
        let groups: Vec<_> = self
            .shards
            .iter_mut()
            .zip(&mut self.replicas)
            .zip(jobs)
            .filter_map(|((primary, replicas), job)| Some((primary, replicas, job?)))
            .collect();
        if groups.len() <= 1 {
            return groups
                .into_iter()
                .try_for_each(|(primary, replicas, job)| work(primary, replicas, job));
        }
        let work = &work;
        std::thread::scope(|scope| {
            let threads: Vec<_> = groups
                .into_iter()
                .map(|(primary, replicas, job)| scope.spawn(move || work(primary, replicas, job)))
                .collect();
            let results: Vec<Result<()>> = threads
                .into_iter()
                .map(|t| t.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
                .collect();
            results.into_iter().collect()
        })
    }

    /// A counter that advances whenever any server's index mutates (via
    /// this distributed facade) or global IDF is redistributed. Query
    /// results are safe to cache while the epoch holds still. Replicas
    /// mirror their primary and are not counted separately.
    pub fn epoch(&self) -> u64 {
        self.shards.iter().map(TextIndex::epoch).sum()
    }

    /// Per-shard epochs, in shard order — the durable manifest records
    /// them individually so a reopened index resumes each counter.
    pub fn shard_epochs(&self) -> Vec<u64> {
        self.shards.iter().map(TextIndex::epoch).collect()
    }

    /// Resumes per-shard epochs from persisted values (shard order).
    /// Replicas take their primary's epoch — they are the same state.
    pub fn set_shard_epochs(&mut self, epochs: &[u64]) {
        for (group, &epoch) in epochs.iter().enumerate() {
            if let Some(shard) = self.shards.get_mut(group) {
                shard.set_epoch(epoch);
            }
            if let Some(copies) = self.replicas.get_mut(group) {
                for copy in copies {
                    copy.set_epoch(epoch);
                }
            }
        }
    }

    /// Attaches a write-ahead-log handle to every *primary*. All
    /// primaries share one handle (and so one store tag): replay
    /// re-routes each logged document through the layout table, landing
    /// it on the same group it originally went to. Replicas never log —
    /// they are derived state, rebuilt from the same records. Layout
    /// cutovers are logged through the retained handle.
    pub fn set_wal(&mut self, wal: WalHandle) {
        for shard in &mut self.shards {
            shard.set_wal(wal.clone());
        }
        self.wal = Some(wal);
    }

    /// Detaches the log from every server (used during replay, so
    /// replayed documents and layout cutovers are not re-logged).
    pub fn detach_wal(&mut self) {
        for shard in &mut self.shards {
            shard.detach_wal();
        }
        self.wal = None;
    }

    /// Whether any server already indexed `url`.
    pub fn contains_url(&self, url: &str) -> bool {
        self.shards[self.route(url)].contains_url(url)
    }

    /// Serialises every server group as one **consistent cut**: commits
    /// first (so IDF state is uniform), then wraps each primary's
    /// snapshot in an envelope stamping the shard index, shard count,
    /// replication factor, per-shard epoch, the collection-wide cut
    /// epoch and the layout table. [`Self::restore_shards`] refuses any
    /// vector whose envelopes disagree — a skewed restore (snapshots
    /// from different cuts, or a partial set) is a typed error, never a
    /// silently inconsistent index.
    pub fn snapshot_shards(&mut self) -> Result<Vec<Vec<u8>>> {
        self.commit()?;
        let cut = self.epoch();
        let n = self.shards.len();
        let mut out = Vec::with_capacity(n);
        for g in 0..n {
            let epoch = self.shards[g].epoch();
            let payload = self.shards[g].snapshot()?;
            let mut bytes = Vec::with_capacity(SHARD_HEADER + payload.len());
            bytes.extend_from_slice(SHARD_MAGIC);
            bytes.push(SHARD_VERSION);
            bytes.extend_from_slice(&(g as u32).to_le_bytes());
            bytes.extend_from_slice(&(n as u32).to_le_bytes());
            bytes.extend_from_slice(&(self.replication as u32).to_le_bytes());
            bytes.extend_from_slice(&epoch.to_le_bytes());
            bytes.extend_from_slice(&cut.to_le_bytes());
            bytes.extend_from_slice(&(ROUTE_SLOTS as u16).to_le_bytes());
            for &slot in &self.layout {
                bytes.extend_from_slice(&slot.to_le_bytes());
            }
            bytes.extend_from_slice(&payload);
            out.push(bytes);
        }
        Ok(out)
    }

    /// [`Self::snapshot_shards`] with the volatile counters zeroed:
    /// the per-shard epoch and the cut stamp record how many mutations
    /// a history took, not what state it reached, so two histories
    /// arriving at the same content (a replay vs. an idempotently
    /// repeated one) digest identically here while their real
    /// checkpoints would not.
    pub fn content_snapshot_shards(&mut self) -> Result<Vec<Vec<u8>>> {
        let mut blobs = self.snapshot_shards()?;
        for blob in &mut blobs {
            // epoch u64 | cut u64 live right after the fixed
            // magic|ver|shard|count|replication prefix.
            blob[17..33].fill(0);
        }
        Ok(blobs)
    }

    /// Restores a distributed index from per-server snapshots produced
    /// by [`Self::snapshot_shards`], validating that the vector is one
    /// complete, consistent cut: every envelope must carry the position
    /// it is restored into, the same shard count (matching the vector
    /// length), the same replication factor, the same cut epoch and the
    /// same layout table. Any disagreement is
    /// [`Error::SnapshotMismatch`]. Replicas are rebuilt from the
    /// primary payloads.
    pub fn restore_shards(snapshots: &[Vec<u8>]) -> Result<Self> {
        if snapshots.is_empty() {
            return Err(Error::Config("at least one server snapshot required".into()));
        }
        let mut shards = Vec::with_capacity(snapshots.len());
        let mut replicas = Vec::with_capacity(snapshots.len());
        let mut expect: Option<(u32, u32, u64, Vec<u16>)> = None;
        for (g, bytes) in snapshots.iter().enumerate() {
            let (env, payload) = decode_shard_envelope(bytes)
                .map_err(|m| Error::SnapshotMismatch(format!("shard {g}: {m}")))?;
            if env.shard as usize != g {
                return Err(Error::SnapshotMismatch(format!(
                    "snapshot for shard {} restored at position {g}",
                    env.shard
                )));
            }
            if env.shard_count as usize != snapshots.len() {
                return Err(Error::SnapshotMismatch(format!(
                    "shard {g} belongs to a {}-shard cut, got {} snapshots",
                    env.shard_count,
                    snapshots.len()
                )));
            }
            match &expect {
                None => {
                    expect = Some((
                        env.shard_count,
                        env.replication,
                        env.cut,
                        env.layout.clone(),
                    ))
                }
                Some((count, repl, cut, layout)) => {
                    if env.shard_count != *count || env.replication != *repl {
                        return Err(Error::SnapshotMismatch(format!(
                            "shard {g} disagrees on the cluster shape"
                        )));
                    }
                    if env.cut != *cut {
                        return Err(Error::SnapshotMismatch(format!(
                            "shard {g} is from cut epoch {}, expected {} — snapshots \
                             span different checkpoints",
                            env.cut, cut
                        )));
                    }
                    if env.layout != *layout {
                        return Err(Error::SnapshotMismatch(format!(
                            "shard {g} carries a different layout table"
                        )));
                    }
                }
            }
            let mut primary = TextIndex::restore(payload)?;
            primary.set_epoch(env.epoch);
            let mut copies = Vec::with_capacity(env.replication as usize);
            for _ in 0..env.replication {
                let mut copy = TextIndex::restore(payload)?;
                copy.set_epoch(env.epoch);
                copies.push(copy);
            }
            shards.push(primary);
            replicas.push(copies);
        }
        let (_, replication, _, layout) =
            expect.unwrap_or((1, 0, 0, default_layout(snapshots.len())));
        validate_layout(&layout, snapshots.len())?;
        let replication = replication as usize;
        validate_replication(replication, snapshots.len())?;
        Ok(Self::assemble(shards, replicas, replication, layout))
    }

    /// The routing slot a URL hashes to (layout-independent).
    pub fn slot(url: &str) -> usize {
        slot_of(url)
    }

    /// The primary server a URL is assigned to under the current
    /// layout.
    pub fn route(&self, url: &str) -> usize {
        usize::from(self.layout[slot_of(url)])
    }

    /// Installs a new layout (and possibly a new server count) by
    /// migrating every document to its new primary — the cutover half
    /// of the [`Rebalancer`]. The migration is staged off to the side
    /// and swapped in atomically:
    ///
    /// 1. every migration stream consults the fault plan
    ///    (`migrate:shard:<g>`) — an injected failure aborts with the
    ///    old layout fully intact;
    /// 2. documents are exported in relation-level form (stems + tf —
    ///    stemming is not idempotent, so re-tokenizing is not an
    ///    option) and imported into freshly built primaries;
    /// 3. replicas are rebuilt from the new primaries' snapshots;
    /// 4. the cutover epoch (`old epoch sum + 1`) is stamped on every
    ///    new copy, the layout record is durably logged
    ///    ([`WAL_OP_LAYOUT`], synchronously flushed), and the new
    ///    cluster replaces the old in one assignment — a query either
    ///    runs entirely before or entirely after that swap, never
    ///    against a mix, and epoch-keyed caches invalidate because the
    ///    epoch jumped;
    /// 5. global IDF is redistributed over the new groups.
    ///
    /// Replaying the layout record re-derives the identical migration
    /// (exports are deterministic, in D-order), so a crash right after
    /// the flush recovers to the same new layout, and a crash before it
    /// recovers to the old one — never to a mix.
    ///
    /// [`Rebalancer`]: crate::rebalance::Rebalancer
    pub fn apply_layout(
        &mut self,
        shards_after: usize,
        new_layout: &[u16],
    ) -> Result<RebalanceReport> {
        validate_layout(new_layout, shards_after)?;
        validate_replication(self.replication, shards_after)?;
        if let Some(plan) = self.faults.clone() {
            for g in 0..self.shards.len() {
                let label = format!("migrate:shard:{g}");
                let delay = plan.decide_delay(&label);
                if !delay.is_zero() {
                    std::thread::sleep(delay);
                }
                match plan.decide(&label) {
                    FaultAction::None => {}
                    FaultAction::Hang => std::thread::sleep(self.hang),
                    FaultAction::Error | FaultAction::Garbage => {
                        return Err(Error::Config(format!(
                            "rebalance aborted: injected migration failure at shard {g} \
                             (old layout kept)"
                        )));
                    }
                }
            }
        }
        self.commit()?;
        let shards_before = self.shards.len();
        let moved_slots = if shards_after == shards_before {
            self.layout
                .iter()
                .zip(new_layout)
                .filter(|(a, b)| a != b)
                .count()
        } else {
            ROUTE_SLOTS
        };

        // Stage: export in group order / D order — deterministic, so a
        // WAL replay of this cutover rebuilds byte-identical shards.
        let mut moved_docs = 0usize;
        let mut exports: Vec<(usize, DocExport)> = Vec::new();
        for (g, shard) in self.shards.iter().enumerate() {
            for doc in shard.export_documents()? {
                let target = usize::from(new_layout[slot_of(&doc.url)]);
                if target != g {
                    moved_docs += 1;
                }
                exports.push((target, doc));
            }
        }
        let model = self.shards[0].model();
        let mut new_primaries: Vec<TextIndex> =
            (0..shards_after).map(|_| TextIndex::new(model)).collect();
        for (target, doc) in &exports {
            new_primaries[*target].import_document(doc)?;
        }
        let mut new_replicas: Vec<Vec<TextIndex>> = Vec::with_capacity(shards_after);
        for primary in &mut new_primaries {
            let snap = primary.snapshot()?;
            let copies = (0..self.replication)
                .map(|_| TextIndex::restore(&snap))
                .collect::<Result<Vec<_>>>()?;
            new_replicas.push(copies);
        }
        let cutover = self.epoch() + 1;
        for (primary, copies) in new_primaries.iter_mut().zip(&mut new_replicas) {
            primary.set_epoch(cutover);
            for copy in copies {
                copy.set_epoch(cutover);
            }
        }

        // Durable intent *before* the in-memory swap: recovery replays
        // the record and re-derives this exact migration.
        if let Some(wal) = &self.wal {
            let mut rec = Vec::with_capacity(4 + 2 + 2 * ROUTE_SLOTS);
            rec.extend_from_slice(&(shards_after as u32).to_le_bytes());
            rec.extend_from_slice(&(ROUTE_SLOTS as u16).to_le_bytes());
            for &s in new_layout {
                rec.extend_from_slice(&s.to_le_bytes());
            }
            wal.log_sync(WAL_OP_LAYOUT, &[&rec])?;
        }

        // Cutover: one swap, old world to new. Placement, health and
        // failure streaks reset with the new cluster shape.
        self.shards = new_primaries;
        self.replicas = new_replicas;
        self.layout = new_layout.to_vec();
        self.reset_placement();
        self.last_cutover_epoch = cutover;
        if let Some(wal) = self.wal.clone() {
            for shard in &mut self.shards {
                shard.set_wal(wal.clone());
            }
        }
        self.distribute_global_df()?;
        if let Some(m) = &self.metrics {
            m.rebalance_moves.add(moved_docs as u64);
            m.rebalance_cutover.set(i64::try_from(cutover).unwrap_or(i64::MAX));
        }
        Ok(RebalanceReport {
            shards_before,
            shards_after,
            moved_docs,
            moved_slots,
            cutover_epoch: cutover,
        })
    }

    /// Commits every server's pending updates and distributes the
    /// *global* IDF tuples to the servers ("we distribute the TF (and
    /// corresponding IDF tuples) over several database servers"), so
    /// local rankings use collection-wide document frequencies.
    pub fn commit(&mut self) -> Result<()> {
        // A clean index commits to nothing: without this, every
        // snapshot would bump the shard epochs through the global-df
        // pass and spuriously invalidate epoch-keyed query caches.
        if self.shards.iter().all(TextIndex::is_committed)
            && self
                .replicas
                .iter()
                .flatten()
                .all(TextIndex::is_committed)
        {
            return Ok(());
        }
        self.distribute_global_df()
    }

    /// The unconditional half of [`commit`](DistributedIndex::commit):
    /// gathers collection-wide document frequencies from the primaries
    /// and pushes them to every copy. A layout cutover calls this
    /// directly — its fresh shards are locally committed but still
    /// carry local idf.
    ///
    /// Local document frequencies are current at insert, so they are
    /// gathered before anything commits; each group then commits and
    /// applies the global values on its own thread.
    fn distribute_global_df(&mut self) -> Result<()> {
        let mut global: std::collections::HashMap<String, usize> =
            std::collections::HashMap::new();
        for shard in &self.shards {
            for (stem, df) in shard.df_map() {
                *global.entry(stem).or_insert(0) += df;
            }
        }
        let jobs = vec![Some(()); self.shards.len()];
        self.for_each_group(jobs, |primary, replicas, ()| {
            primary.apply_global_df(&global)?;
            for copy in replicas.iter_mut() {
                copy.apply_global_df(&global)?;
            }
            Ok(())
        })
    }

    /// Documents per server — the balance the per-document assignment
    /// achieves.
    pub fn shard_sizes(&self) -> Vec<usize> {
        self.shards.iter().map(TextIndex::document_count).collect()
    }

    /// Estimated heap bytes of the derived posting indexes of **every**
    /// copy (primaries and replicas) — what ranked retrieval holds
    /// resident beyond the relations.
    pub fn posting_index_bytes(&self) -> usize {
        self.shards
            .iter()
            .chain(self.replicas.iter().flatten())
            .map(TextIndex::posting_index_bytes)
            .sum()
    }

    /// The fault-blind **reference** evaluation: each primary's local
    /// top-`k` in turn in the caller's thread, then the master merge. No
    /// fault plan, no deadline, no rotation, no health bookkeeping — a
    /// serial answer is always complete (`quality == 1.0`), which is
    /// what the tests and E5/E16 compare [`search`] against.
    ///
    /// [`search`]: DistributedIndex::search
    pub fn query_serial(&self, text: &str, k: usize) -> DistributedResult {
        let stems = tokenize_and_stem(text);
        let mut locals = Vec::with_capacity(self.shards.len());
        let mut elapsed = Vec::with_capacity(self.shards.len());
        for shard in &self.shards {
            let start = Instant::now();
            locals.push(Some(shard.ranked(&stems, k, None)));
            elapsed.push(start.elapsed());
        }
        let served = vec![Some(0); self.shards.len()];
        let result = merge(locals, &self.shard_sizes(), k, elapsed, 0, served);
        self.record_result(&result);
        result
    }

    /// [`search`] with no restriction and no budget.
    ///
    /// [`search`]: DistributedIndex::search
    pub fn query_parallel(&mut self, text: &str, k: usize) -> Result<DistributedResult> {
        self.search(text, k, None, &Budget::unlimited())
    }

    /// [`search`] restricted to `candidates`, with no budget.
    ///
    /// [`search`]: DistributedIndex::search
    pub fn query_restricted(
        &mut self,
        text: &str,
        k: usize,
        candidates: &HashSet<String>,
    ) -> Result<DistributedResult> {
        self.search(text, k, Some(candidates), &Budget::unlimited())
    }

    /// The one scatter-gather: the central node stems the query, every
    /// consulted server copy ranks its slice of the **published** state
    /// on a scoped thread of its own (shared-nothing, so copies proceed
    /// independently), and the master merge ranks what came back. With
    /// `candidates`, each server ranks only the candidate documents it
    /// holds ("a very interesting a-priori restriction of the ranking
    /// candidate set"); everything else — faults, failover, hedging,
    /// health, the budget — is the same for both kinds.
    ///
    /// Each group's read goes to the one copy its cursor selects; the
    /// group's remaining copies are consulted only to rescue it (the
    /// selected copy erred) or to hedge it (no answer by half the
    /// window). Every copy is isolated: a panic is caught in its
    /// thread, an injected fault marks it failed, and a copy that does
    /// not answer within the collection window is abandoned (its thread
    /// still winds down — injected hangs are bounded). For each group
    /// the selected copy's answer is taken; if it failed but another
    /// copy answered, the query **fails over** within the same window
    /// and the group still counts as ok. The merge ranks whatever
    /// survived; [`Error::AllShardsFailed`] is returned only when no
    /// group answered through any copy.
    ///
    /// The collection window is the *minimum* of the configured shard
    /// deadline and the budget's remaining wall-clock time, so a query
    /// that has already spent most of its end-to-end deadline gives its
    /// servers only what is left. Stragglers past the window are
    /// dropped and the survivors merged; the typed
    /// [`Error::DeadlineExceeded`] is returned only when the budget
    /// leaves no room to collect anything (or its work allowance runs
    /// out mid-gather, one unit per answering *group* — replicas ride
    /// on their group's unit, so replication never inflates the bill).
    ///
    /// Reads never publish: documents indexed since the last
    /// [`commit`](DistributedIndex::commit) are invisible here.
    pub fn search(
        &mut self,
        text: &str,
        k: usize,
        candidates: Option<&HashSet<String>>,
        budget: &Budget,
    ) -> Result<DistributedResult> {
        budget.check().map_err(|cause| Error::DeadlineExceeded {
            shards_answered: 0,
            cause,
        })?;
        let n = self.shards.len();
        let copies = self.replication + 1;
        let sizes = self.shard_sizes();
        let plan = self.faults.clone();
        let hang = self.hang;
        let window = match budget.remaining_time() {
            Some(left) => left.min(self.shard_deadline),
            None => self.shard_deadline,
        };
        let started = Instant::now();
        let deadline = started + window;
        // A hung selected copy must not cost the group its answer:
        // unanswered groups get their remaining copies at half the
        // window, leaving the hedge wave the other half to answer in.
        let hedge_at = started + window / 2;
        // The copy each group's read goes to: wherever its cursor
        // stands, which then moves on — even past unhealthy copies, the
        // read doubles as failure detection.
        let preferred = self.placement.cursor.clone();
        for cursor in &mut self.placement.cursor {
            *cursor = (*cursor + 1) % copies;
        }
        // The central node stems and stops the query once; the servers
        // get the term identification along with the top-N request.
        let stems = tokenize_and_stem(text);
        let stems = stems.as_slice();
        // Fault labels exist only for a fault plan to look up.
        let labels: Vec<Vec<String>> = match plan {
            Some(_) => (0..n)
                .map(|g| (0..copies).map(|c| self.copy_label(g, c)).collect())
                .collect(),
            None => Vec::new(),
        };
        let mut slots: Vec<Vec<Option<ShardAnswer>>> = vec![vec![None; copies]; n];
        let mut took: Vec<Vec<Duration>> = vec![vec![window; copies]; n];
        let mut spawned = vec![vec![false; copies]; n];
        let mut group_ok = vec![false; n];
        let mut group_charged = vec![false; n];
        let mut answered = 0usize;
        let mut budget_stop = None;
        let (tx, rx) = crossbeam::channel::unbounded::<(usize, usize, ShardAnswer, Duration)>();
        let (shards, replicas) = (&self.shards, &self.replicas);
        let spawned_ref = &mut spawned;
        crossbeam::thread::scope(|scope| {
            let mut launch = |g: usize, c: usize| -> bool {
                if spawned_ref[g][c] {
                    return false;
                }
                spawned_ref[g][c] = true;
                let shard = if c == 0 { &shards[g] } else { &replicas[g][c - 1] };
                let tx = tx.clone();
                let fault = plan.clone().map(|plan| (plan, labels[g][c].as_str()));
                scope.spawn(move |_| {
                    let start = Instant::now();
                    let fault = fault.as_ref().map(|(plan, label)| (plan.as_ref(), *label));
                    let answer = run_shard(shard, stems, k, candidates, fault, hang);
                    // The central node may have stopped listening; the
                    // answer is then simply dropped.
                    let _ = tx.send((g, c, answer, start.elapsed()));
                });
                true
            };
            for (g, &selected) in preferred.iter().enumerate() {
                launch(g, selected);
            }
            let mut pending = n;
            // Collect *inside* the scope: the scope exit still joins a
            // hung server thread, but the deadline bounds how long the
            // merge waits for answers. Groups land on the rescue queue
            // when their selected copy fails (or the hedge fires) and
            // get their remaining copies spawned at the loop top.
            let mut need_rescue: Vec<usize> = Vec::new();
            // Without replicas there is nothing to hedge with.
            let mut hedged = copies == 1;
            while pending > 0 || !need_rescue.is_empty() {
                for g in need_rescue.drain(..) {
                    for c in 0..copies {
                        if launch(g, c) {
                            pending += 1;
                        }
                    }
                }
                if pending == 0 {
                    break;
                }
                let now = Instant::now();
                let remaining = deadline.saturating_duration_since(now);
                if remaining.is_zero() {
                    break;
                }
                let wait = if hedged {
                    remaining
                } else {
                    hedge_at.saturating_duration_since(now).min(remaining)
                };
                match rx.recv_timeout(wait) {
                    Ok((g, c, answer, elapsed)) => {
                        pending -= 1;
                        let ok = answer.is_ok();
                        if ok && !group_charged[g] {
                            if let Err(cause) = budget.consume(1) {
                                budget_stop = Some(cause);
                                break;
                            }
                            group_charged[g] = true;
                            answered += 1;
                        }
                        if ok {
                            group_ok[g] = true;
                        } else if !group_ok[g] {
                            need_rescue.push(g);
                        }
                        slots[g][c] = Some(answer);
                        took[g][c] = elapsed;
                    }
                    Err(_) => {
                        if !hedged && Instant::now() >= hedge_at {
                            hedged = true;
                            for (g, ok) in group_ok.iter().enumerate() {
                                if !ok {
                                    need_rescue.push(g);
                                }
                            }
                        } else if hedged {
                            break;
                        }
                    }
                }
            }
        })
        .map_err(|_| Error::Config("the central query node panicked".into()))?;
        if let Some(cause) = budget_stop {
            return Err(Error::DeadlineExceeded {
                shards_answered: answered,
                cause,
            });
        }

        // Health and failure streaks reflect exactly what each
        // *consulted* copy did this round; unconsulted copies keep
        // their previous state.
        for g in 0..n {
            for c in 0..copies {
                if !spawned[g][c] {
                    continue;
                }
                let ok = matches!(&slots[g][c], Some(Ok(_)));
                self.placement.healthy[g][c] = ok;
                let streak = &mut self.placement.fail_streak[g][c];
                *streak = if ok { 0 } else { streak.saturating_add(1) };
            }
        }
        // Per group: take the preferred copy's answer if it is good,
        // else fail over to the lowest-numbered live copy —
        // deterministic regardless of arrival order.
        let mut locals = Vec::with_capacity(n);
        let mut elapsed = vec![window; n];
        let mut served_by: Vec<Option<usize>> = vec![None; n];
        let mut failovers = 0usize;
        let mut causes = Vec::new();
        for (g, mut group) in slots.into_iter().enumerate() {
            let pref = preferred[g];
            let mut preferred_cause: Option<String> = None;
            let mut chosen: Option<(usize, (Vec<SearchHit>, QueryWork))> = None;
            let mut order: Vec<usize> = (0..copies).collect();
            order.sort_by_key(|&c| (c != pref, c));
            for c in order {
                match group[c].take() {
                    Some(Ok(local)) if chosen.is_none() => chosen = Some((c, local)),
                    Some(Err(cause)) if c == pref && preferred_cause.is_none() => {
                        preferred_cause = Some(cause);
                    }
                    _ => {}
                }
            }
            match chosen {
                Some((c, local)) => {
                    if c != pref {
                        failovers += 1;
                    }
                    elapsed[g] = took[g][c];
                    served_by[g] = Some(c);
                    locals.push(Some(local));
                }
                None => {
                    match preferred_cause {
                        Some(cause) => causes.push(format!("shard {g}: {cause}")),
                        None => causes.push(format!("shard {g}: no answer within {window:?}")),
                    }
                    locals.push(None);
                }
            }
        }
        if locals.iter().all(Option::is_none) {
            // Distinguish "every server is broken" from "the budget
            // left the servers no time to answer".
            if let Err(cause) = budget.check() {
                return Err(Error::DeadlineExceeded {
                    shards_answered: 0,
                    cause,
                });
            }
            return Err(Error::AllShardsFailed(causes.join("; ")));
        }
        let result = merge(locals, &sizes, k, elapsed, failovers, served_by);
        self.record_result(&result);
        self.note_critical_path(result.slowest_shard());
        Ok(result)
    }

    /// Stages a background re-replication around permanently lost
    /// virtual server `lost`: every copy it hosted is scheduled for
    /// rebuild onto a surviving host, sourced from its group's lowest
    /// surviving copy. Read-only — the cluster does not change until
    /// [`commit_rereplication`], and dropping the returned job aborts
    /// with the cluster byte-identical. Errors if `lost` is out of
    /// range or some affected group has *no* surviving copy
    /// (re-replication rebuilds redundancy, it cannot resurrect data).
    ///
    /// [`commit_rereplication`]: DistributedIndex::commit_rereplication
    pub fn begin_rereplication(&mut self, lost: usize) -> Result<RereplicationJob> {
        let n = self.shards.len();
        if lost >= n {
            return Err(Error::Config(format!(
                "server {lost} out of range (cluster has {n})"
            )));
        }
        self.commit()?;
        let pinned_epoch = self.epoch();
        let mut units: Vec<RereplUnit> = Vec::new();
        for g in 0..n {
            let hosts = &self.placement.host[g];
            let dead_slots: Vec<usize> = (0..hosts.len()).filter(|&c| hosts[c] == lost).collect();
            if dead_slots.is_empty() {
                continue;
            }
            // Source: the group's lowest-numbered copy on a surviving
            // host. Copies mirror each other byte for byte, so any
            // survivor is an exact source.
            let survivor = hosts.iter().position(|&h| h != lost).ok_or_else(|| {
                Error::Config(format!(
                    "group {g} has no surviving copy to re-replicate from"
                ))
            })?;
            // Hosts that keep a copy of this group, plus (below) the
            // ones its rebuilt copies land on.
            let mut taken: Vec<usize> = hosts.iter().copied().filter(|&h| h != lost).collect();
            let source = match survivor {
                0 => &mut self.shards[g],
                c => &mut self.replicas[g][c - 1],
            };
            let (snapshot, epoch) = (source.snapshot()?, source.epoch());
            // Place each rebuilt copy on the smallest surviving host
            // not already holding a copy of this group (falling back to
            // any survivor when the cluster is too small to keep the
            // copies host-disjoint).
            for slot in dead_slots {
                let host = (0..n)
                    .find(|h| *h != lost && !taken.contains(h))
                    .or_else(|| (0..n).find(|h| *h != lost))
                    .ok_or_else(|| {
                        Error::Config("no surviving host to place a rebuilt copy".into())
                    })?;
                taken.push(host);
                units.push(RereplUnit {
                    group: g,
                    copy: slot,
                    host,
                    snapshot: snapshot.clone(),
                    epoch,
                });
            }
        }
        Ok(RereplicationJob {
            lost,
            pinned_epoch,
            units,
            rebuilt: Vec::new(),
            hang: self.hang,
        })
    }

    /// Commits a finished [`RereplicationJob`]: logs a
    /// [`WAL_OP_CONTROL`] audit record, swaps every rebuilt copy into
    /// its slot, updates placement, resets the affected health and
    /// failure streaks and refreshes `ir_replicas_healthy`. Refuses
    /// with [`Error::RereplicationStale`] when the cluster epoch moved
    /// since the job was staged (an interleaved write or rebalance —
    /// the staged snapshots no longer describe the cluster), and with a
    /// config error when the job is not
    /// [`done`](RereplicationJob::is_done). Returns how many copies
    /// were installed.
    pub fn commit_rereplication(&mut self, job: RereplicationJob) -> Result<usize> {
        if !job.is_done() {
            return Err(Error::Config(format!(
                "re-replication commit before completion: {}/{} objects rebuilt",
                job.completed(),
                job.objects()
            )));
        }
        if self.epoch() != job.pinned_epoch {
            return Err(Error::RereplicationStale {
                pinned: job.pinned_epoch,
                current: self.epoch(),
            });
        }
        // Durable audit intent before the swap — replay treats the
        // record as a no-op (placement is derived state), but every
        // control-plane decision lands on the permanent record.
        if let Some(wal) = &self.wal {
            let mut rec = Vec::with_capacity(8 + 12 * job.units.len());
            rec.extend_from_slice(&(job.lost as u32).to_le_bytes());
            rec.extend_from_slice(&(job.units.len() as u32).to_le_bytes());
            for unit in &job.units {
                rec.extend_from_slice(&(unit.group as u32).to_le_bytes());
                rec.extend_from_slice(&(unit.copy as u32).to_le_bytes());
                rec.extend_from_slice(&(unit.host as u32).to_le_bytes());
            }
            wal.log_sync(WAL_OP_CONTROL, &[&rec])?;
        }
        let RereplicationJob { units, rebuilt, .. } = job;
        let installed = units.len();
        for (unit, mut copy) in units.into_iter().zip(rebuilt) {
            if unit.copy == 0 {
                if let Some(wal) = &self.wal {
                    copy.set_wal(wal.clone());
                }
                self.shards[unit.group] = copy;
            } else {
                self.replicas[unit.group][unit.copy - 1] = copy;
            }
            self.placement.host[unit.group][unit.copy] = unit.host;
            self.placement.healthy[unit.group][unit.copy] = true;
            self.placement.fail_streak[unit.group][unit.copy] = 0;
        }
        if let Some(m) = &self.metrics {
            m.rereplication_objects.add(installed as u64);
        }
        self.refresh_health_gauge();
        Ok(installed)
    }
}

/// One replica copy staged for rebuild by a [`RereplicationJob`]:
/// which copy slot of which group, the surviving host it lands on, and
/// the source snapshot it is rebuilt from.
struct RereplUnit {
    group: usize,
    /// Copy slot being replaced (0 = the group's primary).
    copy: usize,
    /// Surviving virtual host the rebuilt copy is placed on.
    host: usize,
    snapshot: Vec<u8>,
    epoch: u64,
}

/// A staged background re-replication: every copy a permanently lost
/// virtual server hosted, rebuilt off to the side from each group's
/// lowest surviving copy and swapped in on commit.
///
/// Drive it with [`step`](RereplicationJob::step) — one object per
/// call, so the caller can interleave admission-gate checks between
/// chunks — then hand it back to
/// [`DistributedIndex::commit_rereplication`]. Dropping the job
/// instead aborts with the cluster byte-identical: nothing is mutated
/// before commit. Each step consults the fault plan at
/// `rereplicate:<lost>:<group>`.
pub struct RereplicationJob {
    lost: usize,
    /// Cluster epoch when the job was staged; commit refuses to land
    /// on a cluster that has moved on.
    pinned_epoch: u64,
    units: Vec<RereplUnit>,
    rebuilt: Vec<TextIndex>,
    hang: Duration,
}

impl RereplicationJob {
    /// Copies staged for rebuild.
    pub fn objects(&self) -> usize {
        self.units.len()
    }

    /// Copies rebuilt so far.
    pub fn completed(&self) -> usize {
        self.rebuilt.len()
    }

    /// Whether every staged copy has been rebuilt.
    pub fn is_done(&self) -> bool {
        self.rebuilt.len() == self.units.len()
    }

    /// Rebuilds the next staged copy. Consults `plan` at
    /// `rereplicate:<lost>:<group>` first: an injected delay or `Hang`
    /// stalls the step, an `Error`/`Garbage` fails it — the caller
    /// drops the job and the cluster stays byte-identical. Returns
    /// whether the job is now complete.
    pub fn step(&mut self, plan: Option<&FaultPlan>) -> Result<bool> {
        let Some(unit) = self.units.get(self.rebuilt.len()) else {
            return Ok(true);
        };
        if let Some(plan) = plan {
            let label = format!("rereplicate:{}:{}", self.lost, unit.group);
            let delay = plan.decide_delay(&label);
            if !delay.is_zero() {
                std::thread::sleep(delay);
            }
            match plan.decide(&label) {
                FaultAction::None => {}
                FaultAction::Hang => std::thread::sleep(self.hang),
                FaultAction::Error | FaultAction::Garbage => {
                    return Err(Error::Config(format!(
                        "re-replication aborted: injected fault rebuilding group {} \
                         (cluster untouched)",
                        unit.group
                    )));
                }
            }
        }
        let mut copy = TextIndex::restore(&unit.snapshot)?;
        copy.set_epoch(unit.epoch);
        self.rebuilt.push(copy);
        Ok(self.is_done())
    }
}

/// A decoded shard-snapshot envelope.
struct ShardEnvelope {
    shard: u32,
    shard_count: u32,
    replication: u32,
    epoch: u64,
    cut: u64,
    layout: Vec<u16>,
}

fn decode_shard_envelope(bytes: &[u8]) -> std::result::Result<(ShardEnvelope, &[u8]), String> {
    if bytes.len() < SHARD_HEADER {
        return Err("snapshot shorter than the envelope header".into());
    }
    if &bytes[..4] != SHARD_MAGIC {
        return Err("not a shard snapshot (bad magic)".into());
    }
    if bytes[4] != SHARD_VERSION {
        return Err(format!("unsupported envelope version {}", bytes[4]));
    }
    let u32_at = |o: usize| u32::from_le_bytes(bytes[o..o + 4].try_into().unwrap_or([0; 4]));
    let u64_at = |o: usize| u64::from_le_bytes(bytes[o..o + 8].try_into().unwrap_or([0; 8]));
    let nslots =
        usize::from(u16::from_le_bytes(bytes[33..35].try_into().unwrap_or([0; 2])));
    if nslots != ROUTE_SLOTS {
        return Err(format!("layout has {nslots} slots, expected {ROUTE_SLOTS}"));
    }
    let mut layout = Vec::with_capacity(ROUTE_SLOTS);
    for s in 0..ROUTE_SLOTS {
        let o = 35 + 2 * s;
        layout.push(u16::from_le_bytes(bytes[o..o + 2].try_into().unwrap_or([0; 2])));
    }
    Ok((
        ShardEnvelope {
            shard: u32_at(5),
            shard_count: u32_at(9),
            replication: u32_at(13),
            epoch: u64_at(17),
            cut: u64_at(25),
            layout,
        },
        &bytes[SHARD_HEADER..],
    ))
}

/// One server's side of the query: consult the fault plan under the
/// copy's label (latency first — a slow server is still expected to
/// answer — then the fault action), then run the local top-`k` with
/// panics contained.
fn run_shard(
    shard: &TextIndex,
    stems: &[String],
    k: usize,
    candidates: Option<&HashSet<String>>,
    fault: Option<(&FaultPlan, &str)>,
    hang: Duration,
) -> ShardAnswer {
    if let Some((plan, label)) = fault {
        let delay = plan.decide_delay(label);
        if !delay.is_zero() {
            std::thread::sleep(delay);
        }
        match plan.decide(label) {
            FaultAction::None => {}
            FaultAction::Error => return Err("injected transport error".into()),
            FaultAction::Garbage => return Err("undecodable server response".into()),
            FaultAction::Hang => std::thread::sleep(hang),
        }
    }
    catch_unwind(AssertUnwindSafe(|| shard.ranked(stems, k, candidates)))
        .map_err(|_| "server thread panicked".into())
}

/// "The central node merges the top-10 rankings into a large ranking" —
/// over the servers that answered (`None` marks a failed server). Ties
/// break on URL, which is stable across any distribution layout (doc
/// oids are shard-local and would reorder under rebalancing).
fn merge(
    locals: Vec<Option<(Vec<SearchHit>, QueryWork)>>,
    sizes: &[usize],
    k: usize,
    shard_elapsed: Vec<Duration>,
    failovers: usize,
    served_by: Vec<Option<usize>>,
) -> DistributedResult {
    let mut per_shard_work = Vec::with_capacity(locals.len());
    let mut failed_shards = Vec::new();
    let mut all = Vec::new();
    let mut surviving_docs = 0usize;
    for (i, local) in locals.into_iter().enumerate() {
        match local {
            Some((hits, work)) => {
                per_shard_work.push(work);
                all.extend(hits);
                surviving_docs += sizes[i];
            }
            None => {
                per_shard_work.push(QueryWork::default());
                failed_shards.push(i);
            }
        }
    }
    all.sort_by(|a, b| b.score.total_cmp(&a.score).then_with(|| a.url.cmp(&b.url)));
    all.truncate(k);
    let total: usize = sizes.iter().sum();
    let quality = if total == 0 {
        1.0
    } else {
        surviving_docs as f64 / total as f64
    };
    DistributedResult {
        hits: all,
        shards_ok: sizes.len() - failed_shards.len(),
        shards_failed: failed_shards.len(),
        failed_shards,
        failovers,
        quality,
        per_shard_work,
        shard_elapsed,
        served_by,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faults::FaultSpec;

    fn corpus(n: usize) -> Vec<(String, String)> {
        (0..n)
            .map(|i| {
                let mut body = format!("tennis match report number{i}");
                if i % 7 == 0 {
                    body.push_str(" winner winner");
                } else if i % 3 == 0 {
                    body.push_str(" winner");
                }
                (format!("http://site/news/{i}.html"), body)
            })
            .collect()
    }

    fn build(servers: usize, n: usize) -> DistributedIndex {
        build_replicated(servers, n, 0)
    }

    /// Layout-independent projection of a ranking: oids are shard-local
    /// and are re-minted when a document migrates, so byte-identity
    /// across layouts is on `(url, score-bits)` in rank order.
    fn ranking(r: &DistributedResult) -> Vec<(String, u64)> {
        r.hits
            .iter()
            .map(|h| (h.url.clone(), h.score.to_bits()))
            .collect()
    }

    fn build_replicated(servers: usize, n: usize, replicas: usize) -> DistributedIndex {
        let mut d =
            DistributedIndex::with_replication(servers, ScoreModel::TfIdf, replicas).unwrap();
        for (url, body) in corpus(n) {
            d.index_document(&url, &body).unwrap();
        }
        d.commit().unwrap();
        d
    }

    #[test]
    fn per_document_assignment_is_roughly_balanced() {
        let d = build(4, 400);
        let sizes = d.shard_sizes();
        assert_eq!(sizes.iter().sum::<usize>(), 400);
        for s in &sizes {
            assert!(*s > 50, "unbalanced shards: {sizes:?}");
        }
    }

    #[test]
    fn routing_is_stable() {
        let d = build(4, 10);
        let r1 = d.route("http://site/news/3.html");
        let r2 = d.route("http://site/news/3.html");
        assert_eq!(r1, r2);
    }

    #[test]
    fn distributed_ranking_equals_single_server_ranking() {
        let single = build(1, 120);
        let multi = build(4, 120);
        let a = single.query_serial("winner", 10);
        let b = multi.query_serial("winner", 10);
        // Global IDF tuples were distributed at commit, and both ties
        // and the merge order on URL — so the merged ranking is
        // *identical* to the single-server evaluation, order included.
        let urls = |r: &DistributedResult| {
            r.hits
                .iter()
                .map(|h| (h.url.clone(), h.score))
                .collect::<Vec<_>>()
        };
        assert_eq!(urls(&a), urls(&b));
    }

    #[test]
    fn parallel_and_serial_agree() {
        let mut d = build(4, 200);
        let serial = d.query_serial("winner tennis", 10);
        let parallel = d.query_parallel("winner tennis", 10).unwrap();
        assert_eq!(serial.hits, parallel.hits);
        assert_eq!(serial, parallel);
        assert!(!parallel.is_degraded());
        assert_eq!(parallel.shards_ok, 4);
        assert_eq!(parallel.quality, 1.0);
    }

    #[test]
    fn work_is_spread_across_shards() {
        let d = build(4, 400);
        let result = d.query_serial("tennis", 10);
        assert_eq!(result.per_shard_work.len(), 4);
        let total: usize = result.per_shard_work.iter().map(|w| w.tuples).sum();
        assert_eq!(total, 400, "every document mentions tennis");
        for w in &result.per_shard_work {
            assert!(w.tuples > 50, "shard did too little: {result:?}");
        }
    }

    #[test]
    fn zero_servers_is_a_config_error() {
        assert!(DistributedIndex::new(0, ScoreModel::TfIdf).is_err());
    }

    #[test]
    fn replication_must_leave_room_for_distinct_hosts() {
        assert!(DistributedIndex::with_replication(3, ScoreModel::TfIdf, 2).is_ok());
        assert!(DistributedIndex::with_replication(3, ScoreModel::TfIdf, 3).is_err());
        assert!(DistributedIndex::with_replication(1, ScoreModel::TfIdf, 1).is_err());
    }

    #[test]
    fn replicas_live_on_distinct_hosts() {
        let d = build_replicated(4, 40, 2);
        for g in 0..4 {
            let hosts = d.replica_servers(g);
            assert_eq!(hosts.len(), 2);
            assert!(!hosts.contains(&g), "replica on the primary host");
            assert_ne!(hosts[0], hosts[1], "two replicas share a host");
        }
        // Killing one whole server covers its primary and every replica
        // hosted there: with R=2 on 4 servers, each host carries one
        // primary plus two replica copies.
        let labels = d.fault_labels_for_server(1);
        assert_eq!(labels.len(), 3, "{labels:?}");
        assert!(labels.contains(&"shard:1".to_owned()));
    }

    #[test]
    fn batched_and_one_by_one_ingest_store_identical_copies() {
        let docs: Vec<(String, String)> = corpus(120)
            .into_iter()
            .map(|(url, body)| (url, format!("{body} The Champions were winning matches; café")))
            .collect();
        let mut batched = DistributedIndex::with_replication(3, ScoreModel::TfIdf, 2).unwrap();
        // A batch that routes to group 1 alone is applied inline; the
        // rest goes to every group at once, one thread per group. Each
        // group still sees its documents in input order.
        let (head, rest) = docs.split_at(40);
        let (inline, threaded): (Vec<_>, Vec<_>) =
            head.iter().partition(|(u, _)| batched.route(u) == 1);
        assert!(!inline.is_empty());
        batched
            .index_documents(inline.iter().map(|(u, b)| (u.as_str(), b.as_str())))
            .unwrap();
        batched
            .index_documents(
                threaded
                    .into_iter()
                    .chain(rest)
                    .map(|(u, b)| (u.as_str(), b.as_str())),
            )
            .unwrap();
        let mut single = DistributedIndex::with_replication(3, ScoreModel::TfIdf, 2).unwrap();
        for (url, body) in &docs {
            single.index_document(url, body).unwrap();
        }
        assert_eq!(
            batched.content_snapshot_shards().unwrap(),
            single.content_snapshot_shards().unwrap()
        );
        for d in [&mut batched, &mut single] {
            for g in 0..d.servers() {
                let primary = d.shards[g].snapshot().unwrap();
                for copy in &mut d.replicas[g] {
                    assert_eq!(copy.snapshot().unwrap(), primary, "group {g}");
                }
            }
        }
    }

    #[test]
    fn a_rejected_batch_leaves_the_cluster_and_the_log_untouched() {
        let dir = std::env::temp_dir().join(format!("ir-rejected-batch-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let wal = monet::wal::open_shared(monet::storage::FsBackend::shared(), &dir).unwrap();
        let mut d = DistributedIndex::with_replication(2, ScoreModel::TfIdf, 1).unwrap();
        d.set_wal(WalHandle::new(Arc::clone(&wal), 0));
        let docs = corpus(40);
        let (old, new) = docs.split_at(20);
        d.index_documents(old.iter().map(|(u, b)| (u.as_str(), b.as_str())))
            .unwrap();
        let state = |d: &DistributedIndex| {
            let copies: Vec<(usize, u64)> = d
                .shards
                .iter()
                .chain(d.replicas.iter().flatten())
                .map(|copy| (copy.document_count(), copy.epoch()))
                .collect();
            (copies, wal.lock().unwrap().next_lsn())
        };
        let before = state(&d);
        // Group 0 gets fresh documents first; group 1's only document
        // is already indexed, so the batch fails after group 0 passed.
        let held = old.iter().find(|(u, _)| d.route(u) == 1).unwrap();
        let mut batch: Vec<(&str, &str)> = new
            .iter()
            .filter(|(u, _)| d.route(u) == 0)
            .map(|(u, b)| (u.as_str(), b.as_str()))
            .collect();
        assert!(!batch.is_empty());
        batch.push((held.0.as_str(), held.1.as_str()));
        assert!(d.index_documents(batch.iter().copied()).is_err());
        assert_eq!(state(&d), before);
        // A URL repeated within the batch is refused the same way.
        let (url, body) = &new[0];
        assert!(d.index_documents([(url.as_str(), body.as_str()); 2]).is_err());
        assert_eq!(state(&d), before);
        // Nothing was consumed: the fresh documents still go in.
        batch.pop();
        d.index_documents(batch.iter().copied()).unwrap();
        let indexed: usize = d.shards.iter().map(TextIndex::document_count).sum();
        assert_eq!(indexed, old.len() + batch.len());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn replication_does_not_change_the_answer() {
        let mut plain = build(4, 200);
        let mut replicated = build_replicated(4, 200, 2);
        let a = plain.query_parallel("winner tennis", 10).unwrap();
        let b = replicated.query_parallel("winner tennis", 10).unwrap();
        assert_eq!(a, b);
        assert_eq!(b.failovers, 0);
    }

    #[test]
    fn a_dead_primary_fails_over_to_a_replica_not_degraded() {
        let mut d = build_replicated(4, 200, 1);
        d.set_fault_plan(
            FaultPlan::seeded(11)
                .with_script("shard:2", vec![FaultAction::Error])
                .shared(),
        );
        let r = d.query_parallel("winner tennis", 10).unwrap();
        assert!(!r.is_degraded(), "replica should have covered: {r:?}");
        assert_eq!(r.failovers, 1);
        assert_eq!(r.shards_ok, 4);
        assert_eq!(r.quality, 1.0);
        // The answer equals the fault-free one exactly.
        let mut healthy = build_replicated(4, 200, 1);
        let expected = healthy.query_parallel("winner tennis", 10).unwrap();
        assert_eq!(r.hits, expected.hits);
        // Health reflects the dead primary.
        let health = d.shard_health();
        assert!(!health[2].primary_healthy);
        assert_eq!(health[2].healthy_copies, 1);
        assert!(health[3].primary_healthy);
    }

    #[test]
    fn a_group_with_every_copy_dead_still_degrades() {
        let mut d = build_replicated(3, 120, 1);
        let plan = FaultPlan::seeded(12);
        plan.set_site("shard:0", FaultSpec::always_error());
        let host = d.replica_servers(0)[0];
        plan.set_site(format!("replica:{host}:0"), FaultSpec::always_error());
        d.set_fault_plan(plan.shared());
        let r = d.query_parallel("winner", 10).unwrap();
        assert!(r.is_degraded());
        assert_eq!(r.failed_shards, vec![0]);
        assert_eq!(r.failovers, 0);
        for hit in &r.hits {
            assert_ne!(d.route(&hit.url), 0);
        }
    }

    #[test]
    fn zero_fault_plan_leaves_the_ranking_untouched() {
        let mut plain = build(4, 200);
        let mut injected = build(4, 200);
        injected.set_fault_plan(FaultPlan::none().shared());
        let a = plain.query_parallel("winner tennis", 10).unwrap();
        let b = injected.query_parallel("winner tennis", 10).unwrap();
        assert_eq!(a, b);
        assert_eq!(b.quality, 1.0);
    }

    #[test]
    fn a_failed_shard_degrades_the_answer_instead_of_erroring() {
        let mut d = build(4, 120);
        d.set_fault_plan(
            FaultPlan::seeded(1)
                .with_script("shard:1", vec![FaultAction::Error])
                .shared(),
        );
        let sizes = d.shard_sizes();
        let r = d.query_parallel("winner", 10).unwrap();
        assert!(r.is_degraded());
        assert_eq!(r.shards_ok, 3);
        assert_eq!(r.shards_failed, 1);
        assert_eq!(r.failed_shards, vec![1]);
        assert_eq!(r.per_shard_work[1], QueryWork::default());
        assert!(!r.hits.is_empty(), "survivors still answer");
        // No hit can come from the dead server…
        for hit in &r.hits {
            assert_ne!(d.route(&hit.url), 1, "hit from a failed shard: {hit:?}");
        }
        // …and the quality estimate is the surviving document fraction.
        let total: usize = sizes.iter().sum();
        let expected = (total - sizes[1]) as f64 / total as f64;
        assert!((r.quality - expected).abs() < 1e-12);
    }

    #[test]
    fn a_hung_shard_is_timed_out_and_dropped() {
        let mut d = build(4, 120);
        d.set_fault_plan(
            FaultPlan::seeded(2)
                .with_script("shard:2", vec![FaultAction::Hang])
                .shared(),
        );
        d.set_shard_deadline(Duration::from_millis(40));
        d.set_hang_duration(Duration::from_millis(160));
        let start = Instant::now();
        let r = d.query_parallel("winner", 10).unwrap();
        assert_eq!(r.failed_shards, vec![2]);
        assert!(!r.hits.is_empty());
        // The hang is bounded: the scope drains shortly after the sleep.
        assert!(
            start.elapsed() < Duration::from_secs(2),
            "hung shard stalled the query for {:?}",
            start.elapsed()
        );
        // A later query sees the recovered server again.
        let healthy = d.query_parallel("winner", 10).unwrap();
        assert_eq!(healthy.shards_failed, 0);
    }

    #[test]
    fn garbage_answers_count_as_failures() {
        let mut d = build(3, 90);
        d.set_fault_plan(
            FaultPlan::seeded(3)
                .with_script("shard:0", vec![FaultAction::Garbage])
                .shared(),
        );
        let r = d.query_parallel("tennis", 10).unwrap();
        assert_eq!(r.failed_shards, vec![0]);
        assert_eq!(r.shards_ok, 2);
    }

    #[test]
    fn all_shards_failing_is_an_error() {
        let mut d = build(3, 60);
        let plan = FaultPlan::seeded(4);
        plan.set_sites(
            (0..3).map(|g| format!("shard:{g}")),
            FaultSpec::always_error(),
        );
        d.set_fault_plan(plan.shared());
        match d.query_parallel("winner", 10) {
            Err(Error::AllShardsFailed(msg)) => {
                assert!(msg.contains("injected transport error"), "{msg}");
            }
            other => panic!("expected AllShardsFailed, got {other:?}"),
        }
    }

    #[test]
    fn elapsed_is_recorded_per_shard() {
        let mut d = build(4, 120);
        let serial = d.query_serial("winner", 10);
        assert_eq!(serial.shard_elapsed.len(), 4);
        let parallel = d.query_parallel("winner", 10).unwrap();
        assert_eq!(parallel.shard_elapsed.len(), 4);
        assert!(parallel.slowest_shard() < Duration::from_secs(1));
    }

    #[test]
    fn shard_window_is_derived_from_the_remaining_budget() {
        // A hung server with a *long* configured shard deadline: the
        // caller's almost-spent budget must clamp the collection
        // window, so the query degrades quickly instead of waiting the
        // full constant.
        let mut d = build(4, 120);
        d.set_fault_plan(
            FaultPlan::seeded(6)
                .with_script("shard:2", vec![FaultAction::Hang])
                .shared(),
        );
        d.set_shard_deadline(Duration::from_secs(10));
        d.set_hang_duration(Duration::from_millis(300));
        let budget = Budget::with_deadline(Duration::from_millis(60));
        let start = Instant::now();
        let r = d.search("winner", 10, None, &budget).unwrap();
        assert!(
            start.elapsed() < Duration::from_secs(2),
            "budget did not clamp the shard window: {:?}",
            start.elapsed()
        );
        assert_eq!(r.failed_shards, vec![2]);
        assert!(r.quality < 1.0);
        // The straggler is charged the whole (clamped) window.
        assert!(r.shard_elapsed[2] <= Duration::from_millis(60));
    }

    #[test]
    fn an_expired_budget_is_a_typed_deadline_error() {
        let mut d = build(3, 60);
        let budget = Budget::with_work(0);
        match d.search("winner", 10, None, &budget) {
            Err(Error::DeadlineExceeded {
                shards_answered, ..
            }) => assert_eq!(shards_answered, 0),
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
        let candidates: std::collections::HashSet<String> =
            corpus(60).into_iter().map(|(url, _)| url).collect();
        match d.search("winner", 10, Some(&candidates), &Budget::with_work(1)) {
            Err(Error::DeadlineExceeded {
                shards_answered,
                cause,
            }) => {
                assert_eq!(shards_answered, 1);
                assert_eq!(cause, faults::BudgetExceeded::Work);
            }
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
    }

    #[test]
    fn replicas_ride_on_their_groups_budget_unit() {
        // Work budget of exactly `servers` units, and a slow primary
        // that answers only after its group was hedged: group 1 gets
        // two good answers, but only one unit per *group* may be
        // charged — replication must not make budgets tighter.
        let mut d = build_replicated(3, 90, 1);
        d.set_shard_deadline(Duration::from_millis(200));
        d.set_fault_plan(
            FaultPlan::seeded(7)
                .with_delay_site(
                    "shard:1",
                    faults::DelaySpec::always(Duration::from_millis(140)),
                )
                .shared(),
        );
        let budget = Budget::with_work(3);
        let r = d.search("winner", 10, None, &budget).unwrap();
        assert_eq!(r.shards_ok, 3);
        assert!(!r.is_degraded());
    }

    #[test]
    fn delayed_shards_still_answer_within_the_window() {
        let mut d = build(4, 120);
        d.set_fault_plan(
            FaultPlan::none()
                .shared(),
        );
        let plain = d.query_parallel("winner", 10).unwrap();
        let mut slow = build(4, 120);
        slow.set_fault_plan(
            FaultPlan::seeded(8)
                .with_delay_site(
                    "shard:1",
                    faults::DelaySpec::always(Duration::from_millis(20)),
                )
                .shared(),
        );
        let delayed = slow.query_parallel("winner", 10).unwrap();
        // Slow is not dead: the answer is identical, only later.
        assert_eq!(plain, delayed);
        assert_eq!(delayed.shards_failed, 0);
        assert!(delayed.shard_elapsed[1] >= Duration::from_millis(20));
    }

    #[test]
    fn killing_a_shard_yields_exactly_the_survivors_ranking() {
        // The degraded merge must equal a fault-free merge over the
        // surviving servers only (same routing, dead shard's documents
        // absent) — no partial or stale data sneaks in.
        let mut d = build(4, 200);
        d.set_fault_plan(
            FaultPlan::seeded(5)
                .with_script("shard:3", vec![FaultAction::Error])
                .shared(),
        );
        let degraded = d.query_parallel("winner tennis", 10).unwrap();

        let survivors = build(4, 200);
        let full = survivors.query_serial("winner tennis", 200);
        let mut expected: Vec<&SearchHit> = full
            .hits
            .iter()
            .filter(|h| survivors.route(&h.url) != 3)
            .collect();
        expected.truncate(10);
        let urls = |hits: &[&SearchHit]| {
            hits.iter().map(|h| h.url.clone()).collect::<Vec<_>>()
        };
        assert_eq!(
            urls(&degraded.hits.iter().collect::<Vec<_>>()),
            urls(&expected)
        );
    }

    #[test]
    fn snapshot_restore_round_trips_replication_and_layout() {
        let mut d = build_replicated(4, 120, 2);
        let snaps = d.snapshot_shards().unwrap();
        let mut back = DistributedIndex::restore_shards(&snaps).unwrap();
        assert_eq!(back.servers(), 4);
        assert_eq!(back.replication(), 2);
        assert_eq!(back.layout(), d.layout());
        assert_eq!(back.shard_epochs(), d.shard_epochs());
        let a = d.query_serial("winner tennis", 10);
        let b = back.query_serial("winner tennis", 10);
        assert_eq!(a, b);
        // The restored replicas really hold the data: kill every
        // primary and the answer must still be complete.
        let plan = faults::FaultPlan::seeded(21);
        for g in 0..4 {
            plan.set_site(format!("shard:{g}"), FaultSpec::always_error());
        }
        back.set_fault_plan(plan.shared());
        let failed_over = back.query_parallel("winner tennis", 10).unwrap();
        assert_eq!(failed_over.failovers, 4);
        assert_eq!(failed_over.hits, a.hits);
    }

    #[test]
    fn restoring_a_skewed_snapshot_vector_is_a_typed_error() {
        let mut d = build(3, 60);
        let snaps = d.snapshot_shards().unwrap();

        // Wrong count: dropping one shard of the cut.
        match DistributedIndex::restore_shards(&snaps[..2]).map(|_| ()) {
            Err(Error::SnapshotMismatch(m)) => assert!(m.contains("cut"), "{m}"),
            other => panic!("expected SnapshotMismatch, got {other:?}"),
        }

        // Reordered: shard 1's snapshot restored at position 0.
        let swapped = vec![snaps[1].clone(), snaps[0].clone(), snaps[2].clone()];
        match DistributedIndex::restore_shards(&swapped).map(|_| ()) {
            Err(Error::SnapshotMismatch(m)) => assert!(m.contains("position"), "{m}"),
            other => panic!("expected SnapshotMismatch, got {other:?}"),
        }

        // Mixed cuts: shard 0 replaced by a snapshot from a *later*
        // epoch of the same index.
        d.index_document("http://site/late.html", "tennis winner late")
            .unwrap();
        d.commit().unwrap();
        let later = d.snapshot_shards().unwrap();
        let mixed = vec![later[0].clone(), snaps[1].clone(), snaps[2].clone()];
        match DistributedIndex::restore_shards(&mixed).map(|_| ()) {
            Err(Error::SnapshotMismatch(m)) => assert!(m.contains("cut epoch"), "{m}"),
            other => panic!("expected SnapshotMismatch, got {other:?}"),
        }

        // Not an envelope at all.
        match DistributedIndex::restore_shards(&[vec![0u8; 4]]).map(|_| ()) {
            Err(Error::SnapshotMismatch(m)) => assert!(m.contains("envelope"), "{m}"),
            other => panic!("expected SnapshotMismatch, got {other:?}"),
        }
    }

    #[test]
    fn apply_layout_moves_documents_and_preserves_the_answer() {
        let mut d = build_replicated(2, 150, 1);
        let before = d.query_serial("winner tennis", 15);
        // Split: move to 4 servers, round-robin.
        let new_layout: Vec<u16> = (0..ROUTE_SLOTS).map(|s| (s % 4) as u16).collect();
        let report = d.apply_layout(4, &new_layout).unwrap();
        assert_eq!(report.shards_before, 2);
        assert_eq!(report.shards_after, 4);
        assert!(report.moved_docs > 0);
        assert_eq!(d.servers(), 4);
        assert_eq!(d.shard_sizes().iter().sum::<usize>(), 150);
        for (url, _) in corpus(150) {
            assert!(d.contains_url(&url), "{url} lost in migration");
        }
        let after = d.query_serial("winner tennis", 15);
        assert_eq!(
            ranking(&before),
            ranking(&after),
            "ranking changed across rebalance"
        );
        // Merging down to 1 server is rejected while R=1 (replicas
        // need a distinct host)…
        assert!(d.apply_layout(1, &[0u16; ROUTE_SLOTS]).is_err());
        // …but merging to 2 works and still preserves the ranking.
        let half: Vec<u16> = (0..ROUTE_SLOTS).map(|s| (s % 2) as u16).collect();
        let report = d.apply_layout(2, &half).unwrap();
        assert_eq!(report.shards_after, 2);
        let merged = d.query_serial("winner tennis", 15);
        assert_eq!(ranking(&before), ranking(&merged));
    }

    #[test]
    fn an_injected_migration_failure_aborts_with_the_old_layout_intact() {
        let mut d = build_replicated(3, 90, 1);
        let before_layout = d.layout().to_vec();
        let before = d.query_serial("winner", 10);
        let plan = FaultPlan::seeded(22);
        plan.set_script("migrate:shard:1", vec![FaultAction::Error]);
        d.set_fault_plan(plan.shared());
        let new_layout: Vec<u16> = (0..ROUTE_SLOTS).map(|s| (s % 2) as u16).collect();
        let err = d.apply_layout(2, &new_layout).unwrap_err();
        assert!(err.to_string().contains("rebalance aborted"), "{err}");
        assert_eq!(d.layout(), &before_layout[..]);
        assert_eq!(d.servers(), 3);
        let after = d.query_serial("winner", 10);
        assert_eq!(before.hits, after.hits, "aborted rebalance must not move docs");
        // The fault script is spent: the retry succeeds.
        let report = d.apply_layout(2, &new_layout).unwrap();
        assert_eq!(report.shards_after, 2);
        let rebalanced = d.query_serial("winner", 10);
        assert_eq!(ranking(&before), ranking(&rebalanced));
    }

    #[test]
    fn round_robin_routing_answers_identically_to_the_serial_reference() {
        // Four queries over three copies: every copy index serves, and
        // the rotation wraps.
        let mut d = build_replicated(4, 200, 2);
        for (i, q) in ["winner tennis", "tennis", "winner", "report number3"]
            .into_iter()
            .enumerate()
        {
            let reference = d.query_serial(q, 10);
            let routed = d.query_parallel(q, 10).unwrap();
            assert_eq!(routed, reference, "the serving copy changed the answer for {q:?}");
            assert_eq!(routed.failovers, 0);
            assert_eq!(routed.served_by, vec![Some(i % 3); 4]);
        }
    }

    #[test]
    fn round_robin_rotates_across_copies() {
        let mut d = build_replicated(3, 90, 2);
        let mut seen: Vec<Vec<usize>> = vec![Vec::new(); 3];
        for _ in 0..3 {
            let r = d.query_parallel("winner", 10).unwrap();
            assert_eq!(r.failovers, 0);
            for (g, copy) in r.served_by.iter().enumerate() {
                seen[g].push(copy.unwrap());
            }
        }
        // Three queries over three copies: every copy of every group
        // served exactly once.
        for (g, copies) in seen.iter().enumerate() {
            let mut sorted = copies.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, vec![0, 1, 2], "group {g} rotation: {copies:?}");
        }
    }

    #[test]
    fn a_failed_routed_copy_is_rescued_exactly() {
        let mut d = build_replicated(3, 120, 1);
        // The first query selects copy 0 everywhere; kill group 1's
        // primary so its selected copy fails and the replica rescues.
        d.set_fault_plan(
            FaultPlan::seeded(31)
                .with_script("shard:1", vec![FaultAction::Error])
                .shared(),
        );
        let r = d.query_parallel("winner tennis", 10).unwrap();
        assert!(!r.is_degraded(), "rescue should have covered: {r:?}");
        assert_eq!(r.failovers, 1);
        assert_eq!(r.served_by[1], Some(1));
        assert_eq!(r.hits, d.query_serial("winner tennis", 10).hits);
    }

    #[test]
    fn a_hung_routed_copy_is_hedged_within_the_window() {
        let mut d = build_replicated(3, 120, 1);
        d.set_shard_deadline(Duration::from_millis(200));
        d.set_hang_duration(Duration::from_millis(400));
        d.set_fault_plan(
            FaultPlan::seeded(32)
                .with_script("shard:0", vec![FaultAction::Hang])
                .shared(),
        );
        let r = d.query_parallel("winner", 10).unwrap();
        assert!(
            !r.is_degraded(),
            "the half-window hedge should have rescued group 0: {r:?}"
        );
        assert_eq!(r.served_by[0], Some(1));
        assert_eq!(r.failovers, 1);
    }

    #[test]
    fn failure_streaks_accumulate_and_declare_loss() {
        let (threshold, replicas) = (3u32, 1usize);
        let mut d = build_replicated(4, 120, replicas);
        let reference = d.query_serial("winner", 10);
        // A quiet cluster declares nothing, however long it runs.
        for _ in 0..5 {
            d.query_parallel("winner", 10).unwrap();
            assert_eq!(d.lost_servers(threshold), Vec::<usize>::new());
        }
        let plan = FaultPlan::seeded(33);
        for label in d.fault_labels_for_server(2) {
            plan.set_site(label, FaultSpec::always_error());
        }
        d.set_fault_plan(plan.shared());
        // Each query selects one of the `R + 1` copies the dead server
        // hosts, so its streaks reach the threshold within
        // `threshold × (R + 1)` queries — not `threshold` — and every
        // query on the way is rescued exactly.
        let bound = threshold as usize * (replicas + 1);
        let mut asked = 0;
        while d.lost_servers(threshold).is_empty() {
            asked += 1;
            assert!(asked <= bound, "not declared lost within {bound} queries");
            let r = d.query_parallel("winner", 10).unwrap();
            assert_eq!(r.hits, reference.hits, "query {asked}");
            assert_eq!(r.shards_failed, 0, "query {asked}");
            assert_eq!(r.failovers, 1, "query {asked}");
        }
        assert_eq!(d.lost_servers(threshold), vec![2]);
        assert!(asked > threshold as usize, "a streak counts consultations, not queries");
        // A healthy copy answering resets its streak: drop the faults
        // and `R + 1` clean queries — one consultation of every copy —
        // clear them all.
        d.set_fault_plan(FaultPlan::none().shared());
        for _ in 0..=replicas {
            d.query_parallel("winner", 10).unwrap();
        }
        assert!(d.placement.fail_streak.iter().flatten().all(|&s| s == 0));
    }

    #[test]
    fn rereplication_restores_redundancy_onto_survivors() {
        let mut d = build_replicated(4, 160, 1);
        let before = d.query_parallel("winner tennis", 10).unwrap();
        let mut job = d.begin_rereplication(2).unwrap();
        // Host 2 held group 2's primary and group 1's replica.
        assert_eq!(job.objects(), 2);
        while !job.step(None).unwrap() {
            // The rebuild works off private snapshots: a query between
            // two steps is answered exactly, from the old placement.
            assert_eq!(d.query_parallel("winner tennis", 10).unwrap(), before);
        }
        let installed = d.commit_rereplication(job).unwrap();
        assert_eq!(installed, 2);
        assert_ne!(d.placement.host[2][0], 2, "primary must move off the dead host");
        assert!(!d.replica_servers(1).contains(&2));
        // Copies of each affected group stay host-disjoint.
        for g in [1usize, 2] {
            let mut hosts = vec![d.placement.host[g][0]];
            hosts.extend(d.replica_servers(g));
            hosts.sort_unstable();
            hosts.dedup();
            assert_eq!(hosts.len(), 2, "group {g} copies share a host");
        }
        // The answer is unchanged, and a whole-machine kill of the new
        // placement's *other* hosts still fails over exactly.
        let after = d.query_parallel("winner tennis", 10).unwrap();
        assert_eq!(before, after);
        // The relocated primary is consulted under its host-qualified
        // label: killing the dead host's old labels does nothing.
        let plan = FaultPlan::seeded(34);
        plan.set_site("shard:2", FaultSpec::always_error());
        d.set_fault_plan(plan.shared());
        let unaffected = d.query_parallel("winner tennis", 10).unwrap();
        assert_eq!(unaffected.failovers, 0, "stale label hit the moved primary");
    }

    #[test]
    fn an_injected_rereplication_fault_aborts_byte_identically() {
        let mut d = build_replicated(4, 160, 1);
        let layout_before = d.layout().to_vec();
        let content_before = d.content_snapshot_shards().unwrap();
        let placement_before: Vec<(usize, Vec<usize>)> = (0..4)
            .map(|g| (d.placement.host[g][0], d.replica_servers(g)))
            .collect();
        let plan = FaultPlan::seeded(35);
        plan.set_site("rereplicate:2:2", FaultSpec::always_error());
        d.set_fault_plan(plan.shared());
        let mut job = d.begin_rereplication(2).unwrap();
        let plan_ref = d.faults.clone();
        let mut failed = false;
        loop {
            match job.step(plan_ref.as_deref()) {
                Ok(true) => break,
                Ok(false) => {}
                Err(e) => {
                    assert!(e.to_string().contains("re-replication aborted"), "{e}");
                    failed = true;
                    break;
                }
            }
        }
        assert!(failed, "the injected fault should have fired");
        drop(job);
        assert_eq!(d.layout(), &layout_before[..]);
        assert_eq!(d.content_snapshot_shards().unwrap(), content_before);
        let placement_after: Vec<(usize, Vec<usize>)> = (0..4)
            .map(|g| (d.placement.host[g][0], d.replica_servers(g)))
            .collect();
        assert_eq!(placement_before, placement_after);
    }

    #[test]
    fn a_stale_rereplication_commit_is_refused() {
        let mut d = build_replicated(3, 90, 1);
        let mut job = d.begin_rereplication(1).unwrap();
        while !job.step(None).unwrap() {}
        // The cluster moves on while the job was being built.
        d.index_document("http://site/new.html", "tennis winner fresh")
            .unwrap();
        d.commit().unwrap();
        match d.commit_rereplication(job) {
            Err(Error::RereplicationStale { pinned, current }) => {
                assert!(current > pinned);
            }
            other => panic!("expected RereplicationStale, got {other:?}"),
        }
    }

    #[test]
    fn rereplication_with_no_surviving_copy_is_an_error() {
        // R=0: losing a server loses its group's only copy.
        let mut d = build(3, 60);
        match d.begin_rereplication(0).map(|j| j.objects()) {
            Err(Error::Config(m)) => assert!(m.contains("no surviving copy"), "{m}"),
            other => panic!("expected Config error, got {other:?}"),
        }
    }

    #[test]
    fn cutover_bumps_the_epoch_past_every_old_value() {
        let mut d = build(2, 60);
        let before = d.epoch();
        let new_layout: Vec<u16> = (0..ROUTE_SLOTS).map(|s| (s % 2) as u16).collect();
        let report = d.apply_layout(2, &new_layout).unwrap();
        assert!(report.cutover_epoch > before);
        assert_eq!(d.last_cutover_epoch(), report.cutover_epoch);
        assert!(d.epoch() >= report.cutover_epoch, "caches must invalidate");
    }
}
