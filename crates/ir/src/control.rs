//! The distribution control plane's *policy* half: pure, deterministic
//! decisions over observed cluster state.
//!
//! The mechanism layer ([`distrib`](crate::distrib) /
//! [`rebalance`](crate::rebalance)) can split, merge, fail over and
//! re-replicate — but something has to decide *when*. That is this
//! module: a [`ControlPolicy`] is fed a [`ClusterView`] (shard sizes,
//! the observed p99 critical path, declared-lost servers) once per
//! **tick** and emits at most one [`ControlDecision`]. Ticks, not wall
//! clocks, drive it, so tests replay the exact same decision sequence
//! every run; the executing layer (`dlsearch::Operator`) owns the
//! side effects, the admission gating and the fault consultation.
//!
//! Decision priority, most to least urgent:
//!
//! 1. **Re-replicate** around the first declared-lost server — lost
//!    redundancy is one fault away from data loss, so this bypasses the
//!    rate limit.
//! 2. **Split** (grow the cluster by one server) when the largest shard
//!    exceeds `split_docs_per_shard` or the observed p99 critical path
//!    exceeds `slow_shard`.
//! 3. **Merge** (shrink by one) when *every* shard is below
//!    `merge_docs_per_shard` — the cluster is paying coordination cost
//!    for capacity it does not use.
//!
//! Layout changes are rate-limited by `cooldown_ticks`: after a
//! split/merge the policy stays quiet until the cluster has had time to
//! settle, so one hot interval cannot thrash the layout back and forth.

use std::time::Duration;

/// Thresholds and rate limits steering a [`ControlPolicy`]. The
/// defaults suit the test corpus sizes; production deployments tune
/// them like any other capacity knob.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ControlConfig {
    /// A shard above this many documents asks for a split.
    pub split_docs_per_shard: usize,
    /// When **every** shard is below this, the cluster merges down.
    /// Keep this well under `split_docs_per_shard` or the policy
    /// oscillates.
    pub merge_docs_per_shard: usize,
    /// An observed shard-p99 critical path above this asks for a split
    /// (the latency analogue of the document threshold).
    pub slow_shard: Duration,
    /// Consecutive failed consultations of **every** copy a server
    /// hosts before it is declared permanently lost. A healthy group
    /// reads one of its `R + 1` copies per query, so detection takes up
    /// to `loss_threshold × (R + 1)` queries.
    pub loss_threshold: u32,
    /// Ticks a layout change (split/merge) is followed by silence.
    pub cooldown_ticks: u64,
    /// The cluster never merges below this many servers.
    pub min_servers: usize,
    /// The cluster never splits above this many servers.
    pub max_servers: usize,
}

impl Default for ControlConfig {
    fn default() -> Self {
        ControlConfig {
            split_docs_per_shard: 10_000,
            merge_docs_per_shard: 1_000,
            slow_shard: Duration::from_millis(150),
            loss_threshold: 3,
            cooldown_ticks: 10,
            min_servers: 1,
            max_servers: 16,
        }
    }
}

/// One observation of the cluster, as the policy sees it. The executing
/// layer assembles this from `DistributedIndex` accessors under a brief
/// lock; the policy itself never touches the index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterView {
    /// Logical servers currently serving.
    pub servers: usize,
    /// Replicas per shard group.
    pub replication: usize,
    /// Documents held by each shard, in shard order.
    pub docs_per_shard: Vec<usize>,
    /// The p99 of recent parallel-query critical paths, reconstructed
    /// by the operator loop from `ir_critical_path_seconds` bucket
    /// deltas over its window, so one slow outlier ages out of the
    /// trigger on a predictable horizon. Zero when the window holds no
    /// parallel query, or with observability off.
    pub shard_p99: Duration,
    /// Virtual servers whose every hosted copy has exceeded the
    /// consecutive-failure threshold.
    pub lost_servers: Vec<usize>,
}

/// What the policy wants done, with the observation that justified it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ControlDecision {
    /// Rebuild the copies hosted by this permanently lost server onto
    /// survivors.
    Rereplicate {
        /// The server declared lost.
        lost: usize,
        /// Human-readable justification (for EXPLAIN and the log).
        reason: String,
    },
    /// Grow the cluster to `target` servers.
    Split {
        /// Server count to rebalance to.
        target: usize,
        /// Human-readable justification.
        reason: String,
    },
    /// Shrink the cluster to `target` servers.
    Merge {
        /// Server count to rebalance to.
        target: usize,
        /// Human-readable justification.
        reason: String,
    },
}

impl ControlDecision {
    /// The metric label value for this decision
    /// (`ir_control_decisions_total{action=…}`).
    pub fn action(&self) -> &'static str {
        match self {
            ControlDecision::Rereplicate { .. } => "rereplicate",
            ControlDecision::Split { .. } => "split",
            ControlDecision::Merge { .. } => "merge",
        }
    }

    /// The justification carried by the decision.
    pub fn reason(&self) -> &str {
        match self {
            ControlDecision::Rereplicate { reason, .. }
            | ControlDecision::Split { reason, .. }
            | ControlDecision::Merge { reason, .. } => reason,
        }
    }
}

/// The deterministic decision core: feed it a [`ClusterView`] each tick
/// and execute what it returns. It keeps only two words of state — the
/// tick counter and when the last layout change happened — so its whole
/// behaviour is a function of the views it was shown.
#[derive(Debug, Clone)]
pub struct ControlPolicy {
    cfg: ControlConfig,
    tick: u64,
    /// Tick of the last split/merge (`None` = never), anchoring the
    /// cooldown window.
    last_layout_tick: Option<u64>,
}

impl ControlPolicy {
    /// A policy with the given thresholds, at tick zero.
    pub fn new(cfg: ControlConfig) -> Self {
        ControlPolicy {
            cfg,
            tick: 0,
            last_layout_tick: None,
        }
    }

    /// The configured thresholds.
    pub fn config(&self) -> &ControlConfig {
        &self.cfg
    }

    /// Advances the tick counter. Call exactly once per control-loop
    /// round, before [`evaluate`](ControlPolicy::evaluate).
    pub fn tick(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }

    /// Whether a split/merge decided now would violate the cooldown.
    pub fn in_cooldown(&self) -> bool {
        match self.last_layout_tick {
            Some(at) => self.tick.saturating_sub(at) < self.cfg.cooldown_ticks,
            None => false,
        }
    }

    /// Records that a layout change was actually executed, arming the
    /// cooldown window. The executing layer calls this only on success
    /// — an aborted rebalance leaves the policy free to retry.
    pub fn note_layout_change(&mut self) {
        self.last_layout_tick = Some(self.tick);
    }

    /// The decision for this tick's view, if any. Pure: same view and
    /// policy state, same decision.
    pub fn evaluate(&self, view: &ClusterView) -> Option<ControlDecision> {
        // Lost redundancy first, and never rate-limited: every query
        // until the rebuild is one fault from degradation.
        if let Some(&lost) = view.lost_servers.first() {
            return Some(ControlDecision::Rereplicate {
                lost,
                reason: format!(
                    "server {lost} exceeded {} consecutive failures on every hosted copy",
                    self.cfg.loss_threshold
                ),
            });
        }
        if self.in_cooldown() {
            return None;
        }
        let max_docs = view.docs_per_shard.iter().copied().max().unwrap_or(0);
        // A split must leave room for the replicas' distinct hosts,
        // which `servers + 1` always does when `servers` did.
        if view.servers < self.cfg.max_servers {
            if max_docs > self.cfg.split_docs_per_shard {
                return Some(ControlDecision::Split {
                    target: view.servers + 1,
                    reason: format!(
                        "largest shard holds {max_docs} docs (> {})",
                        self.cfg.split_docs_per_shard
                    ),
                });
            }
            if !view.shard_p99.is_zero() && view.shard_p99 > self.cfg.slow_shard {
                return Some(ControlDecision::Split {
                    target: view.servers + 1,
                    reason: format!(
                        "shard p99 {:?} exceeds {:?}",
                        view.shard_p99, self.cfg.slow_shard
                    ),
                });
            }
        }
        // Merging down needs the floor, the replication head-room on
        // the smaller cluster, and every shard idle-small.
        let floor = self.cfg.min_servers.max(view.replication + 1);
        if view.servers > floor
            && !view.docs_per_shard.is_empty()
            && max_docs < self.cfg.merge_docs_per_shard
        {
            return Some(ControlDecision::Merge {
                target: view.servers - 1,
                reason: format!(
                    "every shard below {} docs (largest: {max_docs})",
                    self.cfg.merge_docs_per_shard
                ),
            });
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn view(servers: usize, docs: Vec<usize>) -> ClusterView {
        ClusterView {
            servers,
            replication: 1,
            docs_per_shard: docs,
            shard_p99: Duration::ZERO,
            lost_servers: Vec::new(),
        }
    }

    fn policy(cooldown: u64) -> ControlPolicy {
        ControlPolicy::new(ControlConfig {
            split_docs_per_shard: 100,
            merge_docs_per_shard: 10,
            cooldown_ticks: cooldown,
            min_servers: 2,
            max_servers: 8,
            ..ControlConfig::default()
        })
    }

    #[test]
    fn a_hot_shard_triggers_a_split() {
        let mut p = policy(5);
        p.tick();
        let d = p.evaluate(&view(3, vec![50, 150, 40])).unwrap();
        assert_eq!(d.action(), "split");
        assert!(matches!(d, ControlDecision::Split { target: 4, .. }));
        assert!(d.reason().contains("150"), "{}", d.reason());
    }

    #[test]
    fn a_slow_p99_triggers_a_split() {
        let mut p = policy(5);
        p.tick();
        let mut v = view(3, vec![50, 50, 50]);
        v.shard_p99 = Duration::from_secs(1);
        let d = p.evaluate(&v).unwrap();
        assert!(matches!(d, ControlDecision::Split { target: 4, .. }));
    }

    #[test]
    fn an_idle_cluster_merges_down_but_not_below_the_floor() {
        let mut p = policy(0);
        p.tick();
        let d = p.evaluate(&view(4, vec![2, 3, 1, 2])).unwrap();
        assert!(matches!(d, ControlDecision::Merge { target: 3, .. }));
        // min_servers = 2 but replication = 1 also needs >= 2 hosts:
        // at 2 servers nothing merges.
        assert_eq!(p.evaluate(&view(2, vec![2, 3])), None);
    }

    #[test]
    fn a_balanced_cluster_decides_nothing() {
        let mut p = policy(5);
        p.tick();
        assert_eq!(p.evaluate(&view(3, vec![50, 60, 40])), None);
    }

    #[test]
    fn cooldown_silences_layout_changes_but_never_rereplication() {
        let mut p = policy(10);
        p.tick();
        assert!(p.evaluate(&view(3, vec![150, 10, 10])).is_some());
        p.note_layout_change();
        for _ in 0..9 {
            p.tick();
            assert_eq!(p.evaluate(&view(3, vec![150, 10, 10])), None, "in cooldown");
        }
        // Loss bypasses the cooldown entirely.
        let mut lossy = view(3, vec![150, 10, 10]);
        lossy.lost_servers = vec![1];
        let d = p.evaluate(&lossy).unwrap();
        assert!(matches!(d, ControlDecision::Rereplicate { lost: 1, .. }));
        // Tick 11: the cooldown has elapsed, the split fires again.
        p.tick();
        assert!(p.evaluate(&view(3, vec![150, 10, 10])).is_some());
    }

    #[test]
    fn the_cluster_never_splits_past_max_servers() {
        let mut p = policy(0);
        p.tick();
        assert_eq!(p.evaluate(&view(8, vec![500; 8])), None);
    }

    #[test]
    fn decisions_are_deterministic() {
        let mut a = policy(3);
        let mut b = policy(3);
        let views = [
            view(3, vec![150, 10, 10]),
            view(4, vec![40, 40, 40, 40]),
            view(4, vec![2, 2, 2, 2]),
        ];
        for v in &views {
            a.tick();
            b.tick();
            assert_eq!(a.evaluate(v), b.evaluate(v));
        }
    }
}
