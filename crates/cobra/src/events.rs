//! Event recognition over observation sequences.
//!
//! COBRA's extensions: "the model is extended with object and event
//! grammars. These grammars are aimed at formalizing the descriptions of
//! high-level concepts, as well as facilitating their extraction based
//! on spatio-temporal reasoning." An [`EventRule`] is such a description:
//! either a quantified per-frame condition (netplay: *some* frame has the
//! player's y at the net) or a phased rule requiring consecutive
//! sub-conditions in temporal order (an approach: far from the net, then
//! near it).

use serde::{Deserialize, Serialize};

use crate::model::{Event, PlayerObservation};
use crate::synth::NET_Y;

/// Observation attribute referenced by a condition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ObsAttr {
    /// Mass-centre x.
    X,
    /// Mass-centre y.
    Y,
    /// Region area.
    Area,
    /// Eccentricity.
    Eccentricity,
    /// Orientation in degrees.
    Orientation,
}

impl ObsAttr {
    fn of(self, o: &PlayerObservation) -> f64 {
        match self {
            ObsAttr::X => o.x,
            ObsAttr::Y => o.y,
            ObsAttr::Area => o.area,
            ObsAttr::Eccentricity => o.eccentricity,
            ObsAttr::Orientation => o.orientation,
        }
    }
}

/// Comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CmpOp {
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

/// A per-frame condition.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Cond {
    /// Compare an attribute against a constant.
    Cmp(ObsAttr, CmpOp, f64),
    /// Conjunction.
    And(Box<Cond>, Box<Cond>),
    /// Disjunction.
    Or(Box<Cond>, Box<Cond>),
    /// Negation.
    Not(Box<Cond>),
}

impl Cond {
    /// Evaluates against one observation.
    pub fn holds(&self, o: &PlayerObservation) -> bool {
        match self {
            Cond::Cmp(attr, op, c) => {
                let v = attr.of(o);
                match op {
                    CmpOp::Lt => v < *c,
                    CmpOp::Le => v <= *c,
                    CmpOp::Gt => v > *c,
                    CmpOp::Ge => v >= *c,
                }
            }
            Cond::And(a, b) => a.holds(o) && b.holds(o),
            Cond::Or(a, b) => a.holds(o) || b.holds(o),
            Cond::Not(a) => !a.holds(o),
        }
    }
}

/// Temporal quantifiers (matching the feature-grammar quantifiers).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Quant {
    /// At least one frame.
    Some,
    /// Every frame.
    All,
    /// Exactly one frame.
    One,
}

/// A spatio-temporal event rule.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum EventRule {
    /// A quantified per-frame condition.
    Quantified {
        /// Event name.
        name: String,
        /// Quantifier.
        quant: Quant,
        /// Per-frame condition.
        cond: Cond,
    },
    /// Ordered phases, each a condition that must hold for at least
    /// `min_frames` *consecutive* frames, phases in temporal order.
    Phased {
        /// Event name.
        name: String,
        /// The phases: `(condition, minimum consecutive frames)`.
        phases: Vec<(Cond, usize)>,
    },
}

impl EventRule {
    /// The rule's event name.
    pub fn name(&self) -> &str {
        match self {
            EventRule::Quantified { name, .. } | EventRule::Phased { name, .. } => name,
        }
    }

    /// The running example: `netplay` — the player approaches the net in
    /// at least one frame (Figure 7: `some[tennis.frame](player.yPos <=
    /// 170.0)`).
    pub fn netplay() -> EventRule {
        EventRule::Quantified {
            name: "netplay".to_owned(),
            quant: Quant::Some,
            cond: Cond::Cmp(ObsAttr::Y, CmpOp::Le, NET_Y),
        }
    }

    /// A net *approach*: at least 10 frames at the baseline followed by
    /// at least 3 frames at the net.
    pub fn net_approach() -> EventRule {
        EventRule::Phased {
            name: "net_approach".to_owned(),
            phases: vec![
                (Cond::Cmp(ObsAttr::Y, CmpOp::Gt, 300.0), 10),
                (Cond::Cmp(ObsAttr::Y, CmpOp::Le, NET_Y), 3),
            ],
        }
    }

    /// Evaluates the rule over an observation sequence; returns the
    /// evidence window if the event occurred.
    pub fn detect(&self, obs: &[PlayerObservation]) -> Option<Event> {
        match self {
            EventRule::Quantified { name, quant, cond } => {
                let hits: Vec<usize> = obs
                    .iter()
                    .enumerate()
                    .filter(|(_, o)| cond.holds(o))
                    .map(|(i, _)| i)
                    .collect();
                let ok = match quant {
                    Quant::Some => !hits.is_empty(),
                    Quant::All => hits.len() == obs.len() && !obs.is_empty(),
                    Quant::One => hits.len() == 1,
                };
                if ok {
                    let begin = obs[*hits.first()?].frame;
                    let end = obs[*hits.last()?].frame;
                    Some(Event {
                        name: name.clone(),
                        begin,
                        end,
                    })
                } else {
                    None
                }
            }
            EventRule::Phased { name, phases } => {
                let mut pos = 0usize;
                let mut evidence_begin = None;
                for (cond, min_frames) in phases {
                    // Find the first run of ≥ min_frames consecutive
                    // matches starting at or after `pos`.
                    let mut run_start = None;
                    let mut run_len = 0usize;
                    let mut found = None;
                    for (i, o) in obs.iter().enumerate().skip(pos) {
                        if cond.holds(o) {
                            if run_start.is_none() {
                                run_start = Some(i);
                                run_len = 0;
                            }
                            run_len += 1;
                            if run_len >= *min_frames {
                                found = Some((run_start.expect("run started"), i));
                                break;
                            }
                        } else {
                            run_start = None;
                            run_len = 0;
                        }
                    }
                    let (start, end) = found?;
                    if evidence_begin.is_none() {
                        evidence_begin = Some(obs[start].frame);
                    }
                    pos = end + 1;
                }
                Some(Event {
                    name: name.clone(),
                    begin: evidence_begin?,
                    end: obs.get(pos.saturating_sub(1))?.frame,
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::classify_video;
    use crate::model::ShotClass;
    use crate::synth::BroadcastSpec;
    use crate::track::track_player;

    fn obs(path: &[(f64, f64)]) -> Vec<PlayerObservation> {
        path.iter()
            .enumerate()
            .map(|(i, (x, y))| PlayerObservation {
                frame: i,
                x: *x,
                y: *y,
                area: 1000.0,
                eccentricity: 0.9,
                orientation: 90.0,
            })
            .collect()
    }

    #[test]
    fn netplay_fires_exactly_on_ground_truth() {
        let video = BroadcastSpec::typical(6, 50).generate();
        let classified = classify_video(&video);
        let rule = EventRule::netplay();
        for (idx, (shot, class)) in classified.iter().enumerate() {
            if *class != ShotClass::Tennis {
                continue;
            }
            let track = track_player(&video, shot);
            let detected = rule.detect(&track).is_some();
            assert_eq!(
                detected, video.truth[idx].netplay,
                "shot {idx}: detected {detected}"
            );
        }
    }

    #[test]
    fn all_quantifier_requires_every_frame() {
        let rule = EventRule::Quantified {
            name: "always_back".into(),
            quant: Quant::All,
            cond: Cond::Cmp(ObsAttr::Y, CmpOp::Gt, 300.0),
        };
        assert!(rule.detect(&obs(&[(0.0, 400.0), (0.0, 350.0)])).is_some());
        assert!(rule.detect(&obs(&[(0.0, 400.0), (0.0, 100.0)])).is_none());
        assert!(rule.detect(&obs(&[])).is_none());
    }

    #[test]
    fn one_quantifier_counts_exactly_one() {
        let rule = EventRule::Quantified {
            name: "single_dip".into(),
            quant: Quant::One,
            cond: Cond::Cmp(ObsAttr::Y, CmpOp::Le, 170.0),
        };
        assert!(rule.detect(&obs(&[(0.0, 400.0), (0.0, 100.0)])).is_some());
        assert!(rule
            .detect(&obs(&[(0.0, 100.0), (0.0, 150.0)]))
            .is_none());
    }

    #[test]
    fn phased_rule_requires_order() {
        let rule = EventRule::net_approach();
        // 12 frames back, then 4 at the net: matches.
        let mut path: Vec<(f64, f64)> = (0..12).map(|_| (0.0, 400.0)).collect();
        path.extend((0..4).map(|_| (0.0, 100.0)));
        assert!(rule.detect(&obs(&path)).is_some());
        // Net first, then baseline: order violated.
        let mut reversed: Vec<(f64, f64)> = (0..4).map(|_| (0.0, 100.0)).collect();
        reversed.extend((0..12).map(|_| (0.0, 400.0)));
        assert!(rule.detect(&obs(&reversed)).is_none());
        // Run too short: no match.
        let mut short: Vec<(f64, f64)> = (0..12).map(|_| (0.0, 400.0)).collect();
        short.extend((0..2).map(|_| (0.0, 100.0)));
        assert!(rule.detect(&obs(&short)).is_none());
    }

    #[test]
    fn boolean_conditions_compose() {
        let cond = Cond::And(
            Box::new(Cond::Cmp(ObsAttr::Y, CmpOp::Le, 170.0)),
            Box::new(Cond::Not(Box::new(Cond::Cmp(ObsAttr::Area, CmpOp::Lt, 500.0)))),
        );
        let o = &obs(&[(0.0, 100.0)])[0];
        assert!(cond.holds(o));
    }
}
