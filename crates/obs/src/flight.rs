//! The black-box flight recorder: a bounded ring of operational
//! events, fed from the system's existing choke points (admission
//! ladder transitions, control-plane decisions, maintenance
//! commit/abort, replica failovers, slow queries, SLO alerts).
//!
//! The ring answers the question a metrics scrape cannot: *what
//! happened just before things went wrong*. It keeps the most recent
//! [`FLIGHT_CAPACITY`] events; [`crate::Obs::record_event`] appends (a no-op on
//! a disabled handle — the detail closure never runs), and
//! [`crate::Obs::flight_events`] snapshots the ring for an incident
//! report.

use crate::report::Json;

/// Number of events the ring retains.
pub(crate) const FLIGHT_CAPACITY: usize = 256;

/// One recorded operational event.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FlightEvent {
    /// Monotonic event counter (survives ring eviction).
    pub seq: u64,
    /// Clock reading at record time (0 under a [`crate::NoopClock`]).
    pub at_ns: u64,
    /// Event category: `"admission"`, `"control"`, `"maintenance"`,
    /// `"failover"`, `"slow_query"`, `"slo"`, `"incident"`, …
    pub kind: &'static str,
    /// Free-form description of what happened.
    pub detail: String,
}

impl FlightEvent {
    /// The event as a JSON object, for incident reports.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("seq".to_owned(), Json::Int(self.seq as i64)),
            ("at_ns".to_owned(), Json::Int(self.at_ns as i64)),
            ("kind".to_owned(), Json::str(self.kind)),
            ("detail".to_owned(), Json::str(self.detail.clone())),
        ])
    }
}

/// The bounded ring behind [`crate::Obs`]'s flight recorder.
#[derive(Debug, Default)]
pub(crate) struct FlightRing {
    next_seq: u64,
    events: std::collections::VecDeque<FlightEvent>,
}

impl FlightRing {
    pub(crate) fn push(&mut self, at_ns: u64, kind: &'static str, detail: String) {
        self.next_seq += 1;
        if self.events.len() == FLIGHT_CAPACITY {
            self.events.pop_front();
        }
        self.events.push_back(FlightEvent {
            seq: self.next_seq,
            at_ns,
            kind,
            detail,
        });
    }

    pub(crate) fn snapshot(&self) -> Vec<FlightEvent> {
        self.events.iter().cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_is_bounded_and_seq_survives_eviction() {
        let mut ring = FlightRing::default();
        for at in 0..FLIGHT_CAPACITY as u64 {
            ring.push(at, "a", String::new());
        }
        ring.push(1_000, "b", "two".to_owned());
        ring.push(1_001, "c", "three".to_owned());
        let events = ring.snapshot();
        assert_eq!(events.len(), FLIGHT_CAPACITY);
        assert_eq!(events[0].seq, 3);
        let last = &events[FLIGHT_CAPACITY - 1];
        assert_eq!(last.seq, FLIGHT_CAPACITY as u64 + 2);
        assert_eq!(last.kind, "c");
        assert_eq!(ring.next_seq, FLIGHT_CAPACITY as u64 + 2);
    }

    #[test]
    fn event_json_shape_is_stable() {
        let e = FlightEvent {
            seq: 7,
            at_ns: 42,
            kind: "control",
            detail: "split".to_owned(),
        };
        let text = e.to_json().render();
        assert!(text.contains("\"seq\": 7"), "{text}");
        assert!(text.contains("\"kind\": \"control\""), "{text}");
        assert!(text.contains("\"detail\": \"split\""), "{text}");
    }
}
