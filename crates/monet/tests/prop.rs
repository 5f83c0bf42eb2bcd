//! Property-based tests for the BAT store invariants.
#![allow(clippy::unwrap_used)]

use std::collections::{BTreeMap, HashSet};

use monet::{Bat, Db, Oid, Value};
use proptest::prelude::*;

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        any::<u64>().prop_map(|v| Value::Oid(Oid::from_raw(v))),
        any::<i64>().prop_map(Value::Int),
        // Finite floats only: NaN is not a legal stored value by contract.
        (-1.0e12f64..1.0e12).prop_map(Value::Flt),
        "[a-z]{0,12}".prop_map(Value::Str),
        any::<bool>().prop_map(Value::Bit),
    ]
}

/// Rows with the same value kind, so they fit a single BAT.
fn arb_rows() -> impl Strategy<Value = Vec<(u64, Value)>> {
    arb_value().prop_flat_map(|proto| {
        let kind = proto.kind();
        prop::collection::vec((0u64..64, arb_value()), 0..64).prop_map(move |rows| {
            rows.into_iter()
                .filter(|(_, v)| v.kind() == kind)
                .collect::<Vec<_>>()
        })
    })
}

fn build_bat(rows: &[(u64, Value)]) -> Option<Bat> {
    let first = rows.first()?;
    let mut bat = Bat::with_kind(first.1.kind());
    for (h, v) in rows {
        bat.append(Oid::from_raw(*h), v.clone()).ok()?;
    }
    Some(bat)
}

proptest! {
    #[test]
    fn append_preserves_every_association(rows in arb_rows()) {
        if let Some(bat) = build_bat(&rows) {
            prop_assert_eq!(bat.len(), rows.len());
            for (i, (h, v)) in rows.iter().enumerate() {
                let (bh, bv) = bat.at(i);
                prop_assert_eq!(bh, Oid::from_raw(*h));
                prop_assert_eq!(&bv, v);
            }
        }
    }

    #[test]
    fn lookup_agrees_with_scan(rows in arb_rows(), probe in 0u64..64) {
        if let Some(bat) = build_bat(&rows) {
            let probe = Oid::from_raw(probe);
            let scanned: Vec<Value> = rows.iter()
                .filter(|(h, _)| Oid::from_raw(*h) == probe)
                .map(|(_, v)| v.clone())
                .collect();
            prop_assert_eq!(bat.tails_of(probe), scanned);
        }
    }

    #[test]
    fn delete_head_removes_exactly_that_head(rows in arb_rows(), victim in 0u64..64) {
        if let Some(mut bat) = build_bat(&rows) {
            let victim = Oid::from_raw(victim);
            let expected_removed = rows.iter()
                .filter(|(h, _)| Oid::from_raw(*h) == victim)
                .count();
            let removed = bat.delete_head(victim);
            prop_assert_eq!(removed, expected_removed);
            prop_assert_eq!(bat.len(), rows.len() - expected_removed);
            prop_assert!(!bat.heads().any(|h| h == victim));
        }
    }

    #[test]
    fn snapshot_restore_is_identity(rows in arb_rows()) {
        let mut db = Db::new();
        if let Some(bat) = build_bat(&rows) {
            db.create("r", bat).unwrap();
        }
        let back = monet::persist::restore(&monet::persist::snapshot(&db).unwrap()).unwrap();
        assert_eq!(back.relation_count(), db.relation_count());
        for name in db.relation_names() {
            prop_assert_eq!(back.get(name).unwrap(), db.get(name).unwrap());
        }
    }

    #[test]
    fn corrupted_snapshot_never_panics_or_lies(
        rows in arb_rows(),
        byte_pick in any::<u64>(),
        bit in 0u8..8,
    ) {
        let mut db = Db::new();
        if let Some(bat) = build_bat(&rows) {
            db.create("r", bat).unwrap();
        }
        let mut bytes = monet::persist::snapshot(&db).unwrap();
        let at = (byte_pick % bytes.len() as u64) as usize;
        bytes[at] ^= 1 << bit;
        // Any single flipped bit must surface as a typed snapshot error
        // (the CRC trailer catches it) or, at the very worst, decode to
        // a catalog identical to the original — never panic, never a
        // silently different catalog.
        match monet::persist::restore(&bytes) {
            Err(monet::Error::Snapshot(_)) => {}
            Err(other) => prop_assert!(false, "unexpected error kind: {:?}", other),
            Ok(back) => {
                prop_assert_eq!(back.relation_count(), db.relation_count());
                for name in db.relation_names() {
                    prop_assert_eq!(back.get(name).unwrap(), db.get(name).unwrap());
                }
            }
        }
    }
}

/// One mutation of a BAT's head column, for the head-index property.
#[derive(Debug, Clone)]
enum Step {
    /// `n` appends with non-decreasing heads `from, from + stride, …`.
    InOrder {
        from: u64,
        n: u64,
        stride: u64,
    },
    /// Appends of arbitrary heads, mostly out of order.
    Scattered(Vec<u64>),
    /// Enough scattered appends to outgrow any overlay and force a fold.
    Flood {
        seed: u64,
        n: u64,
    },
    /// The last head appended again.
    Repeat,
    Upsert(u64),
    DeleteHead(u64),
    DeleteHeads(Vec<u64>),
    FromParts,
}

const HEADS: u64 = 96;

fn arb_step() -> impl Strategy<Value = Step> {
    prop_oneof![
        (0..HEADS, 1u64..48, 0u64..3).prop_map(|(from, n, stride)| Step::InOrder {
            from,
            n,
            stride
        }),
        (0..HEADS, 1u64..48, 0u64..3).prop_map(|(from, n, stride)| Step::InOrder {
            from,
            n,
            stride
        }),
        prop::collection::vec(0..HEADS, 1..24).prop_map(Step::Scattered),
        prop::collection::vec(0..HEADS, 1..24).prop_map(Step::Scattered),
        Just(Step::Repeat),
        (0..HEADS).prop_map(Step::Upsert),
        (0..HEADS).prop_map(Step::DeleteHead),
        prop::collection::vec(0..HEADS, 0..6).prop_map(Step::DeleteHeads),
        Just(Step::FromParts),
    ]
}

/// Steps, and in one case out of eight a flood somewhere among them.
fn arb_steps() -> impl Strategy<Value = Vec<Step>> {
    (
        prop::collection::vec(arb_step(), 1..16),
        0u8..8,
        any::<u64>(),
        4_200u64..4_400,
    )
        .prop_map(|(mut steps, flood, seed, n)| {
            if flood == 0 {
                let at = (seed % steps.len() as u64) as usize;
                steps.insert(at, Step::Flood { seed, n });
            }
            steps
        })
}

fn apply(bat: &mut Bat, step: &Step, next: &mut i64) {
    let mut push = |bat: &mut Bat, h: u64| {
        bat.append_int(Oid::from_raw(h), *next).unwrap();
        *next += 1;
    };
    match step {
        Step::InOrder { from, n, stride } => {
            for i in 0..*n {
                push(bat, from + i * stride);
            }
        }
        Step::Scattered(heads) => heads.iter().for_each(|&h| push(bat, h)),
        Step::Flood { seed, n } => {
            for i in 0..*n {
                push(
                    bat,
                    seed.wrapping_add(i.wrapping_mul(0x9E37_79B9)) % (4 * HEADS),
                );
            }
        }
        Step::Repeat => {
            if let Some(h) = bat.heads().last() {
                push(bat, h.raw());
            }
        }
        Step::Upsert(h) => {
            bat.upsert(Oid::from_raw(*h), Value::Int(*next)).unwrap();
            *next += 1;
        }
        Step::DeleteHead(h) => {
            bat.delete_head(Oid::from_raw(*h));
        }
        Step::DeleteHeads(hs) => {
            let hs: HashSet<Oid> = hs.iter().map(|&h| Oid::from_raw(h)).collect();
            bat.delete_heads(&hs);
        }
        Step::FromParts => {
            *bat = Bat::from_parts(bat.heads().collect(), bat.tail().clone()).unwrap();
        }
    }
}

/// Every head's `positions` equals a scan of the head column.
fn assert_positions_match_scan(bat: &Bat, after: &Step) {
    let mut scan: BTreeMap<Oid, Vec<u32>> = BTreeMap::new();
    for (p, h) in bat.heads().enumerate() {
        scan.entry(h).or_default().push(p as u32);
    }
    let probes = (0..4 * HEADS + 48 * 3)
        .map(Oid::from_raw)
        .chain(scan.keys().copied());
    for h in probes {
        let got: Vec<u32> = bat.positions(h).collect();
        let want = scan.get(&h).map(Vec::as_slice).unwrap_or(&[]);
        assert_eq!(got, want, "head {h:?} after {after:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn head_index_agrees_with_a_scan_of_the_head_column(steps in arb_steps()) {
        let mut bat = Bat::new_int();
        let mut next = 0;
        for step in &steps {
            apply(&mut bat, step, &mut next);
            assert_positions_match_scan(&bat, step);
        }
    }
}
