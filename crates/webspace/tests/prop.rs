//! Property tests for the conceptual level: materialized views survive
//! the XML round trip for arbitrary object graphs, index merging is
//! order-insensitive where the paper requires it, and the indexed graph
//! answers exactly like a linear scan.

use std::collections::HashMap;

use proptest::prelude::*;
use webspace::{
    Association, AttrDef, AttrType, AttrValue, ConceptualQuery, MaterializedView, MediaType,
    Predicate, WebObject, WebspaceIndex, WebspaceSchema,
};

fn arb_attr_value() -> impl Strategy<Value = AttrValue> {
    prop_oneof![
        "[ -~]{0,24}".prop_map(|s| AttrValue::Text(s.trim().to_owned())),
        any::<i64>().prop_map(AttrValue::Int),
        (-1.0e9f64..1.0e9).prop_map(AttrValue::Float),
        "[a-z]{1,12}".prop_map(|s| AttrValue::Uri(format!("http://x/{s}"))),
        ("[a-z]{1,12}", 0usize..4).prop_map(|(s, t)| AttrValue::Media {
            ty: match t {
                0 => MediaType::Hypertext,
                1 => MediaType::Image,
                2 => MediaType::Video,
                _ => MediaType::Audio,
            },
            location: format!("http://x/{s}"),
        }),
    ]
}

fn arb_object(idx: usize) -> impl Strategy<Value = WebObject> {
    prop::collection::vec(("[a-z]{1,8}", arb_attr_value()), 0..5).prop_map(move |attrs| {
        let mut o = WebObject::new("Thing", format!("thing:{idx}"));
        for (name, value) in attrs {
            o.attrs.insert(name, value);
        }
        o
    })
}

fn arb_view() -> impl Strategy<Value = MaterializedView> {
    prop::collection::vec(any::<u8>(), 1..6).prop_flat_map(|ids| {
        let objects: Vec<_> = ids
            .iter()
            .enumerate()
            .map(|(i, _)| arb_object(i))
            .collect();
        (objects, prop::collection::vec((0usize..5, 0usize..5), 0..4)).prop_map(
            |(objects, links)| {
                let mut view = MaterializedView::new("prop.html", "PropSpace");
                let n = objects.len();
                view.objects = objects;
                for (a, b) in links {
                    if a < n && b < n {
                        view.associations.push(Association::new(
                            "Linked",
                            format!("thing:{a}"),
                            format!("thing:{b}"),
                        ));
                    }
                }
                view
            },
        )
    })
}

/// The graph schema: three classes with one attribute of every kind, and
/// four associations forming a cycle plus a self-loop on `K0`.
const ASSOCIATIONS: [(&str, usize, usize); 4] =
    [("R01", 0, 1), ("R12", 1, 2), ("R20", 2, 0), ("R00", 0, 0)];

/// Twelve object ids, `o{i}` of class `K{i % 3}`: few enough that views
/// overlap, repeat associations and link to objects that arrive later.
const POOL: usize = 12;

fn graph_schema() -> WebspaceSchema {
    let mut schema = WebspaceSchema::new("Graph");
    for class in 0..3 {
        let attr = |name: &str, ty| AttrDef {
            name: name.into(),
            ty,
        };
        schema
            .add_class(
                format!("K{class}"),
                vec![
                    attr("name", AttrType::Varchar(32)),
                    attr("code", AttrType::Uri),
                    attr("n", AttrType::Int),
                    attr("x", AttrType::Float),
                    attr("clip", AttrType::Media(MediaType::Video)),
                ],
            )
            .expect("distinct class names");
    }
    for (name, from, to) in ASSOCIATIONS {
        schema
            .add_association(name, format!("K{from}"), format!("K{to}"))
            .expect("associations between declared classes");
    }
    schema
}

/// Mixed-case text with non-ASCII letters ASCII folding must leave alone.
fn arb_text() -> impl Strategy<Value = String> {
    "[aAbÉé]{0,3}"
}

fn maybe<S: Strategy>(value: S) -> impl Strategy<Value = Option<S::Value>> {
    (any::<bool>(), value).prop_map(|(some, v)| some.then_some(v))
}

fn arb_graph_object() -> impl Strategy<Value = WebObject> {
    (
        0..POOL,
        maybe(arb_text()),
        maybe(arb_text()),
        maybe(-3i64..3),
        maybe(-3i64..3),
        maybe(arb_text()),
    )
        .prop_map(|(i, name, code, n, x, clip)| {
            let mut o = WebObject::new(format!("K{}", i % 3), format!("o{i}"));
            let mut set = |attr: &str, value| {
                o.attrs.insert(attr.into(), value);
            };
            if let Some(s) = name {
                set("name", AttrValue::Text(s));
            }
            if let Some(s) = code {
                set("code", AttrValue::Uri(s));
            }
            if let Some(n) = n {
                set("n", AttrValue::Int(n));
            }
            if let Some(x) = x {
                set("x", AttrValue::Float(x as f64 / 2.0));
            }
            if let Some(s) = clip {
                set(
                    "clip",
                    AttrValue::Media {
                        ty: MediaType::Video,
                        location: s,
                    },
                );
            }
            o
        })
}

fn arb_graph_view() -> impl Strategy<Value = MaterializedView> {
    (
        prop::collection::vec(arb_graph_object(), 0..6),
        prop::collection::vec((0..ASSOCIATIONS.len(), 0..POOL / 3, 0..POOL / 3), 0..8),
    )
        .prop_map(|(objects, links)| {
            let mut view = MaterializedView::new("graph.html", "Graph");
            view.objects = objects;
            for (a, k_from, k_to) in links {
                let (name, from, to) = ASSOCIATIONS[a];
                view.associations.push(Association::new(
                    name,
                    format!("o{}", 3 * k_from + from),
                    format!("o{}", 3 * k_to + to),
                ));
            }
            view
        })
}

fn arb_predicate() -> impl Strategy<Value = Predicate> {
    const ATTRS: [&str; 6] = ["name", "code", "n", "x", "clip", "ghost"];
    let attr = || (0..ATTRS.len()).prop_map(|i| ATTRS[i].to_owned());
    let value = prop_oneof![arb_text(), (-3i64..3).prop_map(|n| n.to_string())];
    prop_oneof![
        (attr(), value).prop_map(|(attr, value)| Predicate::Eq { attr, value }),
        (attr(), "[aAbÉé]{0,2}").prop_map(|(attr, needle)| Predicate::Contains { attr, needle }),
        (attr(), -3i64..3, -3i64..3).prop_map(|(attr, lo, hi)| Predicate::IntRange {
            attr,
            lo,
            hi
        }),
    ]
}

/// A query from a random class through 0–3 join steps, each following
/// one of the associations that start at the current class.
fn arb_graph_query() -> impl Strategy<Value = ConceptualQuery> {
    let step = (any::<usize>(), prop::collection::vec(arb_predicate(), 0..2));
    (
        0usize..3,
        prop::collection::vec(arb_predicate(), 0..3),
        prop::collection::vec(step, 0..=3),
    )
        .prop_map(|(start, predicates, steps)| {
            let mut query = ConceptualQuery::from_class(format!("K{start}"));
            query.predicates = predicates;
            let mut class = start;
            for (choice, predicates) in steps {
                let out: Vec<_> = ASSOCIATIONS.iter().filter(|a| a.1 == class).collect();
                let (name, _, to) = *out[choice % out.len()];
                query = query.join(name, predicates);
                class = to;
            }
            query
        })
}

/// The reference: the object graph as one linear scan over objects and
/// associations, with the allocating case folding — what the index
/// replaced.
#[derive(Default)]
struct NaiveGraph {
    objects: Vec<WebObject>,
    by_id: HashMap<String, usize>,
    associations: Vec<Association>,
}

impl NaiveGraph {
    fn add_view(&mut self, view: &MaterializedView) {
        for object in &view.objects {
            match self.by_id.get(&object.id) {
                Some(&idx) => {
                    for (k, v) in &object.attrs {
                        self.objects[idx].attrs.insert(k.clone(), v.clone());
                    }
                }
                None => {
                    self.by_id.insert(object.id.clone(), self.objects.len());
                    self.objects.push(object.clone());
                }
            }
        }
        for assoc in &view.associations {
            if !self.associations.contains(assoc) {
                self.associations.push(assoc.clone());
            }
        }
    }

    fn objects_of(&self, class: &str) -> Vec<&WebObject> {
        self.objects.iter().filter(|o| o.class == class).collect()
    }

    fn targets(&self, from: &str, association: &str) -> Vec<&WebObject> {
        self.associations
            .iter()
            .filter(|a| a.name == association && a.from == from)
            .filter_map(|a| self.by_id.get(&a.to).map(|&i| &self.objects[i]))
            .collect()
    }

    /// The answer rows and the work units the execution pays.
    fn execute(&self, query: &ConceptualQuery) -> (Vec<Vec<String>>, u64) {
        let mut examined = 0;
        let mut rows: Vec<Vec<String>> = Vec::new();
        for o in self.objects_of(&query.from_class) {
            examined += 1;
            if query.predicates.iter().all(|p| naive_holds(p, o)) {
                rows.push(vec![o.id.clone()]);
            }
        }
        for step in &query.joins {
            let mut next = Vec::new();
            for row in rows {
                examined += 1;
                for target in
                    self.targets(row.last().expect("rows are non-empty"), &step.association)
                {
                    if step.predicates.iter().all(|p| naive_holds(p, target)) {
                        let mut extended = row.clone();
                        extended.push(target.id.clone());
                        next.push(extended);
                    }
                }
            }
            rows = next;
        }
        (rows, examined)
    }
}

fn naive_holds(predicate: &Predicate, object: &WebObject) -> bool {
    match predicate {
        Predicate::Eq { attr, value } => object
            .attr(attr)
            .is_some_and(|v| v.lexical().eq_ignore_ascii_case(value)),
        Predicate::Contains { attr, needle } => object.attr(attr).is_some_and(|v| {
            v.lexical()
                .to_ascii_lowercase()
                .contains(&needle.to_ascii_lowercase())
        }),
        Predicate::IntRange { attr, lo, hi } => {
            matches!(object.attr(attr), Some(AttrValue::Int(i)) if i >= lo && i <= hi)
        }
    }
}

fn ids(objects: Vec<&WebObject>) -> Vec<&str> {
    objects.into_iter().map(|o| o.id.as_str()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn views_round_trip_through_xml_text(view in arb_view()) {
        let xml = monetxml::to_xml(&view.to_document());
        let doc = monetxml::parse_document(&xml).unwrap();
        let back = MaterializedView::from_document(&doc).unwrap();
        prop_assert_eq!(back, view);
    }

    #[test]
    fn index_merge_is_view_order_insensitive_for_disjoint_views(
        mut views in prop::collection::vec(arb_view(), 1..4),
        order_seed in any::<u64>(),
    ) {
        // Rename ids so views are disjoint (merging semantics for
        // overlapping attrs is last-wins, hence order-sensitive by
        // design; disjoint views must commute).
        let mut schema = webspace::WebspaceSchema::new("PropSpace");
        schema.add_class("Thing", vec![]).unwrap();
        schema.add_association("Linked", "Thing", "Thing").unwrap();
        // Allow arbitrary attrs: validation would reject unknown attrs,
        // so strip them for this property.
        for (vi, view) in views.iter_mut().enumerate() {
            for o in view.objects.iter_mut() {
                o.id = format!("v{vi}:{}", o.id);
                o.attrs.clear();
            }
            for a in view.associations.iter_mut() {
                a.from = format!("v{vi}:{}", a.from);
                a.to = format!("v{vi}:{}", a.to);
            }
        }

        let mut forward = WebspaceIndex::new(schema.clone());
        for v in &views {
            forward.add_view(v).unwrap();
        }
        let mut shuffled = views.clone();
        // Deterministic pseudo-shuffle.
        if shuffled.len() > 1 {
            let k = (order_seed as usize) % shuffled.len();
            shuffled.rotate_left(k);
        }
        let mut backward = WebspaceIndex::new(schema);
        for v in &shuffled {
            backward.add_view(v).unwrap();
        }
        prop_assert_eq!(forward.object_count(), backward.object_count());
        prop_assert_eq!(
            forward.associations().len(),
            backward.associations().len()
        );
    }

    #[test]
    fn the_indexed_graph_answers_like_a_linear_scan(
        views in prop::collection::vec(arb_graph_view(), 1..5),
        queries in prop::collection::vec(arb_graph_query(), 1..6),
    ) {
        let mut index = WebspaceIndex::new(graph_schema());
        let mut naive = NaiveGraph::default();
        for view in &views {
            index.add_view(view).unwrap();
            naive.add_view(view);
        }
        prop_assert_eq!(index.object_count(), naive.objects.len());
        prop_assert_eq!(index.associations(), naive.associations.as_slice());

        for class in ["K0", "K1", "K2", "Ghost"] {
            prop_assert_eq!(
                ids(index.objects_of(class).collect()),
                ids(naive.objects_of(class))
            );
        }
        for i in 0..POOL {
            let from = format!("o{i}");
            for (name, _, _) in ASSOCIATIONS {
                prop_assert_eq!(
                    ids(index.targets(&from, name)),
                    ids(naive.targets(&from, name))
                );
            }
        }

        for query in &queries {
            for p in query.predicates.iter().chain(query.joins.iter().flat_map(|j| &j.predicates)) {
                for o in &naive.objects {
                    prop_assert_eq!(p.holds(o), naive_holds(p, o), "{:?} on {:?}", p, o);
                }
            }
            let (rows, examined) = naive.execute(query);
            let chains: Vec<Vec<String>> =
                index.execute(query).unwrap().into_iter().map(|r| r.chain).collect();
            prop_assert_eq!(&chains, &rows);
            // Work accounting: exactly `examined` units suffice.
            let exact = index.execute_budgeted(query, &faults::Budget::with_work(examined));
            prop_assert_eq!(exact.unwrap().len(), rows.len());
            if examined > 0 {
                let short = faults::Budget::with_work(examined - 1);
                prop_assert!(index.execute_budgeted(query, &short).is_err());
            }
        }
    }
}
