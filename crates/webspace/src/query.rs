//! Conceptual queries over a populated webspace.
//!
//! "Novel within the scope of search engines … is that it allows a user
//! to integrate information stored in different documents in a single
//! query" and "specific conceptual information can be fetched as the
//! result of a query, rather than a bunch of relevant document URLs."
//!
//! A [`WebspaceIndex`] merges the materialized views of many documents
//! into one object graph (objects with the same id contributed by
//! different documents merge their attributes — the document *overlap*
//! that makes cross-document queries possible). A [`ConceptualQuery`]
//! selects objects of a class, filters on attribute predicates, and
//! walks association chains; the result is conceptual data, not URLs.

use std::borrow::Cow;
use std::collections::{HashMap, HashSet};

use serde::{Deserialize, Serialize};

use crate::error::{Error, Result};
use crate::object::{Association, AttrValue, WebObject};
use crate::schema::WebspaceSchema;
use crate::view::MaterializedView;

/// A predicate on one attribute of the current class.
///
/// `Eq` and `Contains` compare the attribute's lexical form
/// case-insensitively, and the case folding is ASCII-only: `A` matches
/// `a`, but `É` does not match `é`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Predicate {
    /// Attribute equals the given text (case-insensitive).
    Eq {
        /// Attribute name.
        attr: String,
        /// Expected value.
        value: String,
    },
    /// Attribute text contains the needle (case-insensitive). For
    /// `Hypertext` attributes the engine layer replaces this with ranked
    /// full-text retrieval; here it is exact containment.
    Contains {
        /// Attribute name.
        attr: String,
        /// Substring to find.
        needle: String,
    },
    /// Integer attribute within an inclusive range.
    IntRange {
        /// Attribute name.
        attr: String,
        /// Lower bound.
        lo: i64,
        /// Upper bound.
        hi: i64,
    },
}

impl Predicate {
    /// Evaluates against one object. Missing attributes fail the
    /// predicate.
    pub fn holds(&self, object: &WebObject) -> bool {
        match self {
            Predicate::Eq { attr, value } => object
                .attr(attr)
                .is_some_and(|v| lexical(v).eq_ignore_ascii_case(value)),
            Predicate::Contains { attr, needle } => object
                .attr(attr)
                .is_some_and(|v| contains_ignore_ascii_case(&lexical(v), needle)),
            Predicate::IntRange { attr, lo, hi } => match object.attr(attr) {
                Some(AttrValue::Int(i)) => i >= lo && i <= hi,
                _ => false,
            },
        }
    }
}

/// `value.lexical()` without the copy where the value already is text.
fn lexical(value: &AttrValue) -> Cow<'_, str> {
    match value {
        AttrValue::Text(s) | AttrValue::Uri(s) | AttrValue::Media { location: s, .. } => {
            Cow::Borrowed(s)
        }
        AttrValue::Int(_) | AttrValue::Float(_) => Cow::Owned(value.lexical()),
    }
}

/// `haystack.to_ascii_lowercase().contains(&needle.to_ascii_lowercase())`
/// without either copy: ASCII folding maps bytes one to one, so a byte
/// window compare finds the same matches.
fn contains_ignore_ascii_case(haystack: &str, needle: &str) -> bool {
    needle.is_empty()
        || haystack
            .as_bytes()
            .windows(needle.len())
            .any(|w| w.eq_ignore_ascii_case(needle.as_bytes()))
}

/// One join step: follow an association from the current class, filter
/// the targets.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JoinStep {
    /// Association name (must start at the current class).
    pub association: String,
    /// Predicates on the target objects.
    pub predicates: Vec<Predicate>,
}

/// A conceptual query: class selection, predicates, association chain.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ConceptualQuery {
    /// The class the query starts from.
    pub from_class: String,
    /// Predicates on the starting class.
    pub predicates: Vec<Predicate>,
    /// Association chain to walk.
    pub joins: Vec<JoinStep>,
}

impl ConceptualQuery {
    /// A query over `class` with no predicates.
    pub fn from_class(class: impl Into<String>) -> Self {
        ConceptualQuery {
            from_class: class.into(),
            predicates: Vec::new(),
            joins: Vec::new(),
        }
    }

    /// Adds a predicate on the starting class (builder style).
    pub fn filter(mut self, p: Predicate) -> Self {
        self.predicates.push(p);
        self
    }

    /// Adds a join step (builder style).
    pub fn join(mut self, association: impl Into<String>, predicates: Vec<Predicate>) -> Self {
        self.joins.push(JoinStep {
            association: association.into(),
            predicates,
        });
        self
    }
}

/// One result row: the chain of matched object ids, starting class
/// first, one per join step after.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct QueryResult {
    /// Matched object ids along the chain.
    pub chain: Vec<String>,
}

/// Metric handles for the conceptual level.
#[derive(Debug, Clone)]
struct WebspaceMetrics {
    queries: obs::Counter,
    rows_examined: obs::Counter,
    rows_out: obs::Counter,
    joins_walked: obs::Counter,
}

impl WebspaceMetrics {
    fn register(registry: &obs::Registry) -> WebspaceMetrics {
        WebspaceMetrics {
            queries: registry.counter(
                "webspace_queries_total",
                "Conceptual queries executed against the object graph",
            ),
            rows_examined: registry.counter(
                "webspace_rows_examined_total",
                "Candidate rows examined (seeds plus join expansions)",
            ),
            rows_out: registry.counter(
                "webspace_rows_out_total",
                "Result rows produced by conceptual queries",
            ),
            joins_walked: registry.counter(
                "webspace_joins_total",
                "Association-chain join steps walked",
            ),
        }
    }
}

/// The merged object graph of a webspace.
///
/// Besides the objects and associations in insertion order, `add_view`
/// maintains three indexes so a query looks up instead of scanning:
/// `by_class` (class → object positions), `adjacency` (association
/// name → from id → association positions) and `association_set` (the
/// duplicate check). Adjacency stores association positions, not target
/// objects: a target is resolved through `by_id` when a query runs, so
/// one whose object arrives in a later view resolves then.
#[derive(Debug, Clone)]
pub struct WebspaceIndex {
    schema: WebspaceSchema,
    objects: Vec<WebObject>,
    by_id: HashMap<String, usize>,
    by_class: HashMap<String, Vec<usize>>,
    associations: Vec<Association>,
    association_set: HashSet<Association>,
    adjacency: HashMap<String, HashMap<String, Vec<usize>>>,
    metrics: Option<WebspaceMetrics>,
}

impl WebspaceIndex {
    /// An empty index over `schema`.
    pub fn new(schema: WebspaceSchema) -> Self {
        WebspaceIndex {
            schema,
            objects: Vec::new(),
            by_id: HashMap::new(),
            by_class: HashMap::new(),
            associations: Vec::new(),
            association_set: HashSet::new(),
            adjacency: HashMap::new(),
            metrics: None,
        }
    }

    /// Connects the index to an observability handle: executed queries
    /// feed the `webspace_*` counters. A disabled handle disconnects.
    pub fn set_obs(&mut self, o: &obs::Obs) {
        self.metrics = o.registry().map(WebspaceMetrics::register);
    }

    /// The schema.
    pub fn schema(&self) -> &WebspaceSchema {
        &self.schema
    }

    /// Merges one materialized view into the index. Objects with an id
    /// already present merge their attributes (later documents win on
    /// conflicts); class mismatches are errors, and a view that has one
    /// leaves the index untouched.
    pub fn add_view(&mut self, view: &MaterializedView) -> Result<()> {
        view.validate(&self.schema)?;
        // Every class is checked before anything is mutated: against the
        // index, and against an earlier object of this same view.
        let mut new_classes: HashMap<&str, &str> = HashMap::new();
        for object in &view.objects {
            let class = match self.by_id.get(&object.id) {
                Some(&idx) => self.objects[idx].class.as_str(),
                None => new_classes.entry(&object.id).or_insert(&object.class),
            };
            if class != object.class {
                return Err(Error::Query(format!(
                    "object `{}` is both {class} and {}",
                    object.id, object.class
                )));
            }
        }
        for object in &view.objects {
            match self.by_id.get(&object.id) {
                Some(&idx) => {
                    let existing = &mut self.objects[idx];
                    for (k, v) in &object.attrs {
                        existing.attrs.insert(k.clone(), v.clone());
                    }
                }
                None => {
                    let idx = self.objects.len();
                    self.by_id.insert(object.id.clone(), idx);
                    self.by_class
                        .entry(object.class.clone())
                        .or_default()
                        .push(idx);
                    self.objects.push(object.clone());
                }
            }
        }
        for assoc in &view.associations {
            if self.association_set.contains(assoc) {
                continue;
            }
            self.adjacency
                .entry(assoc.name.clone())
                .or_default()
                .entry(assoc.from.clone())
                .or_default()
                .push(self.associations.len());
            self.association_set.insert(assoc.clone());
            self.associations.push(assoc.clone());
        }
        Ok(())
    }

    /// The object with id `id`.
    pub fn object(&self, id: &str) -> Option<&WebObject> {
        self.by_id.get(id).map(|&i| &self.objects[i])
    }

    /// All objects of `class`, in insertion order.
    pub fn objects_of<'a>(&'a self, class: &'a str) -> impl Iterator<Item = &'a WebObject> + 'a {
        self.members(class).iter().map(|&i| &self.objects[i])
    }

    /// Positions of the objects of `class`, in insertion order.
    fn members(&self, class: &str) -> &[usize] {
        self.by_class.get(class).map_or(&[], Vec::as_slice)
    }

    /// Positions of the present targets of `association` from object
    /// `from`, in association insertion order.
    fn target_positions<'a>(
        &'a self,
        from: &str,
        association: &str,
    ) -> impl Iterator<Item = usize> + 'a {
        self.adjacency
            .get(association)
            .and_then(|by_from| by_from.get(from))
            .into_iter()
            .flatten()
            .filter_map(|&a| self.by_id.get(&self.associations[a].to).copied())
    }

    /// Number of objects.
    pub fn object_count(&self) -> usize {
        self.objects.len()
    }

    /// All association instances.
    pub fn associations(&self) -> &[Association] {
        &self.associations
    }

    /// Targets of `association` from object `from`.
    pub fn targets(&self, from: &str, association: &str) -> Vec<&WebObject> {
        self.target_positions(from, association)
            .map(|i| &self.objects[i])
            .collect()
    }

    /// Executes a conceptual query.
    pub fn execute(&self, query: &ConceptualQuery) -> Result<Vec<QueryResult>> {
        self.execute_budgeted(query, &faults::Budget::unlimited())
    }

    /// Executes a conceptual query under a caller budget: one work
    /// unit per candidate row examined (seed objects and join
    /// expansions alike), so a runaway join is cancelled at row
    /// granularity with a typed [`Error::DeadlineExceeded`] instead of
    /// running forever.
    pub fn execute_budgeted(
        &self,
        query: &ConceptualQuery,
        budget: &faults::Budget,
    ) -> Result<Vec<QueryResult>> {
        // Validate against the schema first.
        let mut class = self
            .schema
            .class(&query.from_class)
            .ok_or_else(|| Error::Query(format!("unknown class `{}`", query.from_class)))?
            .name
            .clone();
        for step in &query.joins {
            let assoc = self.schema.association(&step.association).ok_or_else(|| {
                Error::Query(format!("unknown association `{}`", step.association))
            })?;
            if assoc.from != class {
                return Err(Error::Query(format!(
                    "association `{}` starts at `{}`, not `{class}`",
                    step.association, assoc.from
                )));
            }
            class = assoc.to.clone();
        }

        if let Some(m) = &self.metrics {
            m.queries.inc();
        }

        // Seed: objects of the starting class passing all predicates.
        // One work unit per candidate object examined. Rows are object
        // positions stored flat, `width` to a row (every row of a stage
        // has the same length), so a row costs no allocation until its
        // ids are copied out for the answer.
        let mut examined: u64 = 0;
        let mut rows: Vec<usize> = Vec::new();
        for &i in self.members(&query.from_class) {
            examined += 1;
            budget.consume(1).map_err(|cause| Error::DeadlineExceeded {
                rows: rows.len(),
                cause,
            })?;
            if query.predicates.iter().all(|p| p.holds(&self.objects[i])) {
                rows.push(i);
            }
        }

        // Walk the association chain, paying one unit per expanded row.
        let mut width = 1;
        for step in &query.joins {
            if let Some(m) = &self.metrics {
                m.joins_walked.inc();
            }
            let mut next = Vec::new();
            for row in rows.chunks_exact(width) {
                examined += 1;
                budget.consume(1).map_err(|cause| Error::DeadlineExceeded {
                    rows: next.len() / (width + 1),
                    cause,
                })?;
                let last = &self.objects[row[width - 1]].id;
                for t in self.target_positions(last, &step.association) {
                    if step.predicates.iter().all(|p| p.holds(&self.objects[t])) {
                        next.extend_from_slice(row);
                        next.push(t);
                    }
                }
            }
            rows = next;
            width += 1;
        }

        if let Some(m) = &self.metrics {
            m.rows_examined.add(examined);
            m.rows_out.add((rows.len() / width) as u64);
        }
        Ok(rows
            .chunks_exact(width)
            .map(|row| QueryResult {
                chain: row.iter().map(|&i| self.objects[i].id.clone()).collect(),
            })
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object::AttrValue;
    use crate::paper::ausopen_schema;
    use crate::schema::MediaType;

    /// Two documents: a player page and an article page, overlapping on
    /// the player object — the Figure 3 "slashed boxes" situation.
    fn populated() -> WebspaceIndex {
        let mut index = WebspaceIndex::new(ausopen_schema());

        let mut player_page = MaterializedView::new("players/seles.html", "AustralianOpen");
        player_page.objects.push(
            WebObject::new("Player", "player:seles")
                .with("name", AttrValue::Text("Monica Seles".into()))
                .with("gender", AttrValue::Text("female".into()))
                .with("hand", AttrValue::Text("left".into()))
                .with(
                    "history",
                    AttrValue::Media {
                        ty: MediaType::Hypertext,
                        location: "players/seles-history.html".into(),
                    },
                ),
        );
        player_page.objects.push(
            WebObject::new("Profile", "profile:seles")
                .with("document", AttrValue::Uri("profiles/seles.xml".into()))
                .with(
                    "video",
                    AttrValue::Media {
                        ty: MediaType::Video,
                        location: "http://x/seles-final.mpg".into(),
                    },
                ),
        );
        player_page
            .associations
            .push(Association::new("Is_covered_in", "player:seles", "profile:seles"));
        index.add_view(&player_page).unwrap();

        let mut article_page = MaterializedView::new("news/day1.html", "AustralianOpen");
        article_page.objects.push(
            WebObject::new("Article", "article:day1")
                .with("title", AttrValue::Text("Seles storms into final".into())),
        );
        // The article page also mentions the player (overlap!), adding
        // her country.
        article_page.objects.push(
            WebObject::new("Player", "player:seles")
                .with("country", AttrValue::Text("USA".into())),
        );
        article_page
            .associations
            .push(Association::new("About", "article:day1", "player:seles"));
        index.add_view(&article_page).unwrap();

        index
    }

    #[test]
    fn views_merge_objects_across_documents() {
        let index = populated();
        let seles = index.object("player:seles").unwrap();
        // name came from the player page, country from the article page.
        assert_eq!(seles.attr("name").unwrap().lexical(), "Monica Seles");
        assert_eq!(seles.attr("country").unwrap().lexical(), "USA");
        assert_eq!(index.object_count(), 3);
    }

    #[test]
    fn select_with_predicates() {
        let index = populated();
        let q = ConceptualQuery::from_class("Player")
            .filter(Predicate::Eq {
                attr: "gender".into(),
                value: "Female".into(), // case-insensitive
            })
            .filter(Predicate::Eq {
                attr: "hand".into(),
                value: "left".into(),
            });
        let rows = index.execute(&q).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].chain, vec!["player:seles"]);
    }

    #[test]
    fn join_walks_associations_across_documents() {
        let index = populated();
        // Article → About → Player → Is_covered_in → Profile: a single
        // query integrating three documents.
        let q = ConceptualQuery::from_class("Article")
            .join("About", vec![Predicate::Eq {
                attr: "hand".into(),
                value: "left".into(),
            }])
            .join("Is_covered_in", vec![]);
        let rows = index.execute(&q).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(
            rows[0].chain,
            vec!["article:day1", "player:seles", "profile:seles"]
        );
    }

    #[test]
    fn join_from_wrong_class_is_rejected() {
        let index = populated();
        let q = ConceptualQuery::from_class("Player").join("About", vec![]);
        assert!(index.execute(&q).is_err());
    }

    #[test]
    fn unknown_class_is_rejected() {
        let index = populated();
        let q = ConceptualQuery::from_class("Ghost");
        assert!(index.execute(&q).is_err());
    }

    #[test]
    fn contains_predicate_matches_substrings() {
        let index = populated();
        let q = ConceptualQuery::from_class("Article").filter(Predicate::Contains {
            attr: "title".into(),
            needle: "final".into(),
        });
        assert_eq!(index.execute(&q).unwrap().len(), 1);
    }

    #[test]
    fn budgets_cancel_joins_with_a_typed_error() {
        let index = populated();
        let q = ConceptualQuery::from_class("Article")
            .join("About", vec![])
            .join("Is_covered_in", vec![]);
        // Unlimited budget: identical to plain execute.
        let full = index.execute(&q).unwrap();
        assert_eq!(
            index
                .execute_budgeted(&q, &faults::Budget::unlimited())
                .unwrap(),
            full
        );
        // Sweep work allowances: every failure is typed, and a large
        // enough allowance converges on the full answer.
        let mut succeeded = false;
        for w in 0..50 {
            match index.execute_budgeted(&q, &faults::Budget::with_work(w)) {
                Ok(rows) => {
                    assert_eq!(rows, full);
                    succeeded = true;
                    break;
                }
                Err(Error::DeadlineExceeded { cause, .. }) => {
                    assert_eq!(cause, faults::BudgetExceeded::Work);
                }
                Err(other) => panic!("untyped budget failure: {other:?}"),
            }
        }
        assert!(succeeded, "no work allowance sufficed");
    }

    #[test]
    fn class_conflict_on_merge_is_rejected() {
        let mut index = populated();
        let mut view = MaterializedView::new("bad.html", "AustralianOpen");
        view.objects
            .push(WebObject::new("Article", "player:seles"));
        assert!(index.add_view(&view).is_err());
    }

    #[test]
    fn a_rejected_view_leaves_the_index_untouched() {
        let mut index = populated();
        let objects = index.object_count();
        let associations = index.associations().len();
        let articles = index.objects_of("Article").count();

        let mut view = MaterializedView::new("bad.html", "AustralianOpen");
        view.objects.push(WebObject::new("Article", "article:day2"));
        view.objects.push(
            WebObject::new("Player", "player:seles").with("country", AttrValue::Text("FRA".into())),
        );
        view.objects.push(WebObject::new("Article", "player:seles"));
        view.associations
            .push(Association::new("About", "article:day2", "player:seles"));
        assert!(index.add_view(&view).is_err());

        assert_eq!(index.object_count(), objects);
        assert!(index.object("article:day2").is_none());
        assert_eq!(index.associations().len(), associations);
        assert_eq!(index.objects_of("Article").count(), articles);
        assert!(index.targets("article:day2", "About").is_empty());
        let seles = index.object("player:seles").unwrap();
        assert_eq!(seles.attr("country").unwrap().lexical(), "USA");

        // A new id given two classes within one view is a conflict too.
        let mut view = MaterializedView::new("twice.html", "AustralianOpen");
        view.objects.push(WebObject::new("Article", "x:1"));
        view.objects.push(WebObject::new("Player", "x:1"));
        assert!(index.add_view(&view).is_err());
        assert_eq!(index.object_count(), objects);
    }
}
