//! The four workloads: seeded op lists for the client threads and the
//! write list that follows (or, on `maintain_serve`, runs beside) them.
//!
//! The query mix follows the functionality taxonomy of Janssen & Proper
//! (PAPERS.md): attribute selection, association navigation, ranked
//! free text, candidate-restricted ranking and content-based (media)
//! refinement each appear in at least one workload.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::gen::Library;
use crate::oracle::{Expect, Oracle};
use crate::stats::{shuffle, Zipf};

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Workload {
    TextSearch,
    ConceptJoin,
    LibraryMix,
    MaintainServe,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::TextSearch,
        Workload::ConceptJoin,
        Workload::LibraryMix,
        Workload::MaintainServe,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::TextSearch => "text_search",
            Workload::ConceptJoin => "concept_join",
            Workload::LibraryMix => "library_mix",
            Workload::MaintainServe => "maintain_serve",
        }
    }

    /// Why the workload exists (also the `why` of `BENCHMARK.json`).
    pub fn why(self) -> &'static str {
        match self {
            Workload::TextSearch => {
                "1 client, ranked free text, nearly all distinct: ir does the work, so a posting-list or top-k change shows here only"
            }
            Workload::ConceptJoin => {
                "1 client, attribute selection and association joins, no text: webspace does the work, ir none, so a join index shows here only"
            }
            Workload::LibraryMix => {
                "2 clients, all five kinds of query mixed, every fifth request a repeat: every layer, the gate, the answer cache and the engine lock"
            }
            Workload::MaintainServe => {
                "1 reader beside 1 writer (source refreshes, checkpoints, an online detector upgrade), then reopen: the flexibility claim under load"
            }
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One client request: the query text as a user would type it, and what
/// the answer must be.
#[derive(Clone)]
pub struct Op {
    pub query: String,
    pub expect: Expect,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Write {
    /// Re-analyse the match video of this player (index into the
    /// library's players) as if its source had changed.
    Refresh(usize),
    Checkpoint,
    /// Install a new `tennis` detector implementation at revision level
    /// Minor: every stored video tree is re-parsed below that detector.
    /// One per list: re-parsing 96 videos takes longer than all the
    /// other writes together.
    Upgrade,
}

pub struct Plan {
    /// One op list per client thread; a pass runs every list once.
    pub clients: Vec<Vec<Op>>,
    pub writes: Vec<Write>,
    /// Run the write list beside the readers, pausing between writes,
    /// instead of after them.
    pub writer_beside_readers: bool,
}

/// Query words are the 4- and 6-letter words of the corpus vocabulary
/// (ranks 12 to 1739). The twelve 2-letter words are in nearly every
/// article (one is in the engine's stop list), and 8-letter words can
/// collide under the engine's stemmer, which the oracle does not model.
///
/// Ranks are drawn zipf, as often as the corpus uses them. A title word
/// is the word of the drawn rank. A body word is a word that as many
/// articles of *this* library contain as a word of the drawn rank is
/// expected to be in (`expected_spread`): the corpus wraps every article
/// in boilerplate paragraphs minted per seed, so the word of a rank can
/// be in ten times as many articles in one library as in the next, and
/// the length of its posting list is what a text query costs.
const TERM_RANKS: std::ops::Range<usize> = 12..1740;
const TERM_EXPONENT: f64 = 1.05;

/// Ops per client per pass, by kind. Sized so one pass takes about 2 s
/// on the reference machine (2 cores): several whole passes fit a run.
struct Counts {
    text_search: &'static [(Kind, usize)],
    concept_join: &'static [(Kind, usize)],
    /// `library_mix`: the distinct requests of both clients together,
    /// and the repeats each client adds.
    mix_distinct: &'static [(Kind, usize)],
    mix_repeats: &'static [(Kind, usize)],
    maintain_reads: &'static [(Kind, usize)],
}

use Kind::*;

const FULL: Counts = Counts {
    text_search: &[(Text, 240)],
    // 60 % two joins, 15 % one join, 25 % selection + join + media.
    concept_join: &[(Join2, 120), (Join1, 30), (PlayerMedia, 50)],
    // Per client 150 requests: 40 % text, 20 % restricted, 15 %
    // integrated, 15 % joins, 10 % selection + media; a fifth of each
    // kind repeats a request of either client.
    mix_distinct: &[
        (Text, 96),
        (Within, 48),
        (Integrated, 36),
        (Join2, 36),
        (PlayerMedia, 24),
    ],
    mix_repeats: &[
        (Text, 12),
        (Within, 6),
        (Integrated, 5),
        (Join2, 4),
        (PlayerMedia, 3),
    ],
    // Reads that touch every layer but stay light, so the reader's
    // latency shows the writer's interference.
    maintain_reads: &[(Text, 80), (Within, 48), (PlayerMedia, 32)],
};

const SMOKE: Counts = Counts {
    text_search: &[(Text, 60)],
    concept_join: &[(Join2, 24), (Join1, 6), (PlayerMedia, 10)],
    mix_distinct: &[
        (Text, 20),
        (Within, 10),
        (Integrated, 8),
        (Join2, 6),
        (PlayerMedia, 4),
    ],
    mix_repeats: &[
        (Text, 2),
        (Within, 1),
        (Integrated, 1),
        (Join2, 1),
        (PlayerMedia, 1),
    ],
    maintain_reads: &[(Text, 20), (Within, 12), (PlayerMedia, 8)],
};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Text,
    Within,
    /// Figure-13 style: ranked text restricted to title candidates, two
    /// joins, media refinement.
    Integrated,
    Join2,
    Join1,
    PlayerMedia,
}

impl Kind {
    fn has_title(self) -> bool {
        !matches!(self, Text | PlayerMedia)
    }

    fn has_text(self) -> bool {
        matches!(self, Text | Within | Integrated)
    }
}

fn gcd(a: usize, b: usize) -> usize {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// Which stratum of column `column` goes into group `i` of `n`: the
/// first column in order, the others stepped by a stride coprime to
/// `n`. Every seed therefore pairs popular with rare words the same
/// way, and the spread of a query's cost over a list does not depend on
/// the luck of the pairing.
fn paired(i: usize, column: usize, n: usize) -> usize {
    if column == 0 {
        return i;
    }
    let share = [0.618, 0.382, 0.236][(column - 1) % 3];
    let mut stride = ((n as f64 * share) as usize).max(1);
    while gcd(stride, n) != 1 {
        stride += 1;
    }
    (i * stride + column * n / 4) % n
}

struct Builder<'a> {
    lib: &'a Library,
    oracle: &'a Oracle<'a>,
    rng: StdRng,
    ranks: Zipf,
    /// Sum of the zipf weights of the whole corpus vocabulary.
    vocab_weight: f64,
    /// Body words and the articles holding each, most widespread first.
    by_spread: Vec<(&'a str, usize)>,
}

/// The share of articles expected to contain the corpus word of
/// `rank`: the unique part of an article averages 60 draws from the
/// zipf vocabulary, whose weights sum to `vocab_weight`.
fn expected_spread(rank: usize, vocab_weight: f64) -> f64 {
    let p = ((rank + 1) as f64).powf(-TERM_EXPONENT) / vocab_weight;
    1.0 - (1.0 - p).powi(60)
}

impl Builder<'_> {
    /// `n` groups of an optional title word and `terms` body words. Each
    /// column of the groups is one stratified draw, so it holds popular
    /// and rare words in fixed proportion; the seed picks the word
    /// inside each stratum.
    fn groups(&mut self, n: usize, title: bool, terms: usize) -> Vec<Vec<String>> {
        let mut columns: Vec<Vec<String>> = Vec::new();
        if title {
            let ranks = self.ranks.strata(n, &mut self.rng);
            columns.push(ranks.into_iter().map(websim::Corpus::term).collect());
        }
        for _ in 0..terms {
            let ranks = self.ranks.strata(n, &mut self.rng);
            columns.push(ranks.into_iter().map(|r| self.body_word(r)).collect());
        }
        (0..n)
            .map(|i| {
                columns
                    .iter()
                    .enumerate()
                    .map(|(c, words)| words[paired(i, c, n)].clone())
                    .collect()
            })
            .collect()
    }

    /// A body word about as widespread as the corpus word of `rank` is
    /// expected to be: one of the five nearest by article count.
    fn body_word(&mut self, rank: usize) -> String {
        let target = expected_spread(rank, self.vocab_weight) * self.lib.articles.len() as f64;
        let at = self
            .by_spread
            .partition_point(|(_, spread)| *spread as f64 > target);
        let near = at.saturating_sub(2)..(at + 3).min(self.by_spread.len());
        self.by_spread[self.rng.gen_range(near)].0.to_owned()
    }

    /// One to two equality predicates over the player attributes, taken
    /// from a random player so that they select someone.
    fn player_predicates(&mut self) -> Vec<(&'static str, String)> {
        let player = &self.lib.players[self.rng.gen_range(0..self.lib.players.len())];
        let mut all = [
            ("country", player.country.clone()),
            ("gender", player.gender.clone()),
            ("hand", player.hand.clone()),
        ];
        shuffle(&mut all, &mut self.rng);
        let keep = self.rng.gen_range(1..=2);
        all[..keep].to_vec()
    }

    fn op(&mut self, kind: Kind, mut words: Vec<String>) -> Op {
        let title = if kind.has_title() {
            words.remove(0)
        } else {
            String::new()
        };
        let terms = words;
        match kind {
            Text => Op {
                query: format!(
                    "FROM Article TEXT body CONTAINS \"{}\" TOP 10",
                    terms.join(" ")
                ),
                expect: self.oracle.ranked(&terms, None, false),
            },
            Within | Integrated => {
                let integrated = kind == Integrated;
                let tail = if integrated {
                    " VIA About VIA Is_covered_in MEDIA video HAS netplay"
                } else {
                    ""
                };
                Op {
                    query: format!(
                        "FROM Article WHERE title CONTAINS \"{title}\" \
                         TEXT body CONTAINS \"{}\" WITHIN{tail} TOP 10",
                        terms.join(" ")
                    ),
                    expect: self.oracle.ranked(&terms, Some(&title), integrated),
                }
            }
            Join2 | Join1 => {
                let joins = if kind == Join2 { 2 } else { 1 };
                let tail = if joins == 2 { " VIA Is_covered_in" } else { "" };
                Op {
                    query: format!("FROM Article WHERE title CONTAINS \"{title}\" VIA About{tail}"),
                    expect: self.oracle.article_join(&title, joins),
                }
            }
            PlayerMedia => {
                let predicates = self.player_predicates();
                let clause: Vec<String> = predicates
                    .iter()
                    .map(|(attr, value)| format!("{attr} = \"{value}\""))
                    .collect();
                let borrowed: Vec<(&str, &str)> =
                    predicates.iter().map(|(a, v)| (*a, v.as_str())).collect();
                Op {
                    query: format!(
                        "FROM Player WHERE {} VIA Is_covered_in MEDIA video HAS netplay",
                        clause.join(" AND ")
                    ),
                    expect: self.oracle.player_media(&borrowed),
                }
            }
        }
    }

    /// `n` ops of one kind, in seeded order. Text parts have one, two
    /// and three terms in equal shares.
    fn ops_of(&mut self, kind: Kind, n: usize) -> Vec<Op> {
        let mut ops = Vec::with_capacity(n);
        let classes = if kind.has_text() { 3 } else { 1 };
        for class in 0..classes {
            let count = (n + classes - 1 - class) / classes;
            let terms = if kind.has_text() { class + 1 } else { 0 };
            for words in self.groups(count, kind.has_title(), terms) {
                ops.push(self.op(kind, words));
            }
        }
        shuffle(&mut ops, &mut self.rng);
        ops
    }

    /// A client's list: the given number of ops of each kind, shuffled.
    fn list(&mut self, counts: &[(Kind, usize)]) -> Vec<Op> {
        let mut ops: Vec<Op> = Vec::new();
        for (kind, n) in counts {
            ops.extend(self.ops_of(*kind, *n));
        }
        shuffle(&mut ops, &mut self.rng);
        ops
    }
}

pub fn plan<'a>(
    workload: Workload,
    lib: &'a Library,
    oracle: &'a Oracle<'a>,
    seed: u64,
    smoke: bool,
) -> Plan {
    let counts = if smoke { &SMOKE } else { &FULL };
    // Each workload draws from its own stream of the seed.
    let stream = Workload::ALL
        .iter()
        .position(|w| *w == workload)
        .unwrap_or(0) as u64;
    let mut b = Builder {
        lib,
        oracle,
        rng: StdRng::seed_from_u64(seed ^ (0x51ab_1e00 + stream)),
        ranks: Zipf::new(TERM_RANKS, TERM_EXPONENT),
        vocab_weight: (1..=crate::gen::VOCAB)
            .map(|k| (k as f64).powf(-TERM_EXPONENT))
            .sum(),
        by_spread: oracle.words_by_spread(),
    };
    let clients = match workload {
        Workload::TextSearch => vec![b.list(counts.text_search)],
        Workload::ConceptJoin => vec![b.list(counts.concept_join)],
        Workload::MaintainServe => vec![b.list(counts.maintain_reads)],
        Workload::LibraryMix => {
            // The distinct requests of a kind are dealt to the clients in
            // turn; a repeat may land before the request it repeats, and
            // then that one is the cache hit.
            let mut clients = vec![Vec::new(), Vec::new()];
            for ((kind, distinct), (_, repeats)) in
                counts.mix_distinct.iter().zip(counts.mix_repeats)
            {
                let ops = b.ops_of(*kind, *distinct);
                for (i, op) in ops.iter().enumerate() {
                    clients[i % 2].push(op.clone());
                }
                for client in &mut clients {
                    for _ in 0..*repeats {
                        client.push(ops[b.rng.gen_range(0..ops.len())].clone());
                    }
                }
            }
            for client in &mut clients {
                shuffle(client, &mut b.rng);
            }
            clients
        }
    };

    // Refreshes and checkpoints, ending on refreshes so recovery has a
    // log tail to replay.
    let mut refresh_order: Vec<usize> = (0..lib.players.len()).collect();
    shuffle(&mut refresh_order, &mut b.rng);
    let beside = workload == Workload::MaintainServe;
    let shape = if beside { "rrcurrcrr" } else { "rrcrrcrrcrr" };
    let writes = shape
        .chars()
        .zip(refresh_order.into_iter().cycle())
        .map(|(c, player)| match c {
            'r' => Write::Refresh(player),
            'c' => Write::Checkpoint,
            _ => Write::Upgrade,
        })
        .collect();
    Plan {
        clients,
        writes,
        writer_beside_readers: beside,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate, Sizes};

    #[test]
    fn pairing_is_a_permutation_of_the_strata() {
        for n in [1, 2, 3, 7, 80, 137] {
            for column in 0..4 {
                let mut seen: Vec<usize> = (0..n).map(|i| paired(i, column, n)).collect();
                seen.sort_unstable();
                assert_eq!(seen, (0..n).collect::<Vec<_>>(), "n={n} column={column}");
            }
        }
    }

    #[test]
    fn plans_are_seeded_and_shaped() {
        let lib = generate(9, Sizes::SMOKE);
        let oracle = Oracle::new(&lib);
        for w in Workload::ALL {
            let a = plan(w, &lib, &oracle, 9, true);
            let b = plan(w, &lib, &oracle, 9, true);
            let queries = |p: &Plan| -> Vec<String> {
                p.clients
                    .iter()
                    .flatten()
                    .map(|op| op.query.clone())
                    .collect()
            };
            assert_eq!(queries(&a), queries(&b), "{}", w.name());
            assert_eq!(a.writes, b.writes);
            assert_ne!(queries(&a), queries(&plan(w, &lib, &oracle, 10, true)));
            assert_eq!(
                a.clients.len(),
                if w == Workload::LibraryMix { 2 } else { 1 }
            );
            assert_eq!(a.writer_beside_readers, w == Workload::MaintainServe);
            assert!(
                matches!(a.writes.last(), Some(Write::Refresh(_))),
                "ends on a log tail"
            );
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        let mix = plan(Workload::LibraryMix, &lib, &oracle, 9, true);
        assert_eq!((mix.clients[0].len(), mix.clients[1].len()), (30, 30));
        let integrated = |ops: &[Op]| {
            ops.iter()
                .filter(|op| op.query.contains("WITHIN VIA"))
                .count()
        };
        assert_eq!(
            (integrated(&mix.clients[0]), integrated(&mix.clients[1])),
            (5, 5)
        );
        let mut queries: Vec<&str> = mix
            .clients
            .iter()
            .flatten()
            .map(|op| op.query.as_str())
            .collect();
        queries.sort_unstable();
        queries.dedup();
        assert!(
            queries.len() <= 48,
            "{} distinct of 60: a tenth at least repeats",
            queries.len()
        );
        let text = plan(Workload::TextSearch, &lib, &oracle, 9, true);
        assert!(text.clients[0]
            .iter()
            .all(|op| op.query.contains("TEXT body")));
        let joins = plan(Workload::ConceptJoin, &lib, &oracle, 9, true);
        assert!(joins.clients[0].iter().all(|op| !op.query.contains("TEXT")));
        let upgrades = |p: &Plan| p.writes.iter().filter(|w| **w == Write::Upgrade).count();
        assert_eq!(
            upgrades(&plan(Workload::MaintainServe, &lib, &oracle, 9, true)),
            1
        );
        assert_eq!(upgrades(&text), 0);
    }
}
