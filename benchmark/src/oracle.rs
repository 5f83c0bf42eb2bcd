//! Correctness from outside: what each query must return, worked out
//! from the generator's ground truth with plain loops, never from the
//! engine.
//!
//! Queries without a text part have one right answer and are checked
//! exactly. Ranked answers are checked for the properties that do not
//! need the engine's scoring formula — membership, join and media
//! truth, order, and the hit count where it follows from the truth —
//! and, at the reference seed, against a committed digest of the full
//! answers.

use std::collections::{BTreeSet, HashMap};

use crate::gen::Library;

/// Answers keep at most this many hits (`TOP 10`, also the default).
pub const LIMIT: usize = 10;
/// `qlang` asks the text tier for this many ranked documents.
const TEXT_TOP_N: usize = 100;

/// One answer row as the benchmark sees it.
#[derive(Debug, Clone, PartialEq)]
pub struct Hit {
    pub chain: Vec<String>,
    pub score: f64,
    pub video: Option<String>,
}

/// What a ranked answer must satisfy.
#[derive(Debug, Clone, PartialEq)]
pub struct Ranked {
    pub terms: Vec<String>,
    /// Candidates are the articles whose title contains this.
    pub title: Option<String>,
    /// The chain continues article → player → profile and the profile's
    /// video must show a net approach.
    pub joined_media: bool,
    /// The exact hit count, when the truth alone fixes it.
    pub hits: Option<usize>,
}

#[derive(Debug, Clone, PartialEq)]
pub enum Expect {
    /// The exact answer in order; every score is 0.
    Chains(Vec<Vec<String>>),
    Ranked(Ranked),
}

pub struct Oracle<'a> {
    lib: &'a Library,
    /// Body word → articles containing it (ascending).
    postings: HashMap<&'a str, Vec<u32>>,
}

fn title_matches(title: &str, needle: &str) -> bool {
    title.to_lowercase().contains(&needle.to_lowercase())
}

impl<'a> Oracle<'a> {
    pub fn new(lib: &'a Library) -> Oracle<'a> {
        let mut postings: HashMap<&str, Vec<u32>> = HashMap::new();
        for (i, article) in lib.articles.iter().enumerate() {
            for word in article.body.split(' ') {
                let list = postings.entry(word).or_default();
                if list.last() != Some(&(i as u32)) {
                    list.push(i as u32);
                }
            }
        }
        Oracle { lib, postings }
    }

    /// The body words of 4 to 6 letters with the number of articles
    /// holding each, most widespread first (ties in alphabetical order).
    pub fn words_by_spread(&self) -> Vec<(&'a str, usize)> {
        let mut words: Vec<(&str, usize)> = self
            .postings
            .iter()
            .filter(|(w, _)| (4..=6).contains(&w.len()))
            .map(|(w, list)| (*w, list.len()))
            .collect();
        words.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
        words
    }

    /// `FROM Article WHERE title CONTAINS needle VIA About [VIA Is_covered_in]`.
    pub fn article_join(&self, needle: &str, joins: usize) -> Expect {
        let mut chains = Vec::new();
        for article in &self.lib.articles {
            if !title_matches(&article.title, needle) {
                continue;
            }
            let player = &self.lib.players[article.player];
            let mut chain = vec![article.id.clone(), player.id.clone()];
            if joins == 2 {
                chain.push(player.profile_id.clone());
            }
            chains.push(chain);
        }
        Expect::Chains(top(chains))
    }

    /// `FROM Player WHERE attr = value [AND …] VIA Is_covered_in MEDIA video HAS netplay`.
    pub fn player_media(&self, predicates: &[(&str, &str)]) -> Expect {
        let mut chains = Vec::new();
        for player in &self.lib.players {
            let holds = predicates.iter().all(|(attr, value)| {
                let actual = match *attr {
                    "gender" => &player.gender,
                    "country" => &player.country,
                    "hand" => &player.hand,
                    other => panic!("oracle knows no player attribute `{other}`"),
                };
                actual.eq_ignore_ascii_case(value)
            });
            if holds && player.netplay {
                chains.push(vec![player.id.clone(), player.profile_id.clone()]);
            }
        }
        Expect::Chains(top(chains))
    }

    /// A ranked query over article bodies, optionally restricted to the
    /// articles whose title contains `title`, optionally continued
    /// through both associations to a netplay video.
    pub fn ranked(&self, terms: &[String], title: Option<&str>, joined_media: bool) -> Expect {
        let mut matching: BTreeSet<u32> = BTreeSet::new();
        for term in terms {
            if let Some(list) = self.postings.get(term.as_str()) {
                matching.extend(list);
            }
        }
        if let Some(needle) = title {
            matching.retain(|&i| title_matches(&self.lib.articles[i as usize].title, needle));
        }
        // The text tier keeps its best TEXT_TOP_N documents before the
        // joins and the media check; which of more than that survive is
        // the scoring formula's business, not the oracle's.
        let hits = if !joined_media {
            Some(matching.len().min(LIMIT))
        } else if matching.len() <= TEXT_TOP_N {
            let with_netplay = matching
                .iter()
                .filter(|&&i| self.lib.players[self.lib.articles[i as usize].player].netplay)
                .count();
            Some(with_netplay.min(LIMIT))
        } else {
            None
        };
        Expect::Ranked(Ranked {
            terms: terms.to_vec(),
            title: title.map(str::to_owned),
            joined_media,
            hits,
        })
    }

    /// Checks one answer; the error says what is wrong with it.
    pub fn check(&self, expect: &Expect, hits: &[Hit]) -> Result<(), String> {
        match expect {
            Expect::Chains(chains) => {
                let got: Vec<&Vec<String>> = hits.iter().map(|h| &h.chain).collect();
                let want: Vec<&Vec<String>> = chains.iter().collect();
                if got != want {
                    return Err(format!("chains {got:?}, expected {want:?}"));
                }
                if let Some(h) = hits.iter().find(|h| h.score != 0.0) {
                    return Err(format!("unranked hit {:?} scored {}", h.chain, h.score));
                }
                Ok(())
            }
            Expect::Ranked(r) => self.check_ranked(r, hits),
        }
    }

    fn check_ranked(&self, r: &Ranked, hits: &[Hit]) -> Result<(), String> {
        if hits.len() > LIMIT {
            return Err(format!("{} hits exceed TOP {LIMIT}", hits.len()));
        }
        if let Some(n) = r.hits {
            if hits.len() != n {
                return Err(format!("{} hits, the truth has {n}", hits.len()));
            }
        }
        for pair in hits.windows(2) {
            let ordered = pair[0].score > pair[1].score
                || (pair[0].score == pair[1].score && pair[0].chain < pair[1].chain);
            if !ordered {
                return Err(format!("{:?} ranked before {:?}", pair[0], pair[1]));
            }
        }
        for hit in hits {
            if hit.score.is_nan() || hit.score <= 0.0 {
                return Err(format!("ranked hit {:?} scored {}", hit.chain, hit.score));
            }
            let article = self
                .article(&hit.chain[0])
                .ok_or_else(|| format!("unknown article {}", hit.chain[0]))?;
            if !article
                .body
                .split(' ')
                .any(|w| r.terms.iter().any(|t| t == w))
            {
                return Err(format!("{} contains none of {:?}", article.id, r.terms));
            }
            if let Some(needle) = &r.title {
                if !title_matches(&article.title, needle) {
                    return Err(format!("{} is no candidate for `{needle}`", article.id));
                }
            }
            let player = &self.lib.players[article.player];
            if r.joined_media {
                let want = [&article.id, &player.id, &player.profile_id];
                if hit.chain.iter().collect::<Vec<_>>() != want {
                    return Err(format!("chain {:?}, expected {want:?}", hit.chain));
                }
                if !player.netplay || hit.video.as_deref() != Some(player.video_url.as_str()) {
                    return Err(format!(
                        "{} has no netplay video for {:?}",
                        player.id, hit.video
                    ));
                }
            } else if hit.chain.len() != 1 {
                return Err(format!("chain {:?} of an unjoined query", hit.chain));
            }
        }
        Ok(())
    }

    fn article(&self, id: &str) -> Option<&crate::gen::Article> {
        let index: usize = id.strip_prefix("article:a")?.parse().ok()?;
        self.lib.articles.get(index).filter(|a| a.id == id)
    }
}

/// Unranked answers order by chain and keep the first `LIMIT`.
fn top(mut chains: Vec<Vec<String>>) -> Vec<Vec<String>> {
    chains.sort();
    chains.truncate(LIMIT);
    chains
}

/// FNV-1a over the answers of one pass: chains, and scores rounded to
/// six significant digits so the digest survives a reordering of
/// floating-point additions but not a change of ranking.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn answer(&mut self, hits: &[Hit]) {
        self.bytes(&(hits.len() as u32).to_le_bytes());
        for hit in hits {
            for id in &hit.chain {
                self.bytes(id.as_bytes());
                self.bytes(&[0]);
            }
            self.bytes(format!("{:.5e}", hit.score).as_bytes());
            self.bytes(&[1]);
        }
    }

    pub fn absorb(&mut self, other: Digest) {
        self.bytes(&other.0.to_le_bytes());
    }

    /// The digest of a single answer (later passes compare against it).
    pub fn of(hits: &[Hit]) -> Digest {
        let mut d = Digest::new();
        d.answer(hits);
        d
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate, Sizes};

    fn hit(chain: &[&str], score: f64) -> Hit {
        Hit {
            chain: chain.iter().map(|s| (*s).to_owned()).collect(),
            score,
            video: None,
        }
    }

    #[test]
    fn unranked_answers_are_exact() {
        let lib = generate(
            11,
            Sizes {
                players: 6,
                articles: 60,
            },
        );
        let oracle = Oracle::new(&lib);
        // Every title contains a vowel-final syllable; "a" hits most.
        let Expect::Chains(chains) = oracle.article_join("a", 2) else {
            unreachable!()
        };
        assert_eq!(chains.len(), LIMIT);
        assert!(chains.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(chains[0].len(), 3);
        let first = lib.articles.iter().find(|a| a.title.contains('a')).unwrap();
        assert_eq!(chains[0][0], first.id);
        assert_eq!(chains[0][1], lib.players[first.player].id);

        let expect = Expect::Chains(chains.clone());
        let good: Vec<Hit> = chains
            .iter()
            .map(|c| Hit {
                chain: c.clone(),
                score: 0.0,
                video: None,
            })
            .collect();
        assert!(oracle.check(&expect, &good).is_ok());
        assert!(
            oracle.check(&expect, &good[1..]).is_err(),
            "a missing row is caught"
        );
        let mut scored = good.clone();
        scored[0].score = 0.5;
        assert!(oracle.check(&expect, &scored).is_err());
    }

    #[test]
    fn player_media_follows_the_netplay_truth() {
        let lib = generate(
            11,
            Sizes {
                players: 6,
                articles: 6,
            },
        );
        let oracle = Oracle::new(&lib);
        let Expect::Chains(chains) = oracle.player_media(&[("gender", "FEMALE"), ("hand", "left")])
        else {
            unreachable!()
        };
        let want: Vec<&str> = {
            let mut ids: Vec<&str> = lib
                .players
                .iter()
                .filter(|p| p.gender == "female" && p.hand == "left" && p.netplay)
                .map(|p| p.id.as_str())
                .collect();
            ids.sort();
            ids
        };
        assert_eq!(
            chains.iter().map(|c| c[0].as_str()).collect::<Vec<_>>(),
            want
        );
    }

    #[test]
    fn ranked_answers_are_checked_for_membership_order_and_count() {
        let lib = generate(
            11,
            Sizes {
                players: 6,
                articles: 60,
            },
        );
        let oracle = Oracle::new(&lib);
        let word = lib.articles[3].body.split(' ').nth(40).unwrap().to_owned();
        let holders: Vec<&str> = lib
            .articles
            .iter()
            .filter(|a| a.body.split(' ').any(|w| w == word))
            .map(|a| a.id.as_str())
            .collect();
        let expect = oracle.ranked(std::slice::from_ref(&word), None, false);
        let Expect::Ranked(r) = &expect else {
            unreachable!()
        };
        assert_eq!(r.hits, Some(holders.len().min(LIMIT)));

        let good: Vec<Hit> = holders
            .iter()
            .take(LIMIT)
            .enumerate()
            .map(|(i, id)| hit(&[id], 2.0 - i as f64 * 0.1))
            .collect();
        assert!(oracle.check(&expect, &good).is_ok());
        let mut unsorted = good.clone();
        unsorted[0].score = 0.01;
        assert_eq!(
            unsorted.len() > 1,
            oracle.check(&expect, &unsorted).is_err()
        );
        let stranger = lib
            .articles
            .iter()
            .find(|a| !a.body.split(' ').any(|w| w == word))
            .unwrap();
        let mut wrong = good.clone();
        wrong[0] = hit(&[&stranger.id], 9.0);
        assert!(
            oracle.check(&expect, &wrong).is_err(),
            "a hit without the term is caught"
        );
        assert!(
            oracle.check(&expect, &good[..good.len() - 1]).is_err(),
            "a short answer is caught"
        );
    }

    #[test]
    fn digest_keeps_six_digits_of_the_score() {
        let a = Digest::of(&[hit(&["article:a00001"], 1.234_567_1)]);
        let b = Digest::of(&[hit(&["article:a00001"], 1.234_567_4)]);
        let c = Digest::of(&[hit(&["article:a00001"], 1.234_577)]);
        let d = Digest::of(&[hit(&["article:a00002"], 1.234_567_1)]);
        assert_eq!(a, b, "noise below the sixth digit is ignored");
        assert_ne!(a, c);
        assert_ne!(a, d);
        assert_eq!(a.hex().len(), 16);
    }
}
