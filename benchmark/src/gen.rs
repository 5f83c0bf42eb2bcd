//! The seeded library: crawled player pages plus generated articles,
//! and the ground truth the oracle answers from.
//!
//! `Engine` keys its retriever on the Australian Open page classes, so
//! the articles are written in the site's own `article-page` template
//! around `websim::Corpus` text (zipfian vocabulary, shared boilerplate
//! paragraphs). The system under test receives only `pages`.

use std::sync::Arc;

use websim::{Corpus, CorpusSpec, Site, SiteSpec};

/// How large a library to generate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sizes {
    pub players: usize,
    pub articles: usize,
}

impl Sizes {
    /// 96 videos are what one online detector upgrade can re-parse inside
    /// a run (about 12 s); 8 000 articles put ~83 associations behind each
    /// player, enough for the linear association scans to dominate a
    /// join, and set up in about 10 s.
    pub const FULL: Sizes = Sizes {
        players: 96,
        articles: 8000,
    };
    pub const SMOKE: Sizes = Sizes {
        players: 16,
        articles: 400,
    };
}

/// Vocabulary of the article text. Large against the 8 000 articles so
/// most terms are rare and posting lists differ widely in length.
pub const VOCAB: usize = 20_000;

pub struct Player {
    pub id: String,
    pub profile_id: String,
    pub gender: String,
    pub country: String,
    pub hand: String,
    pub video_url: String,
    pub netplay: bool,
}

pub struct Article {
    pub id: String,
    pub title: String,
    pub body: String,
    /// Index into `Library::players` of the player the article links to.
    pub player: usize,
}

pub struct Library {
    /// The media server behind the pages: the detectors fetch videos
    /// and audio clips from it by URL.
    pub site: Arc<Site>,
    /// What the system under test ingests.
    pub pages: Vec<(String, String)>,
    pub source_bytes: usize,
    pub players: Vec<Player>,
    pub articles: Vec<Article>,
}

fn between<'a>(text: &'a str, open: &str, close: &str) -> &'a str {
    let start = text.find(open).map(|i| i + open.len()).unwrap_or(0);
    let len = text[start..].find(close).unwrap_or(0);
    &text[start..start + len]
}

fn article_page(title: &str, body: &str, bio_url: &str, name: &str) -> String {
    format!(
        concat!(
            "<html><head><title>{title}</title></head>",
            "<body class=\"page article-page\">",
            "<h1 class=\"headline\">{title}</h1><div class=\"story\">{body}</div>",
            "<div class=\"related\"><a class=\"about-player\" href=\"{bio}\">{name}</a></div>",
            "<div class=\"footer\"><a class=\"home-link\" href=\"{base}/index.html\">home</a>",
            "</div></body></html>"
        ),
        title = title,
        body = body,
        bio = bio_url,
        name = name,
        base = websim::ausopen::BASE,
    )
}

pub fn generate(seed: u64, sizes: Sizes) -> Library {
    let site = Arc::new(Site::generate(SiteSpec {
        players: sizes.players,
        articles: 0,
        seed,
    }));
    let home = site.home();
    let mut pages: Vec<(String, String)> = websim::crawl(&site)
        .into_iter()
        .filter(|(url, _)| *url != home)
        .collect();

    let players: Vec<Player> = site
        .players
        .iter()
        .map(|p| Player {
            id: format!("player:{}", p.key),
            profile_id: format!("profile:{}", p.key),
            gender: p.gender.clone(),
            country: p.country.clone(),
            hand: p.hand.clone(),
            video_url: p.video_url.clone(),
            netplay: p.video_has_netplay,
        })
        .collect();

    let corpus = Corpus::new(CorpusSpec {
        docs: sizes.articles,
        seed,
        vocab: VOCAB,
        exponent: 1.05,
        terms_min: 30,
        terms_max: 90,
    });
    let mut articles = Vec::with_capacity(sizes.articles);
    for i in 0..sizes.articles {
        // The corpus document's own 3–6 word title is the headline; the
        // first body words would be boilerplate shared by a twelfth of
        // the library.
        let title = between(&corpus.doc(i).xml, "<title>", "</title>").to_owned();
        let body = corpus.body_text(i);
        let player = i % sizes.players;
        let truth = &site.players[player];
        let key = format!("a{i:05}");
        pages.push((
            format!("{}/news/{key}.html", websim::ausopen::BASE),
            article_page(&title, &body, &truth.bio_url, &truth.name),
        ));
        articles.push(Article {
            id: format!("article:{key}"),
            title,
            body,
            player,
        });
    }

    let source_bytes = pages.iter().map(|(_, html)| html.len()).sum();
    Library {
        site,
        pages,
        source_bytes,
        players,
        articles,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_library() {
        let a = generate(
            5,
            Sizes {
                players: 4,
                articles: 12,
            },
        );
        let b = generate(
            5,
            Sizes {
                players: 4,
                articles: 12,
            },
        );
        assert_eq!(a.pages, b.pages);
        let c = generate(
            6,
            Sizes {
                players: 4,
                articles: 12,
            },
        );
        assert_ne!(a.pages, c.pages);
    }

    #[test]
    fn pages_and_truth_line_up() {
        let lib = generate(
            5,
            Sizes {
                players: 4,
                articles: 12,
            },
        );
        // Two pages per player (bio, profile), one per article, no home.
        assert_eq!(lib.pages.len(), 2 * 4 + 12);
        assert!(lib
            .pages
            .iter()
            .all(|(url, _)| !url.ends_with("index.html")));
        let a = &lib.articles[5];
        assert_eq!(a.player, 1);
        assert_eq!(a.id, "article:a00005");
        let (_, html) = lib
            .pages
            .iter()
            .find(|(u, _)| u.ends_with("a00005.html"))
            .unwrap();
        assert!(html.contains(&format!("<h1 class=\"headline\">{}</h1>", a.title)));
        assert!(html.contains(&a.body));
        assert!((3..=6).contains(&a.title.split(' ').count()));
        assert_eq!(
            lib.source_bytes,
            lib.pages.iter().map(|p| p.1.len()).sum::<usize>()
        );
    }
}
