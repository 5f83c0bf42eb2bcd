//! Shared workload builders for the benchmark harness.
//!
//! Every bench in `benches/` regenerates one experiment of
//! `EXPERIMENTS.md` (E1–E9, E16, E17). The builders here keep workload
//! construction identical across benches so numbers are comparable.

use std::sync::Arc;

use websim::{crawl, Site, SiteSpec};

/// A deterministic site of the given size.
pub fn site(players: usize, articles: usize) -> Arc<Site> {
    Arc::new(Site::generate(SiteSpec {
        players,
        articles,
        seed: 2001,
    }))
}

/// A populated engine over a site of the given size.
pub fn populated_engine(players: usize, articles: usize) -> (Arc<Site>, dlsearch::Engine) {
    let s = site(players, articles);
    let mut engine = dlsearch::ausopen::engine(Arc::clone(&s)).expect("engine config");
    engine.populate(&crawl(&s)).expect("populate");
    (s, engine)
}

/// A synthetic text corpus with a realistic idf skew: per-document
/// unique terms, topic terms, and ubiquitous terms.
pub fn text_corpus(docs: usize) -> Vec<(String, String)> {
    (0..docs)
        .map(|i| {
            let mut body = format!(
                "tennis match report update{i} centre court crowd story{i}"
            );
            if i % 11 == 0 {
                body.push_str(" champion champion");
            }
            if i % 5 == 0 {
                body.push_str(" winner");
            }
            if i == docs / 2 {
                body.push_str(" extraordinary");
            }
            (format!("http://site/news/{i}.html"), body)
        })
        .collect()
}

/// Median of a set of timing samples (sorts them in place).
pub fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(|a, b| a.total_cmp(b));
    samples[samples.len() / 2]
}

/// A nested XML document: `width` children per level, `depth` levels.
pub fn nested_doc(depth: usize, width: usize) -> String {
    fn level(out: &mut String, depth: usize, width: usize) {
        if depth == 0 {
            out.push_str("<leaf>x</leaf>");
            return;
        }
        for i in 0..width {
            out.push_str(&format!("<n{i}>"));
            level(out, depth - 1, width);
            out.push_str(&format!("</n{i}>"));
        }
    }
    let mut out = String::from("<root>");
    level(&mut out, depth, width);
    out.push_str("</root>");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_and_doc_builders_are_consistent() {
        assert_eq!(text_corpus(10).len(), 10);
        let xml = nested_doc(3, 2);
        let doc = monetxml::parse_document(&xml).unwrap();
        assert_eq!(doc.height(), 6); // root + 3 levels + leaf + cdata
    }
}
