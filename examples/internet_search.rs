//! The Internet-scale scenario (Figure 14 and the future-work section):
//! no domain schema — the generic Internet feature grammar extended with
//! the image pipeline ("a photo/graphic classifier for images … face
//! detection"), plus textual retrieval, answering the paper's query:
//!
//! > "show me all portraits embedded in pages containing keywords
//! >  semantically related to the word 'champion'"
//!
//! Run with `cargo run --example internet_search`.


use acoi::{DetectorRegistry, Fde, Token, Version};
use cobra::image::{classify_image, count_faces};
use feagram::FeatureValue;
use ir::lang::{detect_language, DEFAULT_MIN_COVERAGE};
use ir::{ScoreModel, TextIndex};
use websim::internet::{generate_pages, GenericPage};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let pages = generate_pages(60, 2001);
    println!("crawled {} generic pages", pages.len());

    // The extended Internet grammar: Figure 14 + the image pipeline.
    let grammar = feagram::parse_grammar(feagram::paper::INTERNET_IMAGE_GRAMMAR)?;

    let mut text = TextIndex::new(ScoreModel::TfIdf);
    // portrait image url -> embedding page url
    let mut portraits: Vec<(String, String)> = Vec::new();
    let mut image_count = 0usize;

    for page in &pages {
        let tree = analyse_page(&grammar, page)?;
        // Index the page's keywords for full-text search; a real engine
        // would branch on the detected language here.
        let words: Vec<String> = tree
            .find_all("word")
            .into_iter()
            .filter_map(|n| tree.value(n).map(|v| v.lexical()))
            .collect();
        let body = words.join(" ");
        let _lang = detect_language(&body, DEFAULT_MIN_COVERAGE);
        text.index_document(&page.url, &body)?;

        // Collect the portraits the grammar derived: anchors whose MMO
        // subtree carries `portrait = true`.
        for anchor in tree.find_all("MMO") {
            let nodes = tree.preorder(anchor);
            let location = nodes.iter().find_map(|n| {
                (tree.symbol(*n) == "location")
                    .then(|| tree.value(*n).map(|v| v.lexical()))
                    .flatten()
            });
            if nodes.iter().any(|n| tree.symbol(*n) == "photo") {
                image_count += 1;
            }
            let is_portrait = nodes.iter().any(|n| {
                tree.symbol(*n) == "portrait"
                    && tree.value(*n) == Some(&FeatureValue::Bit(true))
            });
            if let (Some(loc), true) = (location, is_portrait) {
                portraits.push((loc, page.url.clone()));
            }
        }
    }
    text.commit()?;
    println!(
        "analysed {image_count} embedded images, {} classified as portraits\n",
        portraits.len()
    );

    // The paper's query, with "semantically related" approximated by the
    // topic vocabulary.
    let query = "champion tournament title trophy";
    let (hits, work) = text.query(query, 10);
    println!("query: {query:?} → {} pages ({} tuples)\n", hits.len(), work.tuples);
    println!("portraits embedded in champion-related pages:");
    let mut found = 0usize;
    for hit in &hits {
        for (img, page) in portraits.iter().filter(|(_, p)| p == &hit.url) {
            println!("  {:.3}  {img}   (on {page})", hit.score);
            found += 1;
        }
    }
    if found == 0 {
        println!("  (none in the top pages)");
    }
    Ok(())
}

fn analyse_page(
    grammar: &feagram::Grammar,
    page: &GenericPage,
) -> Result<acoi::ParseTree, Box<dyn std::error::Error>> {
    let mut registry = DetectorRegistry::new();
    let p = page.clone();
    registry.register(
        "html",
        Version::new(1, 0, 0),
        Box::new(move |_| {
            let mut tokens = vec![Token::new("title", p.title.clone())];
            for k in &p.keywords {
                tokens.push(Token::new("word", k.clone()));
            }
            for o in &p.objects {
                tokens.push(Token::new("location", FeatureValue::url(o.clone())));
                tokens.push(Token::new("embedded", "embed"));
            }
            Ok(tokens)
        }),
    );
    registry.register(
        "header",
        Version::new(1, 0, 0),
        Box::new(|inputs| {
            let url = inputs[0].as_str().ok_or("no url")?;
            let primary = if url.ends_with(".mpg") {
                "video"
            } else if url.ends_with(".jpg") {
                "image"
            } else {
                "text"
            };
            Ok(vec![
                Token::new("primary", primary),
                Token::new("secondary", "x"),
            ])
        }),
    );
    // The photo detector: classification + face counting over the raw
    // image signal (fetched from the simulated web).
    let p = page.clone();
    registry.register(
        "photo",
        Version::new(1, 0, 0),
        Box::new(move |inputs| {
            let url = inputs[0].as_str().ok_or("no url")?;
            let signal = p.image(url).ok_or("404: image not found")?;
            Ok(vec![
                Token::new("kind", classify_image(signal).as_str()),
                Token::new("faces", count_faces(signal) as i64),
            ])
        }),
    );

    let mut fde = Fde::new(grammar, &registry);
    Ok(fde.parse(vec![Token::new(
        "location",
        FeatureValue::url(page.url.clone()),
    )])?)
}
