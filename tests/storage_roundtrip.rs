//! Figures 9–12 — the physical level on real system data: everything the
//! engine stores (views, parse trees) survives the Monet transform and
//! its inverse; snapshots restore.

use monet::persist;
use monetxml::{parse_document, to_xml, XmlStore};

/// The verbatim Figure 9 document.
const FIGURE9: &str = concat!(
    r#"<image key="18934" source="http://.../seles.jpg">"#,
    "<date>999010530</date>",
    "<colors>",
    "<histogram>0.399 0.277 0.344</histogram>",
    "<saturation>0.390</saturation>",
    "<version>0.8</version>",
    "</colors>",
    "</image>"
);

#[test]
fn figure9_document_round_trips_through_the_store() {
    let doc = parse_document(FIGURE9).unwrap();
    let mut store = XmlStore::new();
    let root = store.bulkload_str("seles.xml", FIGURE9).unwrap();
    assert_eq!(store.reconstruct(root).unwrap(), doc);
}

#[test]
fn figure12_relations_match_the_paper() {
    let mut store = XmlStore::new();
    store.bulkload_str("seles.xml", FIGURE9).unwrap();
    let rels = store.summary().all_relations();
    // The figure's R1..R12: element paths + the two attributes.
    for expected in [
        "image",
        "image[key]",
        "image[source]",
        "image/date",
        "image/date/PCDATA",
        "image/colors",
        "image/colors/histogram",
        "image/colors/histogram/PCDATA",
        "image/colors/saturation",
        "image/colors/saturation/PCDATA",
        "image/colors/version",
        "image/colors/version/PCDATA",
    ] {
        assert!(rels.contains(&expected.to_owned()), "missing {expected}");
    }
}

#[test]
fn catalog_snapshots_restore_fully() {
    let mut store = XmlStore::new();
    for i in 0..5 {
        let xml = format!("<doc n=\"{i}\"><body>content {i}</body></doc>");
        store.bulkload_str(&format!("d{i}.xml"), &xml).unwrap();
    }
    let snapshot = persist::snapshot(store.db()).unwrap();
    let restored = persist::restore(&snapshot).unwrap();
    assert_eq!(restored.relation_count(), store.db().relation_count());
    assert_eq!(
        restored.association_count(),
        store.db().association_count()
    );
}

#[test]
fn site_pages_round_trip_through_the_store() {
    // Real system data: every page of the simulated site stores and
    // reconstructs isomorphically (the store is generic, DTD-less).
    let site = websim::Site::generate(websim::SiteSpec {
        players: 3,
        articles: 4,
        seed: 55,
    });
    let mut store = XmlStore::new();
    for url in site.urls().map(str::to_owned).collect::<Vec<_>>() {
        let html = site.page(&url).unwrap().to_owned();
        let doc = parse_document(&html).unwrap();
        let root = store.bulkload_str(&url, &html).unwrap();
        let back = store.reconstruct(root).unwrap();
        assert_eq!(back, doc, "{url}");
        // Serialising the reconstruction re-parses to the same tree.
        assert_eq!(parse_document(&to_xml(&back)).unwrap(), doc);
    }
    assert_eq!(store.document_count(), site.page_count());
}

#[test]
fn incremental_delete_keeps_other_documents_intact() {
    let site = websim::Site::generate(websim::SiteSpec {
        players: 2,
        articles: 2,
        seed: 56,
    });
    let mut store = XmlStore::new();
    let urls: Vec<String> = site.urls().map(str::to_owned).collect();
    for url in &urls {
        store.bulkload_str(url, site.page(url).unwrap()).unwrap();
    }
    // Delete every second document.
    let mut kept = Vec::new();
    for (i, url) in urls.iter().enumerate() {
        let root = store.root_for_source(url).unwrap();
        if i % 2 == 0 {
            store.delete_document(root).unwrap();
        } else {
            kept.push((url.clone(), root));
        }
    }
    for (url, root) in kept {
        let doc = parse_document(site.page(&url).unwrap()).unwrap();
        assert_eq!(store.reconstruct(root).unwrap(), doc, "{url}");
    }
}
