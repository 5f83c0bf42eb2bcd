//! The paper's grammar fragments, verbatim (modulo the typography of the
//! report: line numbers removed, and the fragments of Figures 6 and 7
//! concatenated into the one video feature grammar they describe).
//!
//! Downstream crates (the Feature Detector Engine, examples, tests)
//! parse these constants rather than re-typing the grammars, so the repo
//! stays honest about reproducing the published artefacts.

/// Figures 6 + 7: the tennis video feature grammar.
///
/// Section "Tennis video feature grammar" explains each construct; the
/// grammar retrieves a multimedia object, checks its MIME type, segments
/// a video into shots, classifies them, tracks the player in tennis
/// shots, and derives the `netplay` event.
pub const VIDEO_GRAMMAR: &str = r#"
%start MMO(location);

%detector header(location);
%detector header.init();
%detector header.final();

%detector video_type primary == "video";

%atom url;

%atom url location;
%atom str primary;
%atom str secondary;

MMO : location header mm_type?;
header : MIME_type;
MIME_type : primary secondary;
mm_type : video_type video;

%detector xml-rpc::segment(location);
%detector xml-rpc::tennis(location,begin.frameNo,end.frameNo);

%detector netplay some[tennis.frame](
    player.yPos <= 170.0
);

%atom flt xPos,yPos,Ecc,Orient;
%atom int frameNo,Area;
%atom bit netplay;

video : segment;
segment : shot*;
shot : begin end type;
begin : frameNo;
end : frameNo;
type : "tennis" tennis;
type : "other";
tennis : frame* event;
frame : frameNo player;
player : xPos yPos Area Ecc Orient;
event : netplay;
"#;

/// Figure 14: the fragment of the Internet feature grammar, embedded in
/// enough declarations to stand alone (the paper shows only the four
/// production rules; the declarations follow the text's description of
/// an HTML page as titles, keywords and anchors linking to multimedia
/// objects via the `MMO` start symbol of the video grammar).
pub const INTERNET_GRAMMAR: &str = r#"
%start html(location);

%atom url;
%atom url location;
%atom str word;
%atom str title;
%atom str embedded;
%atom str link;
%atom str alternative;
%atom str primary;
%atom str secondary;

%detector html(location);
%detector header(location);

html : title? body? anchor* ;
body : &keyword+;
anchor : &MMO embedded link? alternative?;
keyword : word;

MMO : location header;
header : MIME_type;
MIME_type : primary secondary;
"#;

/// The video grammar extended with the audio branch the grammar was
/// designed to absorb: "this grammar is easily extensible. New
/// multimedia types can be (and indeed are) added by providing
/// alternative rules for the `mm_type` symbol." Interviews (the
/// motivating example's "audio files of interviews") are segmented into
/// speech/music/silence; `isInterview` is an atom-paired whitebox over
/// the speech ratio and speaker-turn count, exactly the netplay pattern.
pub const MEDIA_GRAMMAR: &str = r#"
%start MMO(location);

%detector header(location);
%detector header.init();
%detector header.final();

%detector video_type primary == "video";
%detector audio_type primary == "audio";

%atom url;

%atom url location;
%atom str primary;
%atom str secondary;

MMO : location header mm_type?;
header : MIME_type;
MIME_type : primary secondary;
mm_type : video_type video;
mm_type : audio_type audio;

%detector xml-rpc::segment(location);
%detector xml-rpc::tennis(location,begin.frameNo,end.frameNo);
%detector xml-rpc::interview(location);

%detector netplay some[tennis.frame](
    player.yPos <= 170.0
);
%detector isInterview speechRatio >= 0.5 && turnCount >= 2;

%atom flt xPos,yPos,Ecc,Orient;
%atom int frameNo,Area;
%atom bit netplay;
%atom flt speechRatio;
%atom int turnCount;
%atom bit isInterview;

video : segment;
segment : shot*;
shot : begin end type;
begin : frameNo;
end : frameNo;
type : "tennis" tennis;
type : "other";
tennis : frame* event;
frame : frameNo player;
player : xPos yPos Area Ecc Orient;
event : netplay;

audio : interview;
interview : speechRatio turnCount isInterview;
"#;

/// The Figure 14 rules alone, without any `MMO` definition — the form
/// meant for *composition*: merged with [`VIDEO_GRAMMAR`], its `&MMO`
/// references resolve against the video grammar's rules, so "when the
/// content of a webpage is classified as a sports topic, rules in the
/// grammar can be used to steer the processing of videos embedded in
/// the page, towards sport specific detectors (e.g. the discussed
/// tennis video analysis)".
pub const INTERNET_CORE: &str = r#"
%start html(location);

%atom str word;
%atom str title;
%atom str embedded;
%atom str link;
%atom str alternative;

%detector html(location);

html : title? body? anchor* ;
body : &keyword+;
anchor : &MMO embedded link? alternative?;
keyword : word;
"#;

/// The composed Internet + tennis-video grammar (future-work section).
pub fn internet_video_grammar() -> crate::error::Result<crate::ast::Grammar> {
    let core = crate::parser::parse_grammar_raw(INTERNET_CORE)?;
    let video = crate::parser::parse_grammar_raw(VIDEO_GRAMMAR)?;
    let merged = core.merge(&video)?;
    crate::validate::check(&merged)?;
    Ok(merged)
}

/// The Internet grammar extended with the generic image pipeline the
/// future-work section lists: "a photo/graphic classifier for images
/// \[ASF97\] … face detection \[LH96\]. This would allow queries like:
/// 'show me all portraits embedded in pages containing keywords
/// semantically related to the word champion'."
///
/// `photo` is a blackbox detector (classification + face counting);
/// `portrait` is an atom-paired whitebox over its output.
pub const INTERNET_IMAGE_GRAMMAR: &str = r#"
%start html(location);

%atom url;
%atom url location;
%atom str word;
%atom str title;
%atom str embedded;
%atom str link;
%atom str alternative;
%atom str primary;
%atom str secondary;
%atom str kind;
%atom int faces;
%atom bit portrait;

%detector html(location);
%detector header(location);
%detector image_type primary == "image";
%detector photo(location);
%detector portrait faces >= 1 && kind == "photo";

html : title? body? anchor* ;
body : &keyword+;
anchor : &MMO embedded link? alternative?;
keyword : word;

MMO : location header mm_type?;
header : MIME_type;
MIME_type : primary secondary;
mm_type : image_type image;
image : photo;
photo : kind faces portrait;
"#;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_grammar;

    #[test]
    fn video_grammar_parses_and_validates() {
        let g = parse_grammar(VIDEO_GRAMMAR).unwrap();
        assert_eq!(g.start().symbol, "MMO");
        // All five detectors of Figures 6-7.
        for d in ["header", "video_type", "segment", "tennis", "netplay"] {
            assert!(g.detector(d).is_some(), "missing detector {d}");
        }
        // 18 rules total (type has two alternatives).
        assert_eq!(g.rules_for("type").len(), 2);
    }

    #[test]
    fn internet_grammar_parses_and_validates() {
        let g = parse_grammar(INTERNET_GRAMMAR).unwrap();
        assert_eq!(g.start().symbol, "html");
        assert!(g
            .rules_for("anchor")[0]
            .rhs_symbols()
            .contains(&"MMO"));
    }

    #[test]
    fn media_grammar_extends_mm_type_with_audio() {
        let g = parse_grammar(MEDIA_GRAMMAR).unwrap();
        assert_eq!(g.rules_for("mm_type").len(), 2);
        assert!(g.detector("interview").is_some());
        assert!(g.detector("isInterview").is_some());
        assert_eq!(g.symbols().terminal_type("isInterview"), Some("bit"));
        // The video half is untouched.
        assert!(g.detector("tennis").is_some());
    }

    #[test]
    fn internet_image_grammar_parses_and_validates() {
        let g = parse_grammar(INTERNET_IMAGE_GRAMMAR).unwrap();
        assert!(g.detector("photo").is_some());
        assert!(g.detector("portrait").is_some());
        // `portrait` pairs a whitebox detector with a bit atom, like
        // Figure 7's netplay.
        assert_eq!(g.symbols().terminal_type("portrait"), Some("bit"));
    }

    #[test]
    fn internet_and_video_grammars_compose() {
        let g = internet_video_grammar().unwrap();
        // The composed grammar starts at html but contains the full
        // tennis pipeline for embedded objects.
        assert_eq!(g.start().symbol, "html");
        for d in ["html", "header", "segment", "tennis", "netplay"] {
            assert!(g.detector(d).is_some(), "missing {d}");
        }
        // The anchor rule's &MMO now resolves to the video grammar's
        // MMO rule with the optional video branch.
        assert_eq!(g.rules_for("MMO").len(), 1);
        assert!(g
            .rules_for("MMO")[0]
            .rhs_symbols()
            .contains(&"mm_type"));
    }

    #[test]
    fn merge_rejects_conflicting_detectors() {
        let a = crate::parser::parse_grammar_raw(
            "%start a(x); %atom str x; %detector d(x); a : x d; d : x;",
        )
        .unwrap();
        let b = crate::parser::parse_grammar_raw(
            "%start b(x); %atom str x; %detector d(x, x); b : x d; d : x;",
        )
        .unwrap();
        assert!(a.merge(&b).is_err());
    }

    #[test]
    fn merge_rejects_conflicting_atom_types() {
        let a = crate::parser::parse_grammar_raw("%start a(x); %atom str x; a : x;").unwrap();
        let b = crate::parser::parse_grammar_raw("%start b(x); %atom int x; b : x;").unwrap();
        assert!(a.merge(&b).is_err());
    }

    #[test]
    fn merge_deduplicates_identical_declarations() {
        let a = crate::parser::parse_grammar_raw(VIDEO_GRAMMAR).unwrap();
        let merged = a.merge(&a).unwrap();
        crate::validate::check(&merged).unwrap();
        assert_eq!(merged.rules().len(), a.rules().len());
    }

    #[test]
    fn video_grammar_dependency_graph_is_nonempty() {
        let g = parse_grammar(VIDEO_GRAMMAR).unwrap();
        let d = crate::depgraph::DepGraph::build(&g);
        // The netplay whitebox depends on the player features.
        let changed: std::collections::BTreeSet<String> =
            ["yPos".to_owned()].into_iter().collect();
        assert!(d.parameter_dependents(&changed).contains("netplay"));
    }
}
