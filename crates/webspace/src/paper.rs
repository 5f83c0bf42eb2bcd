//! The paper's webspace schema artefacts.

use crate::schema::{AttrDef, AttrType, MediaType, WebspaceSchema};

/// The Figure 3 fragment of the Australian Open webspace schema,
/// extended with the Player attributes visible in the annotated page of
/// Figure 1 (gender, country, picture, history) and the play hand, which
/// the Figure 13 query selects on ("the play hand is available in the
/// players profile").
pub fn ausopen_schema() -> WebspaceSchema {
    let mut schema = WebspaceSchema::new("AustralianOpen");
    let varchar = |n: &str, len: usize| AttrDef {
        name: n.to_owned(),
        ty: AttrType::Varchar(len),
    };
    let media = |n: &str, mt: MediaType| AttrDef {
        name: n.to_owned(),
        ty: AttrType::Media(mt),
    };
    schema
        .add_class(
            "Article",
            vec![varchar("title", 100), media("body", MediaType::Hypertext)],
        )
        .expect("fresh schema");
    schema
        .add_class(
            "Player",
            vec![
                varchar("name", 50),
                varchar("gender", 10),
                varchar("country", 50),
                varchar("hand", 10),
                media("picture", MediaType::Image),
                media("history", MediaType::Hypertext),
            ],
        )
        .expect("fresh schema");
    schema
        .add_class(
            "Profile",
            vec![
                AttrDef {
                    name: "document".to_owned(),
                    ty: AttrType::Uri,
                },
                media("video", MediaType::Video),
                media("interview", MediaType::Audio),
            ],
        )
        .expect("fresh schema");
    schema
        .add_association("About", "Article", "Player")
        .expect("classes exist");
    schema
        .add_association("Is_covered_in", "Player", "Profile")
        .expect("classes exist");
    schema
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure3_concepts_are_present() {
        let s = ausopen_schema();
        // The five class concepts of Figure 3 map to three classes plus
        // the two multimedia types Hypertext and Video, which are
        // attribute types in this model.
        for class in ["Article", "Player", "Profile"] {
            assert!(s.class(class).is_some(), "missing class {class}");
        }
        // Attribute concepts of Figure 3: body, name, document, video.
        assert!(s.class("Article").unwrap().attr("body").is_some());
        assert!(s.class("Player").unwrap().attr("name").is_some());
        assert!(s.class("Profile").unwrap().attr("document").is_some());
        assert!(s.class("Profile").unwrap().attr("video").is_some());
        // Association concepts: Is_covered_in and About.
        assert!(s.association("About").is_some());
        assert!(s.association("Is_covered_in").is_some());
    }

    #[test]
    fn multimedia_hooks_cover_all_four_kinds_used() {
        let s = ausopen_schema();
        let media = |class: &str, attr: &str| match s.class(class)?.attr(attr)?.ty {
            AttrType::Media(mt) => Some(mt),
            _ => None,
        };
        assert_eq!(media("Article", "body"), Some(MediaType::Hypertext));
        assert_eq!(media("Player", "picture"), Some(MediaType::Image));
        assert_eq!(media("Player", "history"), Some(MediaType::Hypertext));
        assert_eq!(media("Profile", "video"), Some(MediaType::Video));
    }
}
