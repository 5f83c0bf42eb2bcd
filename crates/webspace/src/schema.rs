//! Webspace schemas: classes, attributes, associations.
//!
//! "The webspace schema models the concepts in terms of classes,
//! attributes of classes, and associations over classes. … For the
//! integration with content-based information retrieval we allow the
//! conceptual schema to be extended with all kinds of multimedia types
//! (i.e. text, images, video or audio)."

use serde::{Deserialize, Serialize};

use crate::error::{Error, Result};

/// Multimedia attribute types, each hooking into the logical level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MediaType {
    /// Free text with full-text retrieval support.
    Hypertext,
    /// A still image.
    Image,
    /// A video (analysed by the COBRA pipeline).
    Video,
    /// An audio fragment.
    Audio,
}

impl MediaType {
    /// Lexical form used in schema dumps.
    pub fn as_str(self) -> &'static str {
        match self {
            MediaType::Hypertext => "Hypertext",
            MediaType::Image => "Image",
            MediaType::Video => "Video",
            MediaType::Audio => "Audio",
        }
    }
}

/// Attribute types of the object-oriented model (Figure 3 uses
/// `varchar(50)`, `Hypertext`, `Uri`, `Video`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AttrType {
    /// Bounded string.
    Varchar(usize),
    /// Integer.
    Int,
    /// Float.
    Float,
    /// A URI.
    Uri,
    /// A multimedia attribute.
    Media(MediaType),
}

/// One attribute of a class.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AttrDef {
    /// Attribute name.
    pub name: String,
    /// Attribute type.
    pub ty: AttrType,
}

/// One class of the schema.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClassDef {
    /// Class name.
    pub name: String,
    /// Attributes, in declaration order.
    pub attributes: Vec<AttrDef>,
}

impl ClassDef {
    /// The definition of attribute `name`, if any.
    pub fn attr(&self, name: &str) -> Option<&AttrDef> {
        self.attributes.iter().find(|a| a.name == name)
    }
}

/// A directed association between two classes (`Article —About→ Player`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AssociationDef {
    /// Association name.
    pub name: String,
    /// Source class.
    pub from: String,
    /// Target class.
    pub to: String,
}

/// A complete webspace schema.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WebspaceSchema {
    name: String,
    classes: Vec<ClassDef>,
    associations: Vec<AssociationDef>,
}

impl WebspaceSchema {
    /// An empty schema named `name`.
    pub fn new(name: impl Into<String>) -> Self {
        WebspaceSchema {
            name: name.into(),
            classes: Vec::new(),
            associations: Vec::new(),
        }
    }

    /// The schema name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Adds a class; fails on duplicates or empty names.
    pub fn add_class(
        &mut self,
        name: impl Into<String>,
        attributes: Vec<AttrDef>,
    ) -> Result<&mut Self> {
        let name = name.into();
        if name.is_empty() {
            return Err(Error::Schema("class name may not be empty".into()));
        }
        if self.class(&name).is_some() {
            return Err(Error::Schema(format!("duplicate class `{name}`")));
        }
        let mut seen = std::collections::HashSet::new();
        for attr in &attributes {
            if !seen.insert(attr.name.as_str()) {
                return Err(Error::Schema(format!(
                    "class `{name}` declares attribute `{}` twice",
                    attr.name
                )));
            }
        }
        self.classes.push(ClassDef { name, attributes });
        Ok(self)
    }

    /// Adds an association; both endpoint classes must exist.
    pub fn add_association(
        &mut self,
        name: impl Into<String>,
        from: impl Into<String>,
        to: impl Into<String>,
    ) -> Result<&mut Self> {
        let (name, from, to) = (name.into(), from.into(), to.into());
        for class in [&from, &to] {
            if self.class(class).is_none() {
                return Err(Error::Schema(format!(
                    "association `{name}` references unknown class `{class}`"
                )));
            }
        }
        if self.associations.iter().any(|a| a.name == name) {
            return Err(Error::Schema(format!("duplicate association `{name}`")));
        }
        self.associations.push(AssociationDef { name, from, to });
        Ok(self)
    }

    /// Looks up a class.
    pub fn class(&self, name: &str) -> Option<&ClassDef> {
        self.classes.iter().find(|c| c.name == name)
    }

    /// Looks up an association.
    pub fn association(&self, name: &str) -> Option<&AssociationDef> {
        self.associations.iter().find(|a| a.name == name)
    }

    /// All classes.
    pub fn classes(&self) -> &[ClassDef] {
        &self.classes
    }

    /// All associations.
    pub fn associations(&self) -> &[AssociationDef] {
        &self.associations
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duplicate_class_is_rejected() {
        let mut s = WebspaceSchema::new("w");
        s.add_class("Player", vec![]).unwrap();
        assert!(s.add_class("Player", vec![]).is_err());
    }

    #[test]
    fn duplicate_attribute_is_rejected() {
        let mut s = WebspaceSchema::new("w");
        let attr = AttrDef {
            name: "name".into(),
            ty: AttrType::Varchar(50),
        };
        assert!(s.add_class("Player", vec![attr.clone(), attr]).is_err());
    }

    #[test]
    fn association_requires_known_classes() {
        let mut s = WebspaceSchema::new("w");
        s.add_class("Article", vec![]).unwrap();
        assert!(s.add_association("About", "Article", "Player").is_err());
        s.add_class("Player", vec![]).unwrap();
        s.add_association("About", "Article", "Player").unwrap();
        assert!(s.add_association("About", "Article", "Player").is_err());
    }
}
