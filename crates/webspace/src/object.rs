//! Web objects: instantiations of schema classes.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::error::{Error, Result};
use crate::schema::{AttrType, MediaType, WebspaceSchema};

/// A typed attribute value of a web object.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum AttrValue {
    /// String / varchar value.
    Text(String),
    /// Integer value.
    Int(i64),
    /// Float value.
    Float(f64),
    /// A URI.
    Uri(String),
    /// A multimedia item: the media lives *outside* the database; the
    /// value is its location ("the stored meta-data forms an index to
    /// external data").
    Media {
        /// The media type.
        ty: MediaType,
        /// Location (URL) of the raw media.
        location: String,
    },
}

impl AttrValue {
    /// Whether this value conforms to the declared attribute type.
    /// Hypertext attributes accept inline text as well as an external
    /// location — a page's free-text body *is* hypertext content.
    pub fn conforms_to(&self, ty: &AttrType) -> bool {
        match (self, ty) {
            (AttrValue::Text(s), AttrType::Varchar(limit)) => s.len() <= *limit,
            (AttrValue::Text(_), AttrType::Media(MediaType::Hypertext)) => true,
            (AttrValue::Int(_), AttrType::Int) => true,
            (AttrValue::Float(_), AttrType::Float) => true,
            (AttrValue::Uri(_), AttrType::Uri) => true,
            (AttrValue::Media { ty: vt, .. }, AttrType::Media(st)) => vt == st,
            _ => false,
        }
    }

    /// A best-effort textual rendering (for XML views and text search).
    pub fn lexical(&self) -> String {
        match self {
            AttrValue::Text(s) => s.clone(),
            AttrValue::Int(i) => i.to_string(),
            AttrValue::Float(f) => f.to_string(),
            AttrValue::Uri(u) => u.clone(),
            AttrValue::Media { location, .. } => location.clone(),
        }
    }
}

/// An instantiation of a schema class.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WebObject {
    /// The class this object instantiates.
    pub class: String,
    /// A collection-unique object identifier (e.g. `player:seles`).
    pub id: String,
    /// Attribute values.
    pub attrs: BTreeMap<String, AttrValue>,
}

impl WebObject {
    /// Creates an object of `class` with identifier `id`.
    pub fn new(class: impl Into<String>, id: impl Into<String>) -> Self {
        WebObject {
            class: class.into(),
            id: id.into(),
            attrs: BTreeMap::new(),
        }
    }

    /// Sets an attribute (builder style).
    pub fn with(mut self, name: impl Into<String>, value: AttrValue) -> Self {
        self.attrs.insert(name.into(), value);
        self
    }

    /// The value of attribute `name`.
    pub fn attr(&self, name: &str) -> Option<&AttrValue> {
        self.attrs.get(name)
    }

    /// Validates the object against the schema: known class, known
    /// attributes, conforming types.
    pub fn validate(&self, schema: &WebspaceSchema) -> Result<()> {
        let class = schema
            .class(&self.class)
            .ok_or_else(|| Error::Object(format!("unknown class `{}`", self.class)))?;
        for (name, value) in &self.attrs {
            let def = class.attr(name).ok_or_else(|| {
                Error::Object(format!(
                    "class `{}` has no attribute `{name}`",
                    self.class
                ))
            })?;
            if !value.conforms_to(&def.ty) {
                return Err(Error::Object(format!(
                    "attribute `{}.{name}` value does not conform to {:?}",
                    self.class, def.ty
                )));
            }
        }
        Ok(())
    }
}

/// An instance of a schema association, linking two objects by id.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Association {
    /// The association name (must exist in the schema).
    pub name: String,
    /// Source object id.
    pub from: String,
    /// Target object id.
    pub to: String,
}

impl Association {
    /// Creates an association instance.
    pub fn new(
        name: impl Into<String>,
        from: impl Into<String>,
        to: impl Into<String>,
    ) -> Self {
        Association {
            name: name.into(),
            from: from.into(),
            to: to.into(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::AttrDef;

    fn schema() -> WebspaceSchema {
        let mut s = WebspaceSchema::new("w");
        s.add_class(
            "Player",
            vec![
                AttrDef {
                    name: "name".into(),
                    ty: AttrType::Varchar(10),
                },
                AttrDef {
                    name: "video".into(),
                    ty: AttrType::Media(MediaType::Video),
                },
            ],
        )
        .unwrap();
        s
    }

    #[test]
    fn valid_object_passes() {
        let o = WebObject::new("Player", "p1")
            .with("name", AttrValue::Text("Seles".into()))
            .with(
                "video",
                AttrValue::Media {
                    ty: MediaType::Video,
                    location: "http://x/v.mpg".into(),
                },
            );
        o.validate(&schema()).unwrap();
    }

    #[test]
    fn varchar_limit_is_enforced() {
        let o = WebObject::new("Player", "p1")
            .with("name", AttrValue::Text("a name way too long".into()));
        assert!(o.validate(&schema()).is_err());
    }

    #[test]
    fn unknown_class_and_attr_are_rejected() {
        let o = WebObject::new("Ghost", "g");
        assert!(o.validate(&schema()).is_err());
        let o = WebObject::new("Player", "p").with("ghost", AttrValue::Int(1));
        assert!(o.validate(&schema()).is_err());
    }

    #[test]
    fn media_type_mismatch_is_rejected() {
        let o = WebObject::new("Player", "p").with(
            "video",
            AttrValue::Media {
                ty: MediaType::Image,
                location: "x".into(),
            },
        );
        assert!(o.validate(&schema()).is_err());
    }
}
