//! Label paths.
//!
//! The paper writes `a/b` for "b is a child element of a" and `a[b]` for
//! "b is an attribute of a", and names every relation after the full path
//! from the root: `R(image/colors/histogram)`, `R(image[key])`,
//! `R(image[rank])`. A [`Path`] is that sequence of steps; its `Display`
//! form is exactly the relation-naming convention, so a path *is* a
//! relation name.

use std::fmt;

use serde::{Deserialize, Serialize};

/// One step in a path.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Step {
    /// A child-element step (`/label`). Cdata nodes use label `PCDATA`.
    Child(String),
    /// An attribute step (`[name]`) — always terminal.
    Attr(String),
}

impl Step {
    /// The step's label text.
    pub fn label(&self) -> &str {
        match self {
            Step::Child(s) | Step::Attr(s) => s,
        }
    }
}

/// A root-to-node label path; doubles as the relation name.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct Path {
    steps: Vec<Step>,
}

impl Path {
    /// The empty path (the document collection itself).
    pub fn empty() -> Self {
        Path { steps: Vec::new() }
    }

    /// A single-element path for the document root label.
    pub fn root(label: impl Into<String>) -> Self {
        Path {
            steps: vec![Step::Child(label.into())],
        }
    }

    /// Extends with a child step.
    pub fn child(&self, label: impl Into<String>) -> Self {
        let mut steps = self.steps.clone();
        steps.push(Step::Child(label.into()));
        Path { steps }
    }

    /// Extends with an attribute step.
    pub fn attr(&self, name: impl Into<String>) -> Self {
        let mut steps = self.steps.clone();
        steps.push(Step::Attr(name.into()));
        Path { steps }
    }

    /// The steps.
    pub fn steps(&self) -> &[Step] {
        &self.steps
    }

    /// The parent path (everything but the last step), if any.
    pub fn parent(&self) -> Option<Path> {
        if self.steps.is_empty() {
            None
        } else {
            Some(Path {
                steps: self.steps[..self.steps.len() - 1].to_vec(),
            })
        }
    }

    /// The last step, if any.
    pub fn last(&self) -> Option<&Step> {
        self.steps.last()
    }

    /// Whether the path ends in an attribute step.
    pub fn is_attr(&self) -> bool {
        matches!(self.steps.last(), Some(Step::Attr(_)))
    }

    /// Parses the textual form produced by `Display`:
    /// `image/colors/histogram`, `image[key]`, `image/date/PCDATA`.
    ///
    /// Returns `None` for malformed text (attribute step not last,
    /// unbalanced brackets, empty labels).
    pub fn parse(text: &str) -> Option<Path> {
        let text = text.trim().trim_start_matches('/');
        if text.is_empty() {
            return Some(Path::empty());
        }
        let mut path = Path::empty();
        for (i, seg) in text.split('/').enumerate() {
            let _ = i;
            if path.is_attr() {
                return None; // attribute steps are terminal
            }
            if let Some(open) = seg.find('[') {
                let label = &seg[..open];
                let rest = &seg[open + 1..];
                let close = rest.find(']')?;
                if close != rest.len() - 1 {
                    return None;
                }
                let attr = &rest[..close];
                if label.is_empty() || attr.is_empty() {
                    return None;
                }
                path = path.child(label).attr(attr);
            } else {
                if seg.is_empty() {
                    return None;
                }
                path = path.child(seg);
            }
        }
        Some(path)
    }
}

impl fmt::Display for Path {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for step in &self.steps {
            match step {
                Step::Child(label) => {
                    if !first {
                        f.write_str("/")?;
                    }
                    f.write_str(label)?;
                }
                Step::Attr(name) => write!(f, "[{name}]")?,
            }
            first = false;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_matches_paper_notation() {
        let p = Path::root("image").child("colors").child("histogram");
        assert_eq!(p.to_string(), "image/colors/histogram");
        let a = Path::root("image").attr("key");
        assert_eq!(a.to_string(), "image[key]");
        let r = Path::root("image").child("date").attr("rank");
        assert_eq!(r.to_string(), "image/date[rank]");
    }

    #[test]
    fn parse_round_trips_display() {
        for text in [
            "image",
            "image[key]",
            "image/colors/histogram",
            "image/date/PCDATA",
            "image/date[rank]",
        ] {
            let p = Path::parse(text).unwrap();
            assert_eq!(p.to_string(), text);
        }
    }

    #[test]
    fn parse_rejects_malformed() {
        assert!(Path::parse("a[x]/b").is_none()); // attr not terminal
        assert!(Path::parse("a[[x]]").is_none());
        assert!(Path::parse("a[]").is_none());
        assert!(Path::parse("a//b").is_none());
        assert!(Path::parse("[x]").is_none());
    }

    #[test]
    fn parent_peels_one_step() {
        let p = Path::root("a").child("b").attr("k");
        assert_eq!(p.parent().unwrap().to_string(), "a/b");
        assert_eq!(Path::empty().parent(), None);
    }

    #[test]
    fn empty_path_parses_from_blank() {
        assert_eq!(Path::parse(""), Some(Path::empty()));
        assert_eq!(Path::parse("/"), Some(Path::empty()));
    }
}
