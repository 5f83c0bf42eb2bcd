//! Serialising documents back to XML text.
//!
//! Used by the inverse Monet mapping (`M⁻¹ₜ`) and by the FDE when it
//! "dumps the parse tree as an XML document".

use std::fmt::Write as _;

use crate::doc::{Document, NodeId, NodeKind};

/// Serialises `doc` to a compact XML string (no insignificant whitespace,
/// entities escaped). Parsing the output with
/// [`parse_document`](crate::parse_document) yields a tree structurally
/// equal to `doc`.
pub fn to_xml(doc: &Document) -> String {
    let mut out = String::with_capacity(doc.node_count() * 16);
    write_node(doc, doc.root(), &mut out);
    out
}

fn write_node(doc: &Document, id: NodeId, out: &mut String) {
    match doc.kind(id) {
        NodeKind::Cdata(text) => out.push_str(&escape_text(text)),
        NodeKind::Element(tag) => {
            out.push('<');
            out.push_str(tag);
            for (name, value) in doc.attrs(id) {
                let _ = write!(out, " {}=\"{}\"", name, escape_attr(value));
            }
            let children = doc.children(id);
            if children.is_empty() {
                out.push_str("/>");
            } else {
                out.push('>');
                for c in children {
                    write_node(doc, *c, out);
                }
                let _ = write!(out, "</{tag}>");
            }
        }
    }
}

/// Escapes `&`, `<` and `>` in character data.
pub fn escape_text(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            _ => out.push(c),
        }
    }
    out
}

/// Escapes `&`, `<`, `>` and `"` in attribute values.
pub fn escape_attr(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            _ => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_document;
    use crate::testutil::figure9;

    #[test]
    fn serialise_then_parse_is_identity_on_figure9() {
        let d = figure9();
        let xml = to_xml(&d);
        assert_eq!(parse_document(&xml).unwrap(), d);
    }

    #[test]
    fn escaping_round_trips() {
        let mut d = Document::new("a");
        d.set_attr(d.root(), "q", "x\"<&>y");
        d.add_cdata(d.root(), "1 < 2 & 3 > 2");
        let xml = to_xml(&d);
        assert_eq!(parse_document(&xml).unwrap(), d);
    }

    #[test]
    fn empty_element_serialises_self_closing() {
        let mut d = Document::new("a");
        d.add_element(d.root(), "b");
        assert_eq!(to_xml(&d), "<a><b/></a>");
    }
}
